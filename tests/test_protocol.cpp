// Tests for the message-level distributed protocol (Section IV-A.3) and
// the multistage-decomposition analysis (Eq. 10 -> Eq. 11).
#include <gtest/gtest.h>

#include "core/multistage.h"
#include "core/protocol.h"
#include "core/waterfill.h"
#include "test_helpers.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

DualOptions tuned() {
  DualOptions o;
  o.step_size = 2e-4;
  o.initial_lambda = 0.05;
  o.tolerance = 1e-8;
  o.max_iterations = 200000;
  return o;
}

TEST(Protocol, ReachesTheCentralizedOptimum) {
  util::Rng rng(901);
  for (int trial = 0; trial < 6; ++trial) {
    auto f = test::random_context(rng, 4, 2, 3);
    const std::vector<double> gt(2, f.ctx.total_expected_channels());
    const protocol::ProtocolResult res =
        protocol::run_protocol(f.ctx, gt, tuned());
    EXPECT_TRUE(res.converged) << "trial " << trial;
    const SlotAllocation exact =
        waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
    EXPECT_NEAR(res.allocation.objective, exact.objective,
                5e-3 * std::abs(exact.objective));
    EXPECT_TRUE(res.allocation.feasible(f.ctx));
  }
}

TEST(Protocol, MatchesTheInProcessDualSolver) {
  // The protocol transports solve_dual's arithmetic: the same price step,
  // the same budget projection, the same recovery. Whenever both converge
  // they must agree bit for bit. The K >= 192 instances run at 4 threads:
  // neither side may depend on the thread count.
  util::Rng rng(4242);
  std::size_t compared = 0;
  auto check = [&](std::size_t users, std::size_t fbs, std::size_t channels) {
    auto f = test::random_context(rng, users, fbs, channels);
    const std::vector<double> gt(fbs, f.ctx.total_expected_channels());
    const DualResult central =
        solve_dual(f.ctx, test::cache_for(f.ctx), gt, tuned());
    const protocol::ProtocolResult distributed =
        protocol::run_protocol(f.ctx, gt, tuned());
    if (!central.converged || !distributed.converged) return;
    ++compared;
    SCOPED_TRACE(testing::Message() << "K=" << users << " N=" << fbs
                                    << " M=" << channels);
    EXPECT_EQ(distributed.rounds, central.iterations);
    EXPECT_EQ(distributed.lambda, central.lambda);
    EXPECT_EQ(distributed.allocation.use_mbs, central.allocation.use_mbs);
    EXPECT_EQ(distributed.allocation.rho_mbs, central.allocation.rho_mbs);
    EXPECT_EQ(distributed.allocation.rho_fbs, central.allocation.rho_fbs);
    EXPECT_EQ(distributed.allocation.objective, central.allocation.objective);
  };
  util::set_default_threads(1);
  for (int trial = 0; trial < 160; ++trial) {
    check(2 + rng.index(40), 1 + rng.index(4), 1 + rng.index(6));
  }
  EXPECT_GE(compared, 140u);
  util::set_default_threads(4);
  compared = 0;
  check(192, 2, 4);
  check(200, 3, 5);
  check(256, 4, 6);
  EXPECT_GE(compared, 1u);
  util::set_default_threads(0);
}

TEST(Protocol, MessageAccounting) {
  util::Rng rng(911);
  auto f = test::random_context(rng, 5, 1, 2);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  const protocol::ProtocolResult res =
      protocol::run_protocol(f.ctx, gt, tuned());
  // One uplink report per user per round; one broadcast per round plus the
  // initial one.
  EXPECT_EQ(res.uplink_messages, res.rounds * f.ctx.users.size());
  EXPECT_EQ(res.downlink_broadcasts, res.rounds + 1);
}

TEST(Protocol, UserAgentIsPure) {
  // The same broadcast always produces the same report (no hidden state).
  UserState u;
  u.psnr = 31.0;
  u.success_mbs = 0.8;
  u.success_fbs = 0.9;
  u.rate_mbs = 0.6;
  u.rate_fbs = 0.6;
  u.fbs = 0;
  const protocol::UserAgent agent(3, u, 2.2);
  const protocol::PriceBroadcast prices{5, {0.02, 0.03}};
  const auto a = agent.on_broadcast(prices);
  const auto b = agent.on_broadcast(prices);
  EXPECT_EQ(a.user, 3u);
  EXPECT_EQ(a.use_mbs, b.use_mbs);
  EXPECT_DOUBLE_EQ(a.rho_mbs, b.rho_mbs);
  EXPECT_DOUBLE_EQ(a.rho_fbs, b.rho_fbs);
}

TEST(Protocol, RejectsMalformedInput) {
  UserState u;
  u.fbs = 2;
  const protocol::UserAgent agent(0, u, 1.0);
  // Broadcast covering only FBS 0 cannot serve a user of FBS 2.
  EXPECT_THROW(agent.on_broadcast({0, {0.02, 0.03}}), std::logic_error);
}

// ----------------------------------------------------------- Multistage ----

TEST(Multistage, SecondStageMatchesDirectWaterfill) {
  TwoStageInstance inst;
  inst.psnr = {30.0, 32.0};
  inst.success = {0.8, 0.9};
  inst.rate = {0.6, 0.5};
  // One user with everything vs split: the water-filled value must beat
  // both extreme allocations evaluated by hand.
  const double v = second_stage_value(inst, inst.psnr);
  auto value_of = [&](double r0, double r1) {
    return 0.8 * std::log(30.0 + r0 * 0.6) + 0.2 * std::log(30.0) +
           0.9 * std::log(32.0 + r1 * 0.5) + 0.1 * std::log(32.0);
  };
  EXPECT_GE(v + 1e-9, value_of(1.0, 0.0));
  EXPECT_GE(v + 1e-9, value_of(0.0, 1.0));
  EXPECT_GE(v + 1e-9, value_of(0.5, 0.5));
}

TEST(Multistage, MyopicNeverBeatsLookahead) {
  util::Rng rng(919);
  for (int trial = 0; trial < 10; ++trial) {
    TwoStageInstance inst;
    const std::size_t n = 2 + trial % 2;
    for (std::size_t j = 0; j < n; ++j) {
      inst.psnr.push_back(rng.uniform(28.0, 40.0));
      inst.success.push_back(rng.uniform(0.5, 0.99));
      inst.rate.push_back(rng.uniform(0.3, 0.8));
    }
    const TwoStageResult r = analyze_two_stage(inst, 40);
    EXPECT_GE(r.optimal_value + 1e-9, r.myopic_value);
    EXPECT_GE(r.relative_gap(), -1e-12);
  }
}

TEST(Multistage, DecompositionIsNearOptimal) {
  // The property the paper relies on: the per-slot (myopic) policy loses a
  // negligible fraction of the two-stage optimum.
  util::Rng rng(929);
  double worst_gap = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    TwoStageInstance inst;
    for (std::size_t j = 0; j < 2; ++j) {
      inst.psnr.push_back(rng.uniform(28.0, 40.0));
      inst.success.push_back(rng.uniform(0.5, 0.99));
      inst.rate.push_back(rng.uniform(0.3, 0.8));
    }
    worst_gap = std::max(worst_gap, analyze_two_stage(inst, 60).relative_gap());
  }
  EXPECT_LT(worst_gap, 5e-4);  // < 0.05% of the objective
}

TEST(Multistage, Validation) {
  TwoStageInstance bad;
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad.psnr = {30.0};
  bad.success = {0.8, 0.9};  // misaligned
  bad.rate = {0.5};
  EXPECT_THROW(bad.validate(), std::logic_error);
  TwoStageInstance big;
  for (int j = 0; j < 4; ++j) {
    big.psnr.push_back(30.0);
    big.success.push_back(0.9);
    big.rate.push_back(0.5);
  }
  EXPECT_THROW(big.validate(), std::logic_error);
}

}  // namespace
}  // namespace femtocr::core
