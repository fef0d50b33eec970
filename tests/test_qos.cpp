// Tests for the QoS-floor allocator and its Scheme integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/qos.h"
#include "core/subproblem.h"
#include "core/waterfill.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

TEST(Qos, NoFloorsReducesToTheUnconstrainedOptimum) {
  util::Rng rng(1301);
  auto f = test::random_context(rng, 4, 1, 3);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  // Floors below every current state are vacuous.
  const std::vector<double> floors(4, 1.0);
  const QosPlan plan = qos_solve(f.ctx, gt, floors, 5);
  EXPECT_TRUE(plan.floors_met);
  for (double s : plan.floor_shares) EXPECT_DOUBLE_EQ(s, 0.0);
  const double unconstrained =
      waterfill_solve(f.ctx, test::cache_for(f.ctx), gt).objective;
  EXPECT_NEAR(plan.allocation.objective, unconstrained, 1e-6);
}

TEST(Qos, FloorsReserveShares) {
  util::Rng rng(1303);
  auto f = test::random_context(rng, 3, 1, 3);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  // Demand one user ends 2 dB above its state within 4 slots.
  std::vector<double> floors = {f.ctx.users[0].psnr + 2.0, 1.0, 1.0};
  const QosPlan plan = qos_solve(f.ctx, gt, floors, 4);
  EXPECT_GT(plan.floor_shares[0], 0.0);
  EXPECT_DOUBLE_EQ(plan.floor_shares[1], 0.0);
  // The reserved share covers the per-slot deficit at the expected rate.
  const UserState& u = f.ctx.users[0];
  const double rate = plan.allocation.use_mbs[0]
                          ? u.success_mbs * u.rate_mbs
                          : u.success_fbs * u.rate_fbs * gt[0];
  EXPECT_NEAR(plan.floor_shares[0], (2.0 / 4.0) / rate, 1e-9);
  // And the user actually holds at least that share.
  const double held = plan.allocation.use_mbs[0]
                          ? plan.allocation.rho_mbs[0]
                          : plan.allocation.rho_fbs[0];
  EXPECT_GE(held, plan.floor_shares[0] - 1e-9);
}

TEST(Qos, InfeasibleFloorsAreScaledNotViolated) {
  util::Rng rng(1307);
  auto f = test::random_context(rng, 4, 1, 2);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  // Impossible: everyone +20 dB in one slot.
  std::vector<double> floors;
  for (const auto& u : f.ctx.users) floors.push_back(u.psnr + 20.0);
  const QosPlan plan = qos_solve(f.ctx, gt, floors, 1);
  EXPECT_FALSE(plan.floors_met);
  EXPECT_TRUE(plan.allocation.feasible(f.ctx));
}

TEST(Qos, AllocationIsAlwaysFeasible) {
  util::Rng rng(1311);
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 5, 2, 3);
    const std::vector<double> gt(2, f.ctx.total_expected_channels());
    std::vector<double> floors;
    for (const auto& u : f.ctx.users) {
      floors.push_back(u.psnr + rng.uniform(0.0, 6.0));
    }
    const QosPlan plan = qos_solve(f.ctx, gt, floors, 1 + trial % 5);
    EXPECT_TRUE(plan.allocation.feasible(f.ctx)) << "trial " << trial;
  }
}

TEST(Qos, ObjectiveNeverExceedsUnconstrained) {
  util::Rng rng(1313);
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 4, 1, 3);
    const std::vector<double> gt = {f.ctx.total_expected_channels()};
    std::vector<double> floors;
    for (const auto& u : f.ctx.users) {
      floors.push_back(u.psnr + rng.uniform(0.0, 3.0));
    }
    const QosPlan plan = qos_solve(f.ctx, gt, floors, 3);
    const double optimum =
        waterfill_solve(f.ctx, test::cache_for(f.ctx), gt).objective;
    EXPECT_LE(plan.allocation.objective, optimum + 1e-6);
  }
}

TEST(Qos, SharesAreFloorsPlusTheReferenceResidualFill) {
  // Above binding floors each resource's leftover budget is water-filled
  // from the floor-advanced states W + floor * R. Every share must equal
  // min(floor + extra, cap), with `extra` the bisection reference's fill of
  // the budget 1 - sum(floor) on those states.
  util::Rng rng(1317);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t num_fbs = 1 + rng.index(3);
    auto f = test::random_context(rng, 2 + rng.index(7), num_fbs, 3);
    const std::vector<double> gt(num_fbs, f.ctx.total_expected_channels());
    // User 0 and about half of the others get a floor above their state;
    // the rest a vacuous one.
    std::vector<double> floors;
    for (const UserState& u : f.ctx.users) {
      floors.push_back(floors.empty() || rng.uniform(0.0, 1.0) < 0.5
                           ? u.psnr + rng.uniform(0.1, 1.5)
                           : 1.0);
    }
    const QosPlan plan = qos_solve(f.ctx, gt, floors, 1 + rng.index(8));
    const SlotAllocation& a = plan.allocation;
    double floor_sum = 0.0;
    for (const double s : plan.floor_shares) floor_sum += s;
    ASSERT_GT(floor_sum, 0.0) << "trial " << trial;  // some floor binds

    // Resource 0 is the MBS, resource i + 1 is FBS i.
    for (std::size_t r = 0; r <= num_fbs; ++r) {
      std::vector<std::size_t> members;
      std::vector<double> advanced, rates, successes;
      double budget = 1.0;
      for (std::size_t j = 0; j < f.ctx.users.size(); ++j) {
        const UserState& u = f.ctx.users[j];
        if (r == 0 ? !a.use_mbs[j] : (a.use_mbs[j] || u.fbs != r - 1)) {
          continue;
        }
        const double rate = r == 0 ? u.rate_mbs : u.rate_fbs * gt[r - 1];
        members.push_back(j);
        advanced.push_back(u.psnr + plan.floor_shares[j] * rate);
        rates.push_back(rate);
        successes.push_back(r == 0 ? u.success_mbs : u.success_fbs);
        budget -= plan.floor_shares[j];
      }
      std::vector<double> extra(members.size(), 0.0);
      if (!members.empty() && budget > 0.0) {
        waterfill_shares_reference(advanced, rates, successes, budget, extra);
      }
      for (std::size_t k = 0; k < members.size(); ++k) {
        const std::size_t j = members[k];
        const double expected =
            std::min(plan.floor_shares[j] + extra[k], kRhoCap);
        EXPECT_NEAR(r == 0 ? a.rho_mbs[j] : a.rho_fbs[j], expected, 1e-6)
            << "trial " << trial << ", resource " << r << ", user " << j;
      }
    }
  }
}

TEST(Qos, TargetedFloorLiftsTheFlaggedUserEndToEnd) {
  // The deployment-realistic use: guarantee one subscriber; everyone else
  // shares what is left fairly. The flagged user's delivered quality must
  // rise relative to the plain proportional-fair run.
  sim::Scenario s = sim::single_fbs_scenario(77);
  s.num_gops = 12;
  auto per_user_of = [&](std::unique_ptr<Scheme> scheme) {
    sim::Simulator sim(s, std::move(scheme), 0);
    return sim.run().user_mean_psnr;
  };
  const auto plain = per_user_of(std::make_unique<ProposedScheme>());
  const std::size_t worst = static_cast<std::size_t>(
      std::min_element(plain.begin(), plain.end()) - plain.begin());
  std::vector<double> floors(plain.size(), 1.0);  // vacuous for the rest
  floors[worst] = plain[worst] + 1.5;             // lift the laggard
  const auto flagged = per_user_of(
      std::make_unique<QosProposedScheme>(floors, s.gop_deadline));
  EXPECT_GT(flagged[worst], plain[worst] + 0.3);
}

TEST(Qos, UniformInfeasibleFloorsRedistributeBestEffort) {
  // A uniform floor far above the feasible region degenerates to
  // deficit-proportional best effort: the scheme must keep running, keep
  // allocations feasible, and report the scaled slots.
  sim::Scenario s = sim::single_fbs_scenario(77);
  s.num_gops = 6;
  auto scheme = std::make_unique<QosProposedScheme>(45.0, s.gop_deadline);
  auto* raw = scheme.get();
  sim::Simulator sim(s, std::move(scheme), 0);
  const sim::RunResult r = sim.run();
  EXPECT_GT(raw->slots_with_scaled_floors(), 0u);
  for (double p : r.user_mean_psnr) EXPECT_GT(p, 25.0);
}

TEST(Qos, Validation) {
  util::Rng rng(1319);
  auto f = test::random_context(rng, 2, 1, 2);
  const std::vector<double> gt = {1.0};
  EXPECT_THROW(qos_solve(f.ctx, gt, {1.0}, 3), std::logic_error);   // size
  EXPECT_THROW(qos_solve(f.ctx, gt, {1.0, 1.0}, 0), std::logic_error);
  EXPECT_THROW(QosProposedScheme(30.0, 0), std::logic_error);
}

}  // namespace
}  // namespace femtocr::core
