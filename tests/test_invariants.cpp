// Cross-cutting invariants that tie the layers together end to end:
// symmetry, monotonicity in the physical knobs, and scheme sanity on the
// full simulation stack.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/scheme.h"
#include "core/waterfill.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/rng.h"

namespace femtocr {
namespace {

TEST(Invariants, WaterfillIsPermutationSymmetric) {
  // Relabeling users must not change the optimal objective.
  util::Rng rng(1201);
  auto f = test::random_context(rng, 5, 1, 3);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  const double before =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt).objective;
  std::reverse(f.ctx.users.begin(), f.ctx.users.end());
  const double after =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt).objective;
  EXPECT_NEAR(before, after, 1e-9);
}

TEST(Invariants, ObjectiveScalesWithIdenticalUserCloning) {
  // Two identical users sharing the slot reach exactly the value of one
  // user with the whole slot at half rate... not in general — but the
  // optimal split between clones must be exactly even (strict concavity).
  util::Rng rng(1203);
  auto f = test::random_context(rng, 2, 1, 3);
  f.ctx.users[1] = f.ctx.users[0];  // clone
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  const core::SlotAllocation a =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
  if (!a.use_mbs[0] && !a.use_mbs[1]) {
    EXPECT_NEAR(a.rho_fbs[0], a.rho_fbs[1], 1e-6);
  }
  if (a.use_mbs[0] && a.use_mbs[1]) {
    EXPECT_NEAR(a.rho_mbs[0], a.rho_mbs[1], 1e-6);
  }
}

TEST(Invariants, EndToEndQualityDecreasesWithUtilization) {
  sim::Scenario lo = sim::single_fbs_scenario(9);
  lo.num_gops = 12;
  lo.set_utilization(0.3);
  lo.finalize();
  sim::Scenario hi = sim::single_fbs_scenario(9);
  hi.num_gops = 12;
  hi.set_utilization(0.7);
  hi.finalize();
  const auto q_lo = sim::run_experiment(lo, core::SchemeKind::kProposed, 5);
  const auto q_hi = sim::run_experiment(hi, core::SchemeKind::kProposed, 5);
  EXPECT_GT(q_lo.mean_psnr.mean(), q_hi.mean_psnr.mean());
  EXPECT_GT(q_lo.avg_available.mean(), q_hi.avg_available.mean());
}

TEST(Invariants, EndToEndQualityGrowsWithChannels) {
  sim::Scenario few = sim::single_fbs_scenario(9);
  few.num_gops = 12;
  few.spectrum.num_licensed = 4;
  few.finalize();
  sim::Scenario many = sim::single_fbs_scenario(9);
  many.num_gops = 12;
  many.spectrum.num_licensed = 12;
  many.finalize();
  const auto q_few = sim::run_experiment(few, core::SchemeKind::kProposed, 5);
  const auto q_many =
      sim::run_experiment(many, core::SchemeKind::kProposed, 5);
  EXPECT_GT(q_many.mean_psnr.mean(), q_few.mean_psnr.mean());
}

TEST(Invariants, WiderCommonChannelNeverHurtsProposed) {
  sim::Scenario narrow = sim::single_fbs_scenario(9);
  narrow.num_gops = 12;
  narrow.common_bandwidth = 0.1;
  narrow.finalize();
  sim::Scenario wide = sim::single_fbs_scenario(9);
  wide.num_gops = 12;
  wide.common_bandwidth = 0.5;
  wide.finalize();
  const auto q_narrow =
      sim::run_experiment(narrow, core::SchemeKind::kProposed, 5);
  const auto q_wide =
      sim::run_experiment(wide, core::SchemeKind::kProposed, 5);
  EXPECT_GE(q_wide.mean_psnr.mean(), q_narrow.mean_psnr.mean() - 0.05);
}

TEST(Invariants, ZeroCollisionBudgetMeansNoCollisions) {
  sim::Scenario s = sim::single_fbs_scenario(9);
  s.num_gops = 12;
  s.spectrum.gamma = 0.0;
  s.finalize();
  const auto res = sim::run_experiment(s, core::SchemeKind::kProposed, 5);
  // gamma = 0 forbids access whenever there is any chance of a primary
  // user — with imperfect sensing the posterior is never exactly 1, so
  // nothing is ever accessed and nothing can collide.
  EXPECT_DOUBLE_EQ(res.collision_rate.mean(), 0.0);
  EXPECT_DOUBLE_EQ(res.avg_available.mean(), 0.0);
}

TEST(Invariants, Fig3ScenarioFiresNoContract) {
  // A small cut of the Fig. 3 single-FBS experiment, run under every
  // scheme. Every FEMTOCR_CHECK_* on the path (solver entry/exit, belief
  // ranges, budget sums) — and, in FEMTOCR_DCHECK builds, every per-slot
  // and per-iteration FEMTOCR_DCHECK_* — must stay silent: a contract
  // firing on the paper's own scenario means either the contract or the
  // solver is wrong. (Contracts report by throwing std::logic_error.)
  for (const auto kind :
       {core::SchemeKind::kProposed, core::SchemeKind::kHeuristic1,
        core::SchemeKind::kHeuristic2}) {
    sim::Scenario s = sim::single_fbs_scenario(/*seed=*/1);
    s.num_gops = 6;
    s.finalize();
    EXPECT_NO_THROW({
      const auto res = sim::run_experiment(s, kind, /*runs=*/2);
      EXPECT_GT(res.mean_psnr.mean(), 0.0);
    }) << "contract fired under scheme "
       << core::scheme_name(kind)
       << (FEMTOCR_DCHECK_IS_ON() ? " (DCHECK contracts active)"
                                  : " (DCHECK contracts compiled out)");
  }
}

TEST(Invariants, PerfectLinksDeliverEverythingUnderProposed) {
  // With loss-free links and plentiful spectrum, every stream should reach
  // (or approach) its cap within the GOP budget available.
  sim::Scenario s = sim::single_fbs_scenario(9);
  s.num_gops = 8;
  s.radio.sinr_threshold = 0.0;  // every slot decodes
  s.spectrum.user_sensor = {0.0, 0.0};
  s.spectrum.fbs_sensor = {0.0, 0.0};
  s.finalize();
  const auto res = sim::run_experiment(s, core::SchemeKind::kProposed, 3);
  // All three users above the single-channel baseline by a wide margin.
  for (const auto& u : res.per_user) {
    EXPECT_GT(u.mean(), 33.0);
  }
}

}  // namespace
}  // namespace femtocr
