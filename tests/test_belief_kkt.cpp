// Tests for Markov belief tracking (spectrum/belief.h) and the KKT
// optimality certifier (core/kkt.h).
#include <gtest/gtest.h>

#include <cmath>

#include "core/kkt.h"
#include "core/waterfill.h"
#include "spectrum/belief.h"
#include "spectrum/spectrum_manager.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace femtocr {
namespace {

// -------------------------------------------------------------- Belief ----

TEST(Belief, StartsAtStationary) {
  spectrum::BeliefTracker t({{0.4, 0.3}, {0.1, 0.9}});
  EXPECT_NEAR(t.belief(0).value(), 1.0 - 0.4 / 0.7, 1e-12);
  EXPECT_NEAR(t.belief(1).value(), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(t.belief(0).value(), t.stationary_idle(0).value());
}

TEST(Belief, StationaryIsAFixedPointOfPrediction) {
  spectrum::BeliefTracker t({{0.4, 0.3}});
  for (int i = 0; i < 50; ++i) t.predict();
  EXPECT_NEAR(t.belief(0).value(), t.stationary_idle(0).value(), 1e-12);
}

TEST(Belief, PredictionAppliesTheTransitionMatrix) {
  spectrum::BeliefTracker t({{0.2, 0.1}});
  const spectrum::SensorModel perfect{0.0, 0.0};
  // A perfect idle report pins the belief at 1.
  t.update(0, {{0, perfect}});
  EXPECT_NEAR(t.belief(0).value(), 1.0, 1e-9);
  // One step: Pr{idle} = 1 * (1 - P01) = 0.8.
  t.predict();
  EXPECT_NEAR(t.belief(0).value(), 0.8, 1e-9);
  // Another: 0.8 * 0.8 + 0.2 * 0.1 = 0.66.
  t.predict();
  EXPECT_NEAR(t.belief(0).value(), 0.66, 1e-9);
}

TEST(Belief, UnsensedChannelRelaxesTowardStationary) {
  spectrum::BeliefTracker t({{0.3, 0.6}});
  const spectrum::SensorModel perfect{0.0, 0.0};
  t.update(0, {{1, perfect}});  // certainly busy
  EXPECT_NEAR(t.belief(0).value(), 0.0, 1e-9);
  for (int i = 0; i < 200; ++i) t.predict();
  EXPECT_NEAR(t.belief(0).value(), t.stationary_idle(0).value(), 1e-9);
}

TEST(Belief, StickyChannelsKeepInformationAcrossSlots) {
  // Low mixing: a busy observation strongly predicts busy next slot, so
  // the tracked prior deviates far from the stationary one.
  spectrum::BeliefTracker t({spectrum::MarkovParams{0.05, 0.05}});
  const spectrum::SensorModel good{0.05, 0.05};
  t.update(0, {{1, good}});
  t.predict();
  EXPECT_LT(t.belief(0).value(), 0.15);              // still almost surely busy
  EXPECT_NEAR(t.stationary_idle(0).value(), 0.5, 1e-12);  // static prior: coin flip
}

TEST(Belief, TrackedPosteriorsAreBetterCalibratedOnStickyChains) {
  // Empirical: with sticky channels, the tracked posterior predicts the
  // true state strictly better (lower Brier score) than stationary-prior
  // fusion.
  util::Rng rng(1501);
  spectrum::SpectrumConfig cfg;
  cfg.num_licensed = 4;
  cfg.occupancy = spectrum::MarkovParams::from_utilization(0.5, 0.2);
  cfg.num_users = 2;
  cfg.num_fbs = 1;

  auto brier = [&](bool track, std::uint64_t seed) {
    util::Rng local(seed);
    spectrum::SpectrumConfig c = cfg;
    c.track_beliefs = track;
    spectrum::SpectrumManager mgr(c, local);
    double score = 0.0;
    const std::size_t slots = 5000;
    for (std::size_t t = 0; t < slots; ++t) {
      const auto obs = mgr.observe_slot(t, local);
      for (std::size_t m = 0; m < 4; ++m) {
        const double truth =
            obs.true_states[m] == spectrum::ChannelState::kIdle ? 1.0 : 0.0;
        const double d = obs.posteriors[m] - truth;
        score += d * d;
      }
    }
    return score / (4.0 * slots);
  };
  EXPECT_LT(brier(true, 99), brier(false, 99) - 0.01);
}

// ----------------------------------------------------------------- KKT ----

TEST(Kkt, CertifiesTheWaterfillOptimum) {
  util::Rng rng(1601);
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 5, 2, 3);
    const std::vector<double> gt(2, f.ctx.total_expected_channels());
    const core::SlotAllocation a =
        core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
    const core::KktReport r = core::check_kkt(f.ctx, gt, a);
    EXPECT_TRUE(r.optimal(1e-4))
        << "trial " << trial << ": stationarity " << r.stationarity_residual
        << " exclusion " << r.exclusion_residual << " budget "
        << r.budget_violation << " regret " << r.assignment_regret;
  }
}

TEST(Kkt, FlagsAPerturbedAllocation) {
  util::Rng rng(1607);
  auto f = test::random_context(rng, 4, 1, 3);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  core::SlotAllocation a =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
  // Steal half of the largest positive share on whichever side holds it:
  // the resource's water levels now disagree.
  std::size_t victim = 0;
  bool victim_mbs = false;
  double largest = 0.0;
  for (std::size_t j = 0; j < 4; ++j) {
    if (a.rho_mbs[j] > largest) {
      largest = a.rho_mbs[j];
      victim = j;
      victim_mbs = true;
    }
    if (a.rho_fbs[j] > largest) {
      largest = a.rho_fbs[j];
      victim = j;
      victim_mbs = false;
    }
  }
  ASSERT_GT(largest, 0.1);
  (victim_mbs ? a.rho_mbs[victim] : a.rho_fbs[victim]) *= 0.5;
  const core::KktReport r = core::check_kkt(f.ctx, gt, a);
  EXPECT_FALSE(r.optimal(1e-4));
  // Either the water levels disagree (multi-member resource) or the
  // budget went slack while the victim could still grow (single-member).
  EXPECT_GT(std::max(r.stationarity_residual, r.slack_residual), 1e-3);
}

TEST(Kkt, FlagsABadAssignment) {
  util::Rng rng(1613);
  auto f = test::random_context(rng, 4, 1, 3);
  // Make the MBS clearly valuable for everyone, then force everyone off it.
  for (auto& u : f.ctx.users) {
    u.success_mbs = 0.95;
    u.success_fbs = 0.3;
  }
  const std::vector<double> gt = {0.2};  // licensed side nearly worthless
  std::vector<bool> all_fbs(4, false);
  const core::SlotAllocation forced =
      core::waterfill_evaluate(f.ctx, test::cache_for(f.ctx), gt, all_fbs);
  const core::KktReport r = core::check_kkt(f.ctx, gt, forced);
  EXPECT_GT(r.assignment_regret, 1e-3);
}

TEST(Kkt, FlagsBudgetViolations) {
  util::Rng rng(1619);
  auto f = test::random_context(rng, 3, 1, 2);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  core::SlotAllocation a =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
  for (std::size_t j = 0; j < 3; ++j) a.rho_fbs[j] += 0.5;
  const core::KktReport r = core::check_kkt(f.ctx, gt, a);
  EXPECT_GT(r.budget_violation, 0.4);
}

TEST(Kkt, ShapeChecks) {
  util::Rng rng(1621);
  auto f = test::random_context(rng, 3, 1, 2);
  core::SlotAllocation a;  // wrong shapes
  EXPECT_THROW(core::check_kkt(f.ctx, {1.0}, a), std::logic_error);
  EXPECT_THROW(core::check_kkt(f.ctx, {1.0, 2.0},
                               core::SlotAllocation::zeros(f.ctx)),
               std::logic_error);
}

}  // namespace
}  // namespace femtocr
