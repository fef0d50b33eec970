// Property-based suites (parameterized over seeds): the paper's structural
// results — Theorem 1's binary assignment, Lemma 1's concavity, Lemma 4's
// interference feasibility, Theorem 2's bound — checked on randomized
// instances, plus Bayes-consistency of sensing fusion and the collision
// constraint, across the whole seed sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/dual_solver.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/kkt.h"
#include "core/objective.h"
#include "core/scheme.h"
#include "core/waterfill.h"
#include "spectrum/access.h"
#include "spectrum/sensing.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/stats.h"

namespace femtocr {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// Random interference graph on 3-4 vertices with random edges.
test::ContextFixture random_interfering_context(util::Rng& rng) {
  const std::size_t num_fbs = 3 + rng.index(2);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t a = 0; a < num_fbs; ++a) {
    for (std::size_t b = a + 1; b < num_fbs; ++b) {
      if (rng.bernoulli(0.4)) edges.emplace_back(a, b);
    }
  }
  const std::size_t num_users = num_fbs * 2;
  const std::size_t num_channels = 2 + rng.index(2);
  return test::random_context(rng, num_users, num_fbs, num_channels, edges);
}

TEST_P(SeededProperty, Theorem1BinaryAssignment) {
  util::Rng rng(GetParam() * 7919);
  auto f = test::random_context(rng, 5, 2, 3);
  const std::vector<double> gt(2, f.ctx.total_expected_channels());
  const core::SlotAllocation a =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
  for (std::size_t j = 0; j < f.ctx.users.size(); ++j) {
    // p*q = 0: a user never splits a slot across both base stations.
    EXPECT_DOUBLE_EQ(a.rho_mbs[j] * a.rho_fbs[j], 0.0);
  }
}

TEST_P(SeededProperty, Lemma1ConcavityInShares) {
  // For a fixed assignment the objective is concave in (rho_mbs, rho_fbs):
  // value at the midpoint of two random feasible points dominates the
  // average of the endpoint values.
  util::Rng rng(GetParam() * 104729);
  auto f = test::random_context(rng, 4, 1, 3);
  const double g = f.ctx.total_expected_channels();
  auto random_alloc = [&] {
    core::SlotAllocation a = core::SlotAllocation::zeros(f.ctx);
    a.expected_channels = {g};
    double budget_mbs = 1.0, budget_fbs = 1.0;
    for (std::size_t j = 0; j < 4; ++j) {
      a.use_mbs[j] = j < 2;  // fixed assignment across both endpoints
      if (a.use_mbs[j]) {
        a.rho_mbs[j] = rng.uniform(0.0, budget_mbs);
        budget_mbs -= a.rho_mbs[j];
      } else {
        a.rho_fbs[j] = rng.uniform(0.0, budget_fbs);
        budget_fbs -= a.rho_fbs[j];
      }
    }
    return a;
  };
  const core::SlotAllocation x = random_alloc();
  const core::SlotAllocation y = random_alloc();
  core::SlotAllocation mid = x;
  for (std::size_t j = 0; j < 4; ++j) {
    mid.rho_mbs[j] = 0.5 * (x.rho_mbs[j] + y.rho_mbs[j]);
    mid.rho_fbs[j] = 0.5 * (x.rho_fbs[j] + y.rho_fbs[j]);
  }
  const double vx = core::slot_objective(f.ctx, x);
  const double vy = core::slot_objective(f.ctx, y);
  const double vm = core::slot_objective(f.ctx, mid);
  EXPECT_GE(vm, 0.5 * (vx + vy) - 1e-9);
}

TEST_P(SeededProperty, Lemma4InterferenceFeasibility) {
  util::Rng rng(GetParam() * 1299709);
  auto f = random_interfering_context(rng);
  const core::GreedyResult r =
      core::greedy_allocate(f.ctx, test::cache_for(f.ctx));
  EXPECT_TRUE(r.allocation.feasible(f.ctx));
  for (std::size_t i = 0; i < f.ctx.num_fbs; ++i) {
    for (std::size_t n : f.ctx.graph->neighbors(i)) {
      for (std::size_t m : r.allocation.channels[i]) {
        for (std::size_t m2 : r.allocation.channels[n]) {
          ASSERT_NE(m, m2) << "FBS " << i << " and " << n
                           << " share channel " << m;
        }
      }
    }
  }
}

TEST_P(SeededProperty, Theorem2BoundOnRandomGraphs) {
  util::Rng rng(GetParam() * 15485863);
  auto f = random_interfering_context(rng);
  if (f.ctx.available.size() > 3 && f.ctx.num_fbs > 3) return;  // keep exact cheap
  const core::GreedyResult g =
      core::greedy_allocate(f.ctx, test::cache_for(f.ctx));
  const core::ExactResult e = core::exact_allocate(f.ctx);
  const double greedy_gain = g.allocation.objective - g.q_empty;
  const double optimal_gain = e.allocation.objective - g.q_empty;
  const double dmax = static_cast<double>(f.ctx.graph->max_degree());
  // Theorem 2 (incremental form) and Eq. 23 dominance.
  EXPECT_GE(greedy_gain + 1e-6, optimal_gain / (1.0 + dmax));
  EXPECT_GE(g.bound_tight + 1e-6, e.allocation.objective);
  EXPECT_LE(g.bound_tight, g.bound_dmax + 1e-9);
}

TEST_P(SeededProperty, GreedyNeverBeatsExact) {
  util::Rng rng(GetParam() * 32452843);
  auto f = random_interfering_context(rng);
  if (f.ctx.available.size() > 3 && f.ctx.num_fbs > 3) return;
  const core::GreedyResult g =
      core::greedy_allocate(f.ctx, test::cache_for(f.ctx));
  const core::ExactResult e = core::exact_allocate(f.ctx);
  EXPECT_LE(g.allocation.objective, e.allocation.objective + 1e-6);
}

TEST_P(SeededProperty, SensingFusionOrderInvariant) {
  // Eq. (2) is a product of likelihood ratios: fusing reports in any order
  // gives the same posterior.
  util::Rng rng(GetParam() * 49979687);
  const double eta = rng.uniform(0.2, 0.8);
  std::vector<spectrum::SensingReport> reports;
  const std::size_t n = 2 + rng.index(5);
  for (std::size_t i = 0; i < n; ++i) {
    spectrum::SensorModel s{rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)};
    reports.push_back({rng.bernoulli(0.5) ? 1 : 0, s});
  }
  const double forward =
      spectrum::posterior_idle(util::Prob{eta}, reports).value();
  std::vector<spectrum::SensingReport> reversed(reports.rbegin(),
                                                reports.rend());
  EXPECT_NEAR(forward,
              spectrum::posterior_idle(util::Prob{eta}, reversed).value(),
              1e-12);
  // And the iterative recursion agrees with the batch form.
  double iterative = 1.0 - eta;
  for (const auto& r : reports) {
    iterative =
        spectrum::posterior_idle_update(util::Prob{iterative}, r).value();
  }
  EXPECT_NEAR(forward, iterative, 1e-12);
}

TEST_P(SeededProperty, CollisionConstraintEq6) {
  util::Rng rng(GetParam() * 67867967);
  for (int i = 0; i < 100; ++i) {
    const double pa = rng.uniform();
    const double gamma = rng.uniform();
    const double pd =
        spectrum::access_probability(util::Prob{pa}, util::Prob{gamma})
            .value();
    EXPECT_LE((1.0 - pa) * pd, gamma + 1e-12);
    EXPECT_GE(pd, 0.0);
    EXPECT_LE(pd, 1.0);
  }
}

TEST_P(SeededProperty, SchemesAlwaysFeasibleOnRandomInstances) {
  // Heuristic 1 is checked for slot-budget feasibility only: its
  // uncoordinated access violates the interference constraint by design on
  // interfering topologies.
  util::Rng rng(GetParam() * 86028121);
  auto f = random_interfering_context(rng);
  for (auto kind : {core::SchemeKind::kProposed, core::SchemeKind::kHeuristic1,
                    core::SchemeKind::kHeuristic2}) {
    auto scheme = core::make_scheme(kind);
    const core::SlotAllocation a = scheme->allocate(f.ctx);
    if (kind != core::SchemeKind::kHeuristic1 ||
        f.ctx.graph->num_edges() == 0) {
      EXPECT_TRUE(a.feasible(f.ctx)) << scheme->name();
    } else {
      double sum_mbs = 0.0;
      std::vector<double> sum_fbs(f.ctx.num_fbs, 0.0);
      for (std::size_t j = 0; j < f.ctx.users.size(); ++j) {
        sum_mbs += a.rho_mbs[j];
        sum_fbs[f.ctx.users[j].fbs] += a.rho_fbs[j];
      }
      EXPECT_LE(sum_mbs, 1.0 + 1e-9);
      for (double s : sum_fbs) EXPECT_LE(s, 1.0 + 1e-9);
    }
    EXPECT_GE(a.objective, 0.0);
  }
}

TEST_P(SeededProperty, WaterfillSatisfiesKkt) {
  // Full first-order certification of the production solver on random
  // instances: equalized water levels, no profitable exclusion, bound
  // budgets, no unspent-but-wanted capacity, no profitable flip.
  util::Rng rng(GetParam() * 179424673);
  const std::size_t num_users = 3 + rng.index(4);
  const std::size_t num_fbs = 1 + rng.index(2);
  auto f = test::random_context(rng, num_users, num_fbs, 3);
  std::vector<double> gt;
  for (std::size_t i = 0; i < num_fbs; ++i) gt.push_back(rng.uniform(0.3, 3.0));
  const core::SlotAllocation a =
      core::waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
  const core::KktReport r = core::check_kkt(f.ctx, gt, a);
  EXPECT_TRUE(r.optimal(1e-4))
      << "stationarity " << r.stationarity_residual << " exclusion "
      << r.exclusion_residual << " budget " << r.budget_violation
      << " slack " << r.slack_residual << " regret " << r.assignment_regret;
}

TEST_P(SeededProperty, SensingPosteriorIsCalibrated) {
  // For random (eta, eps, delta), E[posterior] over sensing randomness
  // must equal the true idle probability (law of total expectation) — the
  // Bayes-consistency that makes expected-G_t accounting unbiased (A2).
  util::Rng rng(GetParam() * 198491317);
  const double eta = rng.uniform(0.2, 0.8);
  const spectrum::SensorModel sensor{rng.uniform(0.05, 0.45),
                                     rng.uniform(0.05, 0.45)};
  util::RunningStat posterior;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const bool busy = rng.bernoulli(eta);
    const std::vector<int> thetas = {sensor.sense(busy, rng),
                                     sensor.sense(busy, rng)};
    posterior.add(
        spectrum::posterior_idle(util::Prob{eta}, sensor, thetas).value());
  }
  EXPECT_NEAR(posterior.mean(), 1.0 - eta, 0.02);
}

TEST_P(SeededProperty, MoreChannelsNeverHurt) {
  // Monotonicity behind Fig. 4(b): adding an available channel (weakly)
  // increases the optimal objective in the non-interfering case.
  util::Rng rng(GetParam() * 122949829);
  auto f = test::random_context(rng, 4, 1, 4);
  double prev = -1e300;
  for (std::size_t used = 0; used <= 4; ++used) {
    double g = 0.0;
    for (std::size_t a = 0; a < used; ++a) g += f.ctx.posterior[a];
    const double q =
        core::waterfill_solve(f.ctx, test::cache_for(f.ctx), {g}).objective;
    EXPECT_GE(q, prev - 1e-9);
    prev = q;
  }
}

// Wider 50-seed sweeps for the scale-out PR: the dual decomposition's
// recovered primal against the brute-force assignment optimum, and the
// Theorem-2 / Eq.-23 greedy guarantees on random interference graphs.
class WideSeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, WideSeededProperty,
                         ::testing::Range<std::uint64_t>(1, 51));

TEST_P(WideSeededProperty, DualRecoveredPrimalNearExhaustiveOptimum) {
  // Problem (12) for a fixed expected channel count: solve_dual's recovered
  // primal must (a) never beat the enumerated optimum (waterfill over all
  // 2^K assignments) and (b) land within a small duality/step-size gap of
  // it. Empirically the worst relative gap over this sweep is ~2e-3; the 1%
  // tolerance leaves ~5x margin without masking real regressions.
  util::Rng rng(GetParam() * 86028121ull);
  const std::size_t users = 4 + rng.index(5);
  const std::size_t fbs = 1 + rng.index(3);
  const std::size_t channels = 2 + rng.index(3);
  auto f = test::random_context(rng, users, fbs, channels);
  const std::vector<double> gt(fbs, f.ctx.total_expected_channels());
  const core::DualResult d =
      core::solve_dual(f.ctx, test::cache_for(f.ctx), gt, core::DualOptions{});
  const core::SlotAllocation e =
      core::waterfill_solve_exhaustive(f.ctx, test::cache_for(f.ctx), gt);
  EXPECT_TRUE(d.allocation.feasible(f.ctx));
  EXPECT_LE(d.allocation.objective, e.objective + 1e-9);
  const double slack = 0.01 * std::max(1.0, std::abs(e.objective));
  EXPECT_GE(d.allocation.objective + slack, e.objective);
}

TEST_P(WideSeededProperty, GreedyBoundsHoldOnRandomGraphs) {
  // Theorem 2's 1/(1+Dmax) guarantee and the tighter Eq. (23) bound,
  // re-checked across a wider seed range than the tier-1 sweep (the
  // instance distribution keeps exact_allocate cheap: <= 4 FBSs,
  // <= 3 channels).
  util::Rng rng(GetParam() * 275604541ull);
  auto f = random_interfering_context(rng);
  const core::GreedyResult g =
      core::greedy_allocate(f.ctx, test::cache_for(f.ctx));
  const core::ExactResult e = core::exact_allocate(f.ctx);
  const double greedy_gain = g.allocation.objective - g.q_empty;
  const double optimal_gain = e.allocation.objective - g.q_empty;
  const double dmax = static_cast<double>(f.ctx.graph->max_degree());
  EXPECT_GE(greedy_gain + 1e-6, optimal_gain / (1.0 + dmax));
  EXPECT_GE(g.bound_tight + 1e-6, e.allocation.objective);
  EXPECT_LE(g.bound_tight, g.bound_dmax + 1e-9);
  EXPECT_LE(g.allocation.objective, e.allocation.objective + 1e-6);
}

}  // namespace
}  // namespace femtocr
