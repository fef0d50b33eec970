// Tests for the distributed subgradient solver (Tables I & II): convergence
// to the water-filling optimum, the recorded price trace, warm starting,
// feasibility of the recovered primal, and Theorem 1's binary assignment.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/dual_solver.h"
#include "core/waterfill.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

DualOptions tuned() {
  DualOptions o;
  o.step_size = 2e-4;
  o.initial_lambda = 0.05;
  o.tolerance = 1e-8;  // just above the kink-oscillation floor
  o.max_iterations = 200000;
  return o;
}

TEST(DualSolver, ConvergesToWaterfillOptimumSingleFbs) {
  util::Rng rng(501);
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 3, 1, 3);
    const std::vector<double> gt = {f.ctx.total_expected_channels()};
    const DualResult d = solve_dual(f.ctx, test::cache_for(f.ctx), gt, tuned());
    const SlotAllocation w = waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
    EXPECT_TRUE(d.converged) << "trial " << trial;
    // The subgradient's fixed step leaves a small primal gap; the two
    // solvers must agree to within a fraction of a percent of objective.
    EXPECT_NEAR(d.allocation.objective, w.objective,
                5e-3 * std::abs(w.objective))
        << "trial " << trial;
  }
}

TEST(DualSolver, ConvergesMultiFbsNonInterfering) {
  util::Rng rng(503);
  for (int trial = 0; trial < 6; ++trial) {
    auto f = test::random_context(rng, 6, 3, 4);
    const std::vector<double> gt(3, f.ctx.total_expected_channels());
    const DualResult d = solve_dual(f.ctx, test::cache_for(f.ctx), gt, tuned());
    const SlotAllocation w = waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
    EXPECT_TRUE(d.converged);
    EXPECT_NEAR(d.allocation.objective, w.objective,
                5e-3 * std::abs(w.objective));
  }
}

TEST(DualSolver, PrimalIsAlwaysFeasible) {
  util::Rng rng(509);
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 5, 2, 3);
    const std::vector<double> gt(2, f.ctx.total_expected_channels());
    DualOptions o = tuned();
    o.max_iterations = 50;  // even far from convergence
    const DualResult d = solve_dual(f.ctx, test::cache_for(f.ctx), gt, o);
    EXPECT_TRUE(d.allocation.feasible(f.ctx));
  }
}

TEST(DualSolver, Theorem1BinaryAssignment) {
  // In the recovered primal every user is on exactly one base station
  // (use_mbs with zero rho_fbs or vice versa) — Theorem 1.
  util::Rng rng(521);
  auto f = test::random_context(rng, 6, 2, 3);
  const std::vector<double> gt(2, f.ctx.total_expected_channels());
  const DualResult d = solve_dual(f.ctx, test::cache_for(f.ctx), gt, tuned());
  for (std::size_t j = 0; j < 6; ++j) {
    if (d.allocation.use_mbs[j]) {
      EXPECT_DOUBLE_EQ(d.allocation.rho_fbs[j], 0.0);
    } else {
      EXPECT_DOUBLE_EQ(d.allocation.rho_mbs[j], 0.0);
    }
  }
}

TEST(DualSolver, TraceIsRecordedAndSettles) {
  util::Rng rng(523);
  auto f = test::random_context(rng, 3, 1, 3);
  DualOptions o = tuned();
  o.record_trace = true;
  const DualResult d =
      solve_dual(f.ctx, test::cache_for(f.ctx),
                 {f.ctx.total_expected_channels()}, o);
  ASSERT_EQ(d.trace.size(), d.iterations + 1);  // initial point included
  ASSERT_EQ(d.trace.front().size(), 2u);        // lambda_0, lambda_1
  // Later iterates move less than early ones (convergent trace).
  const auto movement = [&](std::size_t t) {
    double s = 0.0;
    for (std::size_t i = 0; i < d.trace[t].size(); ++i) {
      const double diff = d.trace[t + 1][i] - d.trace[t][i];
      s += diff * diff;
    }
    return s;
  };
  EXPECT_LT(movement(d.iterations - 1), movement(0) + 1e-15);
}

TEST(DualSolver, WarmStartCutsIterations) {
  util::Rng rng(541);
  auto f = test::random_context(rng, 4, 1, 3);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  const DualResult cold =
      solve_dual(f.ctx, test::cache_for(f.ctx), gt, tuned());
  DualOptions warm = tuned();
  warm.warm_start = cold.lambda;
  const DualResult hot = solve_dual(f.ctx, test::cache_for(f.ctx), gt, warm);
  EXPECT_TRUE(hot.converged);
  EXPECT_LT(hot.iterations, cold.iterations / 2);
  // Both stop inside the oscillation floor around the optimum; their
  // recovered primals agree to the solver's documented precision (the same
  // 5e-3 relative band the waterfill-agreement tests use).
  EXPECT_NEAR(hot.allocation.objective, cold.allocation.objective,
              5e-3 * std::abs(cold.allocation.objective));
}

TEST(DualSolver, RejectsBadOptions) {
  util::Rng rng(547);
  auto f = test::random_context(rng, 2, 1, 2);
  const std::vector<double> gt = {1.0};
  DualOptions o;
  o.step_size = 0.0;
  EXPECT_THROW(solve_dual(f.ctx, test::cache_for(f.ctx), gt, o),
               std::logic_error);
  DualOptions bad_warm = tuned();
  bad_warm.warm_start = std::vector<double>{1.0, 2.0, 3.0};  // wrong size
  EXPECT_THROW(solve_dual(f.ctx, test::cache_for(f.ctx), gt, bad_warm),
               std::logic_error);
  EXPECT_THROW(solve_dual(f.ctx, test::cache_for(f.ctx), {1.0, 2.0}, tuned()),
               std::logic_error);
}

TEST(DualSolver, OversizedStepDoesNotConverge) {
  // Regression guard for the classic failure mode: a step comparable to the
  // optimal prices orbits instead of settling. The solver must report
  // non-convergence rather than silently returning garbage as converged.
  util::Rng rng(557);
  auto f = test::random_context(rng, 3, 1, 3);
  DualOptions o = tuned();
  o.step_size = 0.05;  // ~2x the optimal price scale
  o.max_iterations = 5000;
  const DualResult d =
      solve_dual(f.ctx, test::cache_for(f.ctx),
                 {f.ctx.total_expected_channels()}, o);
  EXPECT_FALSE(d.converged);
  EXPECT_NE(d.recovery, DualRecovery::kConverged);
  EXPECT_TRUE(d.allocation.feasible(f.ctx));  // primal still projected
}

TEST(DualSolver, BestIterateRecoveryBeatsLastIterate) {
  // The headline fix: on a non-converging orbit the final prices can be a
  // strictly worse primal point than one visited earlier. Best-iterate
  // tracking must never lose to last-iterate recovery, and must win
  // strictly on at least one crafted instance.
  util::Rng rng(563);
  int strict_wins = 0;
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 4, 1, 3);
    const std::vector<double> gt = {f.ctx.total_expected_channels()};
    DualOptions base = tuned();
    // A step ~50x the optimal price scale slams the prices between "free"
    // (everyone grabs the cap) and "priced out" (everyone at zero): a
    // short-period orbit whose phases recover very different primals. The
    // odd stride samples both phases regardless of the orbit's (even)
    // period, so the tracker sees the good phase even when the iteration
    // budget happens to end on the bad one.
    base.step_size = 1.0;
    base.max_iterations = 1000 + 7 * trial;  // vary the terminal phase
    base.best_iterate_stride = 7;

    DualOptions last_only = base;
    last_only.track_best_iterate = false;
    const DualResult last =
        solve_dual(f.ctx, test::cache_for(f.ctx), gt, last_only);

    DualOptions tracked = base;
    tracked.track_best_iterate = true;
    const DualResult best =
        solve_dual(f.ctx, test::cache_for(f.ctx), gt, tracked);

    ASSERT_FALSE(last.converged) << "trial " << trial;
    ASSERT_FALSE(best.converged) << "trial " << trial;
    EXPECT_EQ(last.recovery, DualRecovery::kLastIterate);
    EXPECT_TRUE(best.allocation.feasible(f.ctx));
    EXPECT_GE(best.allocation.objective, last.allocation.objective)
        << "trial " << trial;
    if (best.allocation.objective > last.allocation.objective) {
      ++strict_wins;
      EXPECT_EQ(best.recovery, DualRecovery::kBestIterate);
    }
  }
  EXPECT_GE(strict_wins, 1) << "tracking never beat last-iterate recovery";
}

TEST(DualSolver, TrackingIsInvisibleOnConvergedSolves) {
  // A converging solve must be bit-identical with tracking on or off — the
  // periodic scoring runs after the convergence check and touches nothing
  // the update sequence reads.
  util::Rng rng(569);
  auto f = test::random_context(rng, 4, 2, 3);
  const std::vector<double> gt(2, f.ctx.total_expected_channels());
  DualOptions on = tuned();
  on.track_best_iterate = true;
  on.best_iterate_stride = 8;
  DualOptions off = tuned();
  off.track_best_iterate = false;
  const DualResult a = solve_dual(f.ctx, test::cache_for(f.ctx), gt, on);
  const DualResult b = solve_dual(f.ctx, test::cache_for(f.ctx), gt, off);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_EQ(a.recovery, DualRecovery::kConverged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.allocation.objective, b.allocation.objective);  // bitwise
  ASSERT_EQ(a.lambda.size(), b.lambda.size());
  for (std::size_t i = 0; i < a.lambda.size(); ++i) {
    EXPECT_EQ(a.lambda[i], b.lambda[i]);
  }
}

TEST(DualSolver, TinyIterationBudgetDegradesGracefully) {
  // Regression for the non-convergence exit contract: a squeezed budget
  // must surface as a non-converged solve with a feasible, finite
  // recovery — not as a contract abort about unconverged multipliers.
  util::Rng rng(571);
  auto f = test::random_context(rng, 5, 2, 3);
  const std::vector<double> gt(2, f.ctx.total_expected_channels());
  DualOptions o = tuned();
  o.max_iterations = 2;
  DualResult d;
  ASSERT_NO_THROW(d = solve_dual(f.ctx, test::cache_for(f.ctx), gt, o));
  EXPECT_FALSE(d.converged);
  EXPECT_NE(d.recovery, DualRecovery::kConverged);
  EXPECT_TRUE(d.allocation.feasible(f.ctx));
  EXPECT_TRUE(std::isfinite(d.allocation.objective));
  EXPECT_LE(d.iterations, 2u);
}

TEST(DualSolver, RetryBackoffRescuesOversizedStep) {
  // An orbiting step rescued by backoff: each retry continues from the
  // current prices with the step shrunk 10x, so by the second or third
  // attempt the step is at the tuned scale and the solve settles.
  util::Rng rng(577);
  auto f = test::random_context(rng, 3, 1, 3);
  DualOptions o = tuned();
  o.step_size = 0.05;
  o.max_iterations = 20000;
  o.max_retries = 3;
  o.retry_backoff = 0.1;
  const DualResult d =
      solve_dual(f.ctx, test::cache_for(f.ctx),
                 {f.ctx.total_expected_channels()}, o);
  EXPECT_TRUE(d.converged);
  EXPECT_GE(d.retries, 1u);
  EXPECT_EQ(d.recovery, DualRecovery::kConverged);
}

TEST(DualSolver, FallbackChainReachesGreedy) {
  // Absurd initial prices + a one-iteration budget leave the dual recovery
  // with zero shares; the greedy slope-proportional rung must take over.
  // Users are shaped so proportional weighting strictly beats equal shares
  // (A's log term is far from saturating), keeping the chain at kGreedy.
  util::Rng rng(587);
  auto f = test::random_context(rng, 2, 1, 2);
  f.ctx.users[0].psnr = 1.0;
  f.ctx.users[0].rate_mbs = 10.0;
  f.ctx.users[0].success_mbs = 1.0;
  f.ctx.users[0].success_fbs = 0.0;  // MBS-only
  f.ctx.users[1].psnr = 10.0;
  f.ctx.users[1].rate_mbs = 1.0;
  f.ctx.users[1].success_mbs = 1.0;
  f.ctx.users[1].success_fbs = 0.0;
  DualOptions o = tuned();
  o.initial_lambda = 1e5;  // every best response clamps to zero
  o.max_iterations = 1;
  o.tolerance = 1e-12;
  o.allow_fallback = true;
  const DualResult d = solve_dual(f.ctx, test::cache_for(f.ctx), {0.0}, o);
  EXPECT_FALSE(d.converged);
  EXPECT_EQ(d.recovery, DualRecovery::kGreedy);
  EXPECT_TRUE(d.allocation.feasible(f.ctx));
  // The slope-heavy user holds nearly the whole slot.
  EXPECT_GT(d.allocation.rho_mbs[0], 0.9);
}

TEST(DualSolver, FallbackChainFallsThroughToEqual) {
  // Crafted saturating instance: user A's enormous rate saturates its log
  // term, so greedy's slope-proportional split (everything to A) loses to
  // the equal split that keeps user B alive — the chain's last rung.
  util::Rng rng(593);
  auto f = test::random_context(rng, 2, 1, 2);
  f.ctx.users[0].psnr = 1e-3;
  f.ctx.users[0].rate_mbs = 1000.0;  // slope 1e6, log saturates instantly
  f.ctx.users[0].success_mbs = 1.0;
  f.ctx.users[0].success_fbs = 0.0;
  f.ctx.users[1].psnr = 1.0;
  f.ctx.users[1].rate_mbs = 10.0;  // slope 10: starved by greedy
  f.ctx.users[1].success_mbs = 1.0;
  f.ctx.users[1].success_fbs = 0.0;
  DualOptions o = tuned();
  o.initial_lambda = 1e5;
  o.max_iterations = 1;
  o.tolerance = 1e-12;
  o.allow_fallback = true;
  const DualResult d = solve_dual(f.ctx, test::cache_for(f.ctx), {0.0}, o);
  EXPECT_FALSE(d.converged);
  EXPECT_EQ(d.recovery, DualRecovery::kEqual);
  EXPECT_TRUE(d.allocation.feasible(f.ctx));
  EXPECT_NEAR(d.allocation.rho_mbs[0], 0.5, 1e-9);
  EXPECT_NEAR(d.allocation.rho_mbs[1], 0.5, 1e-9);
}

TEST(DualSolver, RejectsBadRetryBackoff) {
  util::Rng rng(599);
  auto f = test::random_context(rng, 2, 1, 2);
  DualOptions o = tuned();
  o.max_retries = 2;
  o.retry_backoff = 0.0;
  EXPECT_THROW(solve_dual(f.ctx, test::cache_for(f.ctx), {1.0}, o),
               std::logic_error);
  o.retry_backoff = 1.5;
  EXPECT_THROW(solve_dual(f.ctx, test::cache_for(f.ctx), {1.0}, o),
               std::logic_error);
}

TEST(DualSolver, BareSolveCountsNoWarmStart) {
  // The warm-start hit rate is counted where ProposedScheme's carry is
  // consumed (solve_component), so a bare solve counts neither a hit nor a
  // miss, seeded or not.
  util::Rng rng(601);
  auto f = test::random_context(rng, 3, 1, 3);
  const std::vector<double> gt = {f.ctx.total_expected_channels()};
  util::Counter& hits =
      util::metrics().counter("core.dual.warm_start.hits");
  util::Counter& misses =
      util::metrics().counter("core.dual.warm_start.misses");

  const std::uint64_t h0 = hits.total();
  const std::uint64_t m0 = misses.total();
  const DualResult cold =
      solve_dual(f.ctx, test::cache_for(f.ctx), gt, tuned());
  DualOptions seeded = tuned();
  seeded.warm_start = cold.lambda;
  (void)solve_dual(f.ctx, test::cache_for(f.ctx), gt, seeded);
  EXPECT_EQ(hits.total(), h0);
  EXPECT_EQ(misses.total(), m0);
}

TEST(DualSolver, WarmChainStaysWithinPropertyBound) {
  // A warm-started chain over slowly drifting instances must satisfy the
  // same optimality band as cold solves: within 1% of the 2^K-exhaustive
  // optimum and never above it — a poisoned or stale-but-accepted seed
  // would break the lower edge, an infeasible recovery the upper one.
  util::Rng rng(607);
  auto f = test::random_context(rng, 6, 1, 3);
  DualOptions cold_opts = tuned();
  DualOptions warm_opts = tuned();
  std::vector<double> warm;
  for (int slot = 0; slot < 5; ++slot) {
    if (slot > 0) {
      for (UserState& u : f.ctx.users) {  // a few percent of per-slot drift
        u.success_mbs = std::min(0.99, u.success_mbs * rng.uniform(0.98, 1.02));
        u.success_fbs = std::min(0.99, u.success_fbs * rng.uniform(0.98, 1.02));
        u.rate_mbs = u.rate_mbs * rng.uniform(0.98, 1.02);
        u.rate_fbs = u.rate_fbs * rng.uniform(0.98, 1.02);
      }
    }
    const std::vector<double> gt = {f.ctx.total_expected_channels()};
    if (warm.size() == f.ctx.num_fbs + 1) {
      warm_opts.warm_start = warm;
    } else {
      warm_opts.warm_start.reset();
    }
    const DualResult hot =
        solve_dual(f.ctx, test::cache_for(f.ctx), gt, warm_opts);
    const DualResult cold =
        solve_dual(f.ctx, test::cache_for(f.ctx), gt, cold_opts);
    const SlotAllocation e =
        waterfill_solve_exhaustive(f.ctx, test::cache_for(f.ctx), gt);
    ASSERT_TRUE(hot.converged) << "slot " << slot;
    warm = hot.lambda;
    for (const DualResult* d : {&hot, &cold}) {
      EXPECT_LE(d->allocation.objective, e.objective + 1e-6)
          << "slot " << slot;
      EXPECT_GE(d->allocation.objective, 0.99 * e.objective) << "slot " << slot;
    }
  }
}

}  // namespace
}  // namespace femtocr::core
