// femtocr:inner-loop-tu — the subgradient loop below runs up to 1e5
// iterations per slot; no allocation or per-call contract checks inside it
// (see docs/DEVELOPING.md, "Performance model & scratch-arena rules").
#include "core/dual_solver.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "util/check.h"
#include "util/mathx.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

namespace {

/// One user's Table I steps 3-8 against the per-solve tables, writing the
/// branch choice into the SoA output buffers. Bitwise identical to
/// solve_user(): every cached operand is the exact value the inline
/// expressions produced (see core/slot_cache.h), and each shortcut only
/// fires where its substitution is exact:
///
///   * rho == 0: the log argument is W + 0*R == W and the price term is
///     lambda * 0.0 == +0.0 (x - 0.0 == x), so value == val0 table.
///   * rho == kRhoCap: the argument is W + 1*R == W + R and the price
///     term is lambda * 1.0 == lambda, so value == cap table - lambda.
///   * The division itself is screened by guarded multiplies: the branch
///     clamps at 0 iff fl(S/lambda) <= pr (monotone rounding preserves
///     the sign of a difference of doubles), which S < lambda * lo with
///     lo = pr * (1 - 1e-12) implies with > 500 ulps to spare; likewise
///     S > lambda * hi with hi = (pr + kRhoCap) * (1 + 1e-12) forces the
///     cap. Borderline cases inside the guard band fall through to the
///     exact division path, so every rho is the one solve_user computes.
struct ShareAdd {
  double mbs;  ///< the user's contribution to the MBS share sum
  double fbs;  ///< the user's contribution to the home-FBS share sum
};

template <bool Store>
inline ShareAdd solve_user_cached(const SlotCache& cache, DualScratch& ds,
                                  std::size_t j, double lambda_mbs,
                                  double lambda_fbs) {
  double rho0 = 0.0;
  double value_mbs = ds.val0_mbs[j];
  if (cache.can_mbs[j]) {
    if (lambda_mbs <= 0.0) [[unlikely]] {
      rho0 = kRhoCap;
      value_mbs = ds.cap_mbs[j] - lambda_mbs;
    } else {
      const double s = ds.s_mbs[j];
      // At the slot budget's price level the MBS branch is clamped at 0
      // for nearly every user (one licensed slot across all of them), so
      // the zero screen is the fall-through path.
      if (s < lambda_mbs * ds.lo_mbs[j]) [[likely]] {
        // rho0 == 0; val0 table already loaded.
      } else if (s > lambda_mbs * ds.hi_mbs[j]) {
        rho0 = kRhoCap;
        value_mbs = ds.cap_mbs[j] - lambda_mbs;
      } else {
        rho0 = util::clamp(s / lambda_mbs - cache.pr_mbs[j], 0.0, kRhoCap);
        if (rho0 >= kRhoCap) {
          value_mbs = ds.cap_mbs[j] - lambda_mbs;
        } else if (rho0 > 0.0) {
          value_mbs = s * std::log(ds.psnr[j] + rho0 * ds.rate_mbs[j]) +
                      cache.loss_mbs[j] - lambda_mbs * rho0;
        }
      }
    }
  }
  double rho1 = 0.0;
  double value_fbs = ds.val0_fbs[j];
  if (ds.can_fbs[j]) {
    if (lambda_fbs <= 0.0) [[unlikely]] {
      rho1 = kRhoCap;
      value_fbs = ds.cap_fbs[j] - lambda_fbs;
    } else {
      const double s = ds.s_fbs[j];
      if (s < lambda_fbs * ds.lo_fbs[j]) {
        // rho1 == 0; val0 table already loaded.
      } else if (s > lambda_fbs * ds.hi_fbs[j]) {
        rho1 = kRhoCap;
        value_fbs = ds.cap_fbs[j] - lambda_fbs;
      } else {
        rho1 = util::clamp(s / lambda_fbs - ds.pr_fbs[j], 0.0, kRhoCap);
        if (rho1 >= kRhoCap) {
          value_fbs = ds.cap_fbs[j] - lambda_fbs;
        } else if (rho1 > 0.0) {
          value_fbs =
              s * std::log(ds.psnr[j] + rho1 * ds.eff_rate_fbs[j]) +
              cache.loss_fbs[j] - lambda_fbs * rho1;
        }
      }
    }
  }

  // Table I step 4: strict '>' sends the user to the MBS, ties to the FBS.
  // The losing branch's share is zeroed, exactly as solve_user() leaves
  // the corresponding UserChoice field default-initialized.
  const bool use_mbs = value_mbs > value_fbs;
  const double add_mbs = use_mbs ? rho0 : 0.0;
  const double add_fbs = use_mbs ? 0.0 : rho1;
  if constexpr (Store) {
    ds.choice_use_mbs[j] = use_mbs ? 1 : 0;
    ds.choice_rho_mbs[j] = add_mbs;
    ds.choice_rho_fbs[j] = add_fbs;
  }
  return {add_mbs, add_fbs};
}

/// One pass of user subproblems at the current prices, accumulating the
/// per-resource share sums in user index order, on the calling thread. Two
/// shapes, one result:
///
///   * store_choices: one fused loop that also writes the index-addressed
///     choice buffers;
///   * iteration passes: the same loop minus the choice stores — the
///     subgradient update only reads the sums, and the primal recovery
///     pass at the end re-materializes the choices.
///
/// Each sums[i] accumulator sees the same ordered add sequence in both.
/// The pass runs once per subgradient iteration, where a pool dispatch
/// costs more than spreading the users saves (docs/DEVELOPING.md, rule 3).
void user_best_responses(const SlotContext& ctx, const SlotCache& cache,
                         DualScratch& ds, const std::vector<double>& lambda,
                         bool store_choices) {
  const std::size_t K = ctx.users.size();
  const double lambda_mbs = lambda[0];
  std::fill(ds.sums.begin(), ds.sums.end(), 0.0);
  if (store_choices) {
    for (std::size_t j = 0; j < K; ++j) {
      const ShareAdd a =
          solve_user_cached<true>(cache, ds, j, lambda_mbs,
                                  lambda[ds.fbsi[j] + 1]);
      ds.sums[0] += a.mbs;
      ds.sums[ds.fbsi[j] + 1] += a.fbs;
    }
  } else {
    for (std::size_t j = 0; j < K; ++j) {
      const ShareAdd a =
          solve_user_cached<false>(cache, ds, j, lambda_mbs,
                                   lambda[ds.fbsi[j] + 1]);
      ds.sums[0] += a.mbs;
      ds.sums[ds.fbsi[j] + 1] += a.fbs;
    }
  }
}

/// Primal recovery at `lambda`: best responses with the choices stored,
/// copied into `alloc`, projected onto the slot budgets, scored. This is
/// THE scoring function — the periodic best-iterate sampling and the exit
/// path both run it, so "best sampled iterate" is judged by exactly the
/// objective the caller receives.
double recover_primal(const SlotContext& ctx, const SlotCache& cache,
                      DualScratch& ds, const std::vector<double>& lambda,
                      SlotAllocation& alloc) {
  user_best_responses(ctx, cache, ds, lambda, /*store_choices=*/true);
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    alloc.use_mbs[j] = ds.choice_use_mbs[j] != 0;
    alloc.rho_mbs[j] = ds.choice_rho_mbs[j];
    alloc.rho_fbs[j] = ds.choice_rho_fbs[j];
  }
  project_to_budgets(ctx, alloc);
  return slot_objective(ctx, alloc);
}

/// Strict-improvement rule for recovery candidates: a non-finite candidate
/// never wins, and a finite candidate beats a NaN incumbent (NaN compares
/// false both ways, so `!(cand <= incumbent)` is the NaN-safe strict `>`).
bool improves(double candidate, double incumbent) {
  return std::isfinite(candidate) && !(candidate <= incumbent);
}

/// Degraded-mode share heuristics (never reached by a converged solve).
/// Each user attaches to the branch with the larger marginal PSNR slope at
/// rho == 0 (d/drho of S log(W + rho R) there is S R / W); each resource's
/// slot is then split among its attached users — proportional to slope for
/// the greedy rung, equally for the equal-shares rung. Shares are within
/// the budgets by construction, but the dual path's projection + scoring
/// runs anyway so the candidates are strictly comparable.
double fallback_allocation(const SlotContext& ctx, const SlotCache& cache,
                           DualScratch& ds, bool proportional,
                           SlotAllocation& alloc) {
  const std::size_t K = ctx.users.size();
  std::fill(ds.sums.begin(), ds.sums.end(), 0.0);
  for (std::size_t j = 0; j < K; ++j) {
    const double slope_mbs =
        cache.can_mbs[j] ? ds.s_mbs[j] * ds.rate_mbs[j] / ds.psnr[j] : -1.0;
    const double slope_fbs =
        ds.can_fbs[j] ? ds.s_fbs[j] * ds.eff_rate_fbs[j] / ds.psnr[j] : -1.0;
    // Ties go to the FBS, matching Table I's tie rule in solve_user_cached.
    const bool use_mbs = slope_mbs > slope_fbs;
    const double slope = use_mbs ? slope_mbs : slope_fbs;
    const double weight = slope > 0.0 ? (proportional ? slope : 1.0) : 0.0;
    ds.choice_use_mbs[j] = use_mbs ? 1 : 0;
    ds.choice_rho_mbs[j] = use_mbs ? weight : 0.0;
    ds.choice_rho_fbs[j] = use_mbs ? 0.0 : weight;
    ds.sums[0] += ds.choice_rho_mbs[j];
    ds.sums[ds.fbsi[j] + 1] += ds.choice_rho_fbs[j];
  }
  for (std::size_t j = 0; j < K; ++j) {
    const bool use_mbs = ds.choice_use_mbs[j] != 0;
    const double weight = use_mbs ? ds.choice_rho_mbs[j] : ds.choice_rho_fbs[j];
    const double total = ds.sums[use_mbs ? 0 : ds.fbsi[j] + 1];
    const double share =
        total > 0.0 ? std::min(weight / total, kRhoCap) : 0.0;
    alloc.use_mbs[j] = use_mbs;
    alloc.rho_mbs[j] = use_mbs ? share : 0.0;
    alloc.rho_fbs[j] = use_mbs ? 0.0 : share;
  }
  project_to_budgets(ctx, alloc);
  return slot_objective(ctx, alloc);
}

/// Degradation counters, registered lazily on first use: a run in which
/// every solve converges (all figure goldens, BENCH_baseline.json) exports
/// exactly the historical counter set. The perf gate compares the union of
/// `core.*` counters, so eager registration would break it for nothing.
struct FallbackCounters {
  util::Counter& nonconverged;     ///< solves that exhausted every attempt
  util::Counter& retries;          ///< step-backoff attempts taken
  util::Counter& retry_converged;  ///< solves rescued by a retry
  util::Counter& best_iterate;     ///< recovered at the best sampled iterate
  util::Counter& last_iterate;     ///< recovered at the final prices
  util::Counter& greedy;           ///< fallback rung: slope-proportional
  util::Counter& equal;            ///< fallback rung: equal shares
  util::Counter& nonfinite_prices; ///< diverged prices reset before recovery
};

FallbackCounters& fallback_counters() {
  static FallbackCounters c{
      util::metrics().counter("core.dual.fallback.nonconverged"),
      util::metrics().counter("core.dual.fallback.retries"),
      util::metrics().counter("core.dual.fallback.retry_converged"),
      util::metrics().counter("core.dual.fallback.best_iterate"),
      util::metrics().counter("core.dual.fallback.last_iterate"),
      util::metrics().counter("core.dual.fallback.greedy"),
      util::metrics().counter("core.dual.fallback.equal"),
      util::metrics().counter("core.dual.fallback.nonfinite_prices")};
  return c;
}

}  // namespace

double price_step(const std::vector<double>& lambda,
                  const std::vector<double>& sums, double step,
                  std::vector<double>& next) {
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    next[i] = util::pos(lambda[i] - step * (1.0 - sums[i]));
    FEMTOCR_DCHECK_FINITE(next[i], "dual price diverged mid-iteration");
  }
  return util::squared_distance(next, lambda);
}

/// At the converged prices the violation is at most the subgradient step's
/// granularity. The per-FBS sums live in the scratch arena: best-iterate
/// tracking runs this once per sampled iterate, not once per solve.
void project_to_budgets(const SlotContext& ctx, SlotAllocation& alloc) {
  DualScratch& ds = slot_scratch().dual;
  double sum_mbs = 0.0;
  ds.rescale_sum_fbs.assign(ctx.num_fbs, 0.0);
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    sum_mbs += alloc.rho_mbs[j];
    ds.rescale_sum_fbs[ctx.users[j].fbs] += alloc.rho_fbs[j];
  }
  const double scale_mbs = sum_mbs > 1.0 ? 1.0 / sum_mbs : 1.0;
  ds.rescale_scale_fbs.assign(ctx.num_fbs, 1.0);
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) {
    if (ds.rescale_sum_fbs[i] > 1.0) {
      ds.rescale_scale_fbs[i] = 1.0 / ds.rescale_sum_fbs[i];
    }
  }
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    alloc.rho_mbs[j] *= scale_mbs;
    alloc.rho_fbs[j] *= ds.rescale_scale_fbs[ctx.users[j].fbs];
  }
}

DualResult solve_dual(const SlotContext& ctx, const SlotCache& cache,
                      const std::vector<double>& gt_per_fbs,
                      const DualOptions& options) {
  // core.dual.iterations counts the subgradient passes of this solver only;
  // the water-filling solver's level solves have their own counters
  // (docs/OBSERVABILITY.md).
  static util::Counter& c_solves = util::metrics().counter("core.dual.solves");
  static util::Counter& c_iters =
      util::metrics().counter("core.dual.iterations");
  static util::Counter& c_updates =
      util::metrics().counter("core.dual.price_updates");
  static util::Counter& c_converged =
      util::metrics().counter("core.dual.converged");
  static util::Histogram& h_iters =
      util::metrics().histogram("core.dual.iterations_per_solve");
  static util::TimerStat& t_solve = util::metrics().timer("core.dual.solve");
  util::Scope scope(t_solve);

  // The cache's build() validated the context and the per-user contracts;
  // only the per-call arguments are checked here.
  FEMTOCR_CHECK(cache.num_users == ctx.users.size() &&
                    cache.num_fbs == ctx.num_fbs,
                "slot cache was built for a different context shape");
  FEMTOCR_CHECK(gt_per_fbs.size() == ctx.num_fbs,
                "need one expected channel count per FBS");
  FEMTOCR_CHECK(options.step_size > 0.0, "step size must be positive");
  FEMTOCR_CHECK(options.tolerance >= 0.0, "tolerance must be nonnegative");
  FEMTOCR_CHECK(options.max_retries == 0 || (options.retry_backoff > 0.0 &&
                                             options.retry_backoff <= 1.0),
                "retry backoff must be in (0, 1]");

  const std::size_t K = ctx.users.size();
  const std::size_t num_prices = ctx.num_fbs + 1;
  c_solves.add();

  DualScratch& ds = slot_scratch().dual;
  ds.lambda.assign(num_prices, options.initial_lambda);
  if (options.warm_start) {
    FEMTOCR_CHECK(options.warm_start->size() == num_prices,
                  "warm start must provide one price per resource");
    ds.lambda = *options.warm_start;
  }
  ds.next.resize(num_prices);
  ds.sums.resize(num_prices);
  ds.choice_rho_mbs.resize(K);
  ds.choice_rho_fbs.resize(K);
  ds.choice_use_mbs.resize(K);

  // Per-solve user tables: the expected channel count g is fixed for the
  // whole solve, so the FBS-side effective rate, its price offset W/(R G)
  // and the cap-valued logs are all loop invariants of the subgradient.
  ds.eff_rate_fbs.resize(K);
  ds.pr_fbs.resize(K);
  ds.log_hi_mbs.resize(K);
  ds.log_hi_fbs.resize(K);
  ds.val0_mbs.resize(K);
  ds.val0_fbs.resize(K);
  ds.cap_mbs.resize(K);
  ds.cap_fbs.resize(K);
  ds.lo_mbs.resize(K);
  ds.hi_mbs.resize(K);
  ds.lo_fbs.resize(K);
  ds.hi_fbs.resize(K);
  ds.s_mbs.resize(K);
  ds.s_fbs.resize(K);
  ds.psnr.resize(K);
  ds.rate_mbs.resize(K);
  ds.fbsi.resize(K);
  ds.can_fbs.resize(K);
  for (std::size_t j = 0; j < K; ++j) {
    const UserState& u = ctx.users[j];
    ds.s_mbs[j] = u.success_mbs;
    ds.s_fbs[j] = u.success_fbs;
    ds.psnr[j] = u.psnr;
    ds.rate_mbs[j] = u.rate_mbs;
    ds.fbsi[j] = static_cast<std::uint32_t>(u.fbs);
    const double eff = u.rate_fbs * gt_per_fbs[u.fbs];
    ds.eff_rate_fbs[j] = eff;
    const bool usable = eff > 0.0 && u.success_fbs > 0.0;
    ds.can_fbs[j] = usable ? 1 : 0;
    ds.pr_fbs[j] = usable ? u.psnr / eff : 0.0;
    ds.log_hi_mbs[j] =
        cache.can_mbs[j] ? std::log(u.psnr + u.rate_mbs) : 0.0;
    ds.log_hi_fbs[j] = usable ? std::log(u.psnr + eff) : 0.0;
    // Lagrangian values at the two clamp ends plus the division-screen
    // thresholds (the comment on solve_user_cached justifies the
    // bit-identity of every substitution).
    ds.val0_mbs[j] = u.success_mbs * cache.log_psnr[j] + cache.loss_mbs[j];
    ds.val0_fbs[j] = u.success_fbs * cache.log_psnr[j] + cache.loss_fbs[j];
    ds.cap_mbs[j] = u.success_mbs * ds.log_hi_mbs[j] + cache.loss_mbs[j];
    ds.cap_fbs[j] = u.success_fbs * ds.log_hi_fbs[j] + cache.loss_fbs[j];
    constexpr double kGuard = 1e-12;
    ds.lo_mbs[j] = cache.pr_mbs[j] * (1.0 - kGuard);
    ds.hi_mbs[j] = (cache.pr_mbs[j] + kRhoCap) * (1.0 + kGuard);
    ds.lo_fbs[j] = ds.pr_fbs[j] * (1.0 - kGuard);
    ds.hi_fbs[j] = (ds.pr_fbs[j] + kRhoCap) * (1.0 + kGuard);
  }

  DualResult result;
  result.allocation = SlotAllocation::zeros(ctx);
  result.allocation.expected_channels = gt_per_fbs;
  if (options.record_trace) result.trace.push_back(ds.lambda);

  // Best-iterate tracking state: -inf (not NaN) so any finite score wins.
  const bool track = options.track_best_iterate;
  const std::size_t stride =
      std::max<std::size_t>(std::size_t{1}, options.best_iterate_stride);
  double best_objective = -std::numeric_limits<double>::infinity();
  std::size_t until_eval = stride;
  bool have_best = false;

  double step = options.step_size;
  for (std::size_t attempt = 0;; ++attempt) {
    for (std::size_t tau = 0; tau < options.max_iterations; ++tau) {
      user_best_responses(ctx, cache, ds, ds.lambda, /*store_choices=*/false);

      const double movement = price_step(ds.lambda, ds.sums, step, ds.next);
      std::swap(ds.lambda, ds.next);
      if (options.record_trace) result.trace.push_back(ds.lambda);
      ++result.iterations;
      if (movement <= options.tolerance) {
        result.converged = true;
        break;
      }
      // Periodic best-iterate scoring, placed after the convergence check
      // so a converging solve runs the identical update sequence whether
      // tracking is on or off. Scores with the exit path's own recovery;
      // result.allocation doubles as the scoring buffer (the exit path
      // overwrites every field this writes).
      if (track && --until_eval == 0) {
        until_eval = stride;
        const double q =
            recover_primal(ctx, cache, ds, ds.lambda, result.allocation);
        if (improves(q, best_objective)) {
          best_objective = q;
          ds.best_lambda = ds.lambda;
          have_best = true;
        }
      }
    }
    if (result.converged || attempt >= options.max_retries) break;
    // Retry with step-size backoff: continue from the current (warm)
    // prices with a smaller step and a fresh iteration budget.
    fallback_counters().retries.add();
    util::trace_note_anomaly("core.dual.fallback.retries");
    step *= options.retry_backoff;
    ++result.retries;
  }
  if (result.retries > 0 && result.converged) {
    fallback_counters().retry_converged.add();
  }

  c_iters.add(result.iterations);
  c_updates.add(result.iterations * num_prices);
  if (result.converged) c_converged.add();
  h_iters.observe(static_cast<double>(result.iterations));

  // Non-convergence housekeeping before recovery: a diverged price vector
  // is useless for primal recovery and would poison the caller's warm
  // start, so reset it to the cold-start point (counted; debug builds trip
  // the in-loop DCHECK first).
  if (!result.converged) {
    fallback_counters().nonconverged.add();
    util::trace_note_anomaly("core.dual.fallback.nonconverged");
    bool finite = true;
    for (const double l : ds.lambda) finite = finite && std::isfinite(l);
    if (!finite) {
      fallback_counters().nonfinite_prices.add();
      util::trace_note_anomaly("core.dual.fallback.nonfinite_prices");
      std::fill(ds.lambda.begin(), ds.lambda.end(), options.initial_lambda);
    }
  }

  // Primal recovery at the final prices, then projection onto the budgets.
  double objective =
      recover_primal(ctx, cache, ds, ds.lambda, result.allocation);
  DualRecovery recovery = result.converged ? DualRecovery::kConverged
                                           : DualRecovery::kLastIterate;
  if (!result.converged) {
    // The headline fix: under an oversized step the orbit's final point
    // can be strictly worse than an earlier one — return the best sampled
    // iterate instead (strict improvement only; ties keep the last
    // iterate). The winning prices also become the caller's warm start.
    if (have_best && improves(best_objective, objective)) {
      objective =
          recover_primal(ctx, cache, ds, ds.best_lambda, result.allocation);
      ds.lambda = ds.best_lambda;
      recovery = DualRecovery::kBestIterate;
    }
    if (options.allow_fallback) {
      // Explicit chain dual -> greedy -> equal; a later rung must strictly
      // improve on the incumbent. The buffer holds one candidate at a
      // time, so the winner is rematerialized after the comparisons (the
      // recompute is deterministic and only runs on this degraded path).
      const double q_greedy = fallback_allocation(ctx, cache, ds,
                                                  /*proportional=*/true,
                                                  result.allocation);
      if (improves(q_greedy, objective)) {
        objective = q_greedy;
        recovery = DualRecovery::kGreedy;
      }
      const double q_equal = fallback_allocation(ctx, cache, ds,
                                                 /*proportional=*/false,
                                                 result.allocation);
      if (improves(q_equal, objective)) {
        objective = q_equal;
        recovery = DualRecovery::kEqual;
      } else if (recovery == DualRecovery::kGreedy) {
        objective = fallback_allocation(ctx, cache, ds, /*proportional=*/true,
                                        result.allocation);
      } else {
        objective =
            recover_primal(ctx, cache, ds, ds.lambda, result.allocation);
      }
    }
    if (!std::isfinite(objective)) {
      // Floor of last resort regardless of allow_fallback: equal shares
      // are always well-defined, and the exit contract below insists on a
      // finite objective.
      objective = fallback_allocation(ctx, cache, ds, /*proportional=*/false,
                                      result.allocation);
      recovery = DualRecovery::kEqual;
    }
    switch (recovery) {
      case DualRecovery::kBestIterate:
        fallback_counters().best_iterate.add();
        util::trace_note_anomaly("core.dual.fallback.best_iterate");
        break;
      case DualRecovery::kGreedy:
        fallback_counters().greedy.add();
        util::trace_note_anomaly("core.dual.fallback.greedy");
        break;
      case DualRecovery::kEqual:
        fallback_counters().equal.add();
        util::trace_note_anomaly("core.dual.fallback.equal");
        break;
      default:
        fallback_counters().last_iterate.add();
        util::trace_note_anomaly("core.dual.fallback.last_iterate");
        break;
    }
  }
  result.recovery = recovery;
  result.allocation.objective = objective;
  result.allocation.upper_bound = objective;
  result.allocation.dual_iterations = result.iterations;
  result.lambda = ds.lambda;

  // Exit contracts. A converged solve promises finite cone prices; a
  // non-converged one reports through `recovery` and the
  // core.dual.fallback.* counters instead of an over-claiming "converged
  // multiplier" abort (the prices were sanitized above). Every path
  // guarantees a finite, budget-feasible primal point.
  if (result.converged) {
    for (const double l : result.lambda) {
      FEMTOCR_CHECK_FINITE(l, "converged Lagrange multiplier must be finite");
      FEMTOCR_CHECK_GE(l, 0.0, "Lagrange multipliers live on the cone");
    }
  }
  FEMTOCR_CHECK_FINITE(result.allocation.objective,
                       "recovered primal objective must be finite");
#if FEMTOCR_DCHECK_IS_ON()
  {
    double sum_mbs = 0.0;
    std::vector<double> sum_fbs(ctx.num_fbs, 0.0);  // lint-allow: no-hot-loop-alloc (debug-only)
    for (std::size_t j = 0; j < ctx.users.size(); ++j) {
      FEMTOCR_DCHECK_GE(result.allocation.rho_mbs[j], 0.0,
                        "slot shares are nonnegative");
      FEMTOCR_DCHECK_GE(result.allocation.rho_fbs[j], 0.0,
                        "slot shares are nonnegative");
      sum_mbs += result.allocation.rho_mbs[j];
      sum_fbs[ctx.users[j].fbs] += result.allocation.rho_fbs[j];
    }
    FEMTOCR_DCHECK_LE(sum_mbs, 1.0 + 1e-9, "MBS slot budget violated");
    for (const double s : sum_fbs) {
      FEMTOCR_DCHECK_LE(s, 1.0 + 1e-9, "FBS slot budget violated");
    }
  }
#endif

  // Solver context for the flight recorder: captured with the span when a
  // slot is frozen, so a postmortem shows what the solve did without
  // replaying it. Degradation rung encoding matches DualRecovery.
  scope.arg("iterations", static_cast<double>(result.iterations));
  scope.arg("converged", result.converged ? 1.0 : 0.0);
  scope.arg("recovery", static_cast<double>(static_cast<int>(result.recovery)));
  scope.arg("retries", static_cast<double>(result.retries));
  scope.arg("lambda0", result.lambda.empty() ? 0.0 : result.lambda[0]);

  // Every FBS holds its assigned expected channel count; the channel id
  // lists are the caller's to fill (they depend on how gt was produced).
  return result;
}

}  // namespace femtocr::core
