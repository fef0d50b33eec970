// Distributed dual-decomposition solver (paper Section IV-A.3, Tables I & II).
//
// The per-slot convex program (12)/(17) is solved by Lagrangian dual
// decomposition: given prices lambda = [lambda_0, lambda_1..lambda_N] for
// the slot-budget constraints, each CR user independently solves the
// closed-form subproblem of Table I steps 3–8; the MBS then updates the
// prices by a projected subgradient step (Eq. 16/18/19)
//     lambda_i <- [lambda_i - s (1 - sum_j rho*_ij)]^+
// and broadcasts them. Iterate until sum_i (lambda_i' - lambda_i)^2 <= phi.
//
// This mirrors the message flow the paper describes (users -> MBS shares,
// MBS -> users prices); in-process it is a plain loop, and core/protocol.h
// runs the same price step and budget projection as explicit messages. The
// solver records the full price trace on request — Fig. 4(a) is a direct
// dump of it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/types.h"

namespace femtocr::core {

struct DualOptions {
  /// s in Eq. (16). Must be small relative to the optimal prices: at the
  /// library's scales (W ~ 30 dB, R ~ 0.6 dB/slot) lambda* is around
  /// S R / W ~ 0.02, so the default step is a few percent of that. Too
  /// large a step makes the prices orbit the optimum without settling —
  /// the classic subgradient failure mode.
  double step_size = 2e-4;
  /// phi: squared price movement to stop at. The subgradient has a kink
  /// wherever a user is indifferent between base stations, so the movement
  /// cannot fall below roughly (step * share-jump)^2 when the optimum sits
  /// at such a kink; the default is just above that floor.
  double tolerance = 1e-8;
  std::size_t max_iterations = 100000;
  double initial_lambda = 0.05; ///< starting price when no warm start given
  bool record_trace = false;    ///< keep lambda(tau) for every tau

  /// Warm start: prices from a previous solve (size num_fbs + 1). Beliefs
  /// and fading drift slowly across slots, so a carried price lands near
  /// the new optimum and cuts iterations by an order of magnitude. The
  /// hit rate is counted where the carry is consumed (solve_component in
  /// core/shard.h), not here.
  std::optional<std::vector<double>> warm_start;

  /// Graceful-degradation knobs. Every sampled price vector is scored by
  /// the *same* primal recovery used at exit (best responses + budget
  /// projection + slot_objective), so on non-convergence the solver can
  /// return the best primal point the orbit visited instead of whatever
  /// the last iteration left (last-iterate recovery can be strictly worse
  /// under an oversized step — the headline bug this option fixes). A
  /// converged solve is bit-identical with tracking on or off.
  bool track_best_iterate = true;
  /// Score every Nth iterate (amortizes the O(K) recovery to ~K/N per
  /// iteration; 0 is treated as 1).
  std::size_t best_iterate_stride = 64;
  /// On non-convergence, retry this many times, continuing from the
  /// current prices with the step scaled by retry_backoff each attempt
  /// and a fresh max_iterations budget. 0 (default) keeps the historical
  /// single-attempt behavior.
  std::size_t max_retries = 0;
  double retry_backoff = 0.5;  ///< step multiplier per retry, in (0, 1]
  /// After the retries are spent, admit the explicit fallback chain
  /// dual -> greedy share heuristic -> equal shares: each rung replaces
  /// the recovered point only when its objective is strictly better
  /// (NaN never wins). Off by default — opt-in degraded mode.
  bool allow_fallback = false;
};

/// How the returned primal point was produced. Anything other than
/// kConverged means the subgradient did not meet the tolerance and the
/// result is a graceful-degradation recovery.
enum class DualRecovery {
  kConverged,    ///< loop met the movement tolerance; recovery at lambda*
  kLastIterate,  ///< non-converged; primal at the final prices
  kBestIterate,  ///< non-converged; best sampled iterate beat the last one
  kGreedy,       ///< fallback: slope-proportional share heuristic
  kEqual,        ///< fallback of last resort: equal shares per resource
};

struct DualResult {
  SlotAllocation allocation;
  std::vector<double> lambda;   ///< converged prices [lambda_0..lambda_N]
  bool converged = false;
  std::size_t iterations = 0;   ///< total across all retry attempts
  /// lambda(tau) per iteration when record_trace is set; index 0 is the
  /// initial point.
  std::vector<std::vector<double>> trace;
  /// Mirrored by the core.dual.fallback.* counters (docs/ROBUSTNESS.md).
  DualRecovery recovery = DualRecovery::kConverged;
  std::size_t retries = 0;      ///< backoff attempts actually taken
};

struct SlotCache;

/// Runs the Table I/II subgradient for the given expected channel counts
/// per FBS (all equal to ctx.total_expected_channels() in the
/// non-interfering cases; per-allocation G_i in the interfering case),
/// against the slot's cache (core/slot_cache.h), which must be built for
/// `ctx`. The returned primal allocation is recovered at the final prices
/// and then projected onto the slot budgets, so it is always feasible.
DualResult solve_dual(const SlotContext& ctx, const SlotCache& cache,
                      const std::vector<double>& gt_per_fbs,
                      const DualOptions& options = {});

/// Eq. (16)/(18)/(19), the MBS's price step: next_i = [lambda_i -
/// step (1 - sums_i)]^+, with sums_i resource i's share sum. `next` must
/// already have lambda's size. Returns the squared price movement that
/// Table I's stopping rule compares with phi. solve_dual and the
/// protocol's MbsAgent (core/protocol.h) both step through it.
double price_step(const std::vector<double>& lambda,
                  const std::vector<double>& sums, double step,
                  std::vector<double>& next);

/// Projects a recovered primal point onto the slot budgets: the shares of
/// every oversubscribed resource are scaled by the reciprocal of their sum,
/// which keeps the assignment and near-optimality. solve_dual and
/// run_protocol both recover through it.
void project_to_budgets(const SlotContext& ctx, SlotAllocation& alloc);

}  // namespace femtocr::core
