// Exact per-slot solver by water-filling + assignment iteration.
//
// For a *fixed* base-station assignment, problem (12)/(17) separates into
// one concave single-resource problem per base station whose KKT point is a
// water-filling: shares rho_j = [S_j/lambda - W_j/R_j]^+ with lambda chosen
// analytically (sorted clamp breakpoints + one closed-form step per
// interval, Newton-polished) so the budget binds. This is the repo's one
// water-level solver: the slot solve runs it at budget 1, and
// waterfill_shares exposes it on raw vectors for the QoS residual fills
// (core/qos.h) and the two-stage analysis (core/multistage.h). Where the
// closed-form level overspends, an exact search over the bracket's doubles
// finishes it.
// The binary assignment (Theorem 1) is then improved by a hill climb over
// single-user flips and pair swaps until no move gains. This solves the
// same convex program as the paper's distributed subgradient (Tables I/II)
// but converges in a handful of rounds, which matters inside the greedy
// allocator where Q(c) is evaluated hundreds of times per slot: a climb
// trial re-solves only the resources its move touches, resource solves are
// memoised within one scope (core/scratch.h), and a move is not tried at
// all when weak duality at the accepted assignment's water levels, the
// resources' KKT prices, proves it cannot gain (docs/DEVELOPING.md gives
// the bound and its rounding margin). Tests verify it agrees with both the
// subgradient solver and brute-force assignment enumeration.
#pragma once

#include <vector>

#include "core/types.h"

namespace femtocr::core {

struct SlotCache;

/// Water-fills one resource: chooses lambda >= 0 so that the shares
/// rho_k = clamp(S_k/lambda - W_k/R_k, 0, cap) sum to at most `budget`
/// (binding whenever possible). `psnr[k]`, `rates[k]` and `successes[k]`
/// are member k's state W_k > 0, effective rate R_k and success
/// probability S_k on this resource. Rejects misaligned lists and budgets
/// outside [0, 1]. Returns lambda; writes the shares to `rho_out`, aligned
/// with the lists. Counted like a slot-solve level solve
/// (core.waterfill.level_solves, core.waterfill.breakpoint.*).
double waterfill_shares(const std::vector<double>& psnr,
                        const std::vector<double>& rates,
                        const std::vector<double>& successes, double budget,
                        std::vector<double>& rho_out);

/// Solves the slot problem for given expected channel counts per FBS,
/// against the slot's cache (core/slot_cache.h), which must be built for
/// `ctx` and may be shared read-only by concurrent callers. The assignment
/// is found by a hill climb over single-user flips and pair swaps that
/// keeps a move only if it strictly gains (simultaneous best response
/// would oscillate; see the .cpp); the shares are then water-filled for
/// that assignment.
SlotAllocation waterfill_solve(const SlotContext& ctx, const SlotCache& cache,
                               const std::vector<double>& gt_per_fbs);

/// waterfill_solve's climb without materializing the allocation: returns
/// the objective and leaves the assignment in `use_mbs`, bit-identical to
/// waterfill_solve(...).objective and .use_mbs. The climb only ever
/// compares Q values, so trial candidates (greedy's inner loop) skip
/// building the K-sized share vectors, and waterfill_evaluate on the
/// assignment materializes the allocation waterfill_solve would return.
/// Inside an open MemoScope (a greedy scan task) it shares that scope's
/// memo. `prices` receives the price each resource's shares were taken at
/// in that assignment (index 0 = MBS, i + 1 = FBS i): its water level, or
/// 1e-12 where the level is 0.
double waterfill_solve_objective(const SlotContext& ctx,
                                 const SlotCache& cache,
                                 const std::vector<double>& gt_per_fbs,
                                 std::vector<bool>& use_mbs,
                                 std::vector<double>& prices);

/// Weak duality's bound on the slot problem, D = value, and the rounding
/// margin that makes it a bound on the climb's floating-point objective.
struct SlotDualBound {
  double value = 0.0;
  double margin = 0.0;
};

/// D at the expected channel counts `gt_per_fbs` and the nonnegative
/// resource prices μ in `prices` (index 0 = MBS, i + 1 = FBS i), for any μ:
///   D = Σ_r μ_r (1 + 1e-9 + κ) + Σ_j max(v_j^MBS(μ_0), v_j^FBS(μ_i)),
/// where v_j is user j's Lagrangian maximum over its share on that resource
/// and κ = 4 (K + 4) ε. No assignment whose resources' shares sum to at
/// most 1 + 1e-9, as water-filling's exit guard keeps them, has a larger
/// objective, so waterfill_solve_objective at gt_per_fbs never returns
/// more than value + margin (docs/DEVELOPING.md, "The greedy scan's
/// duality bound"). O(K + N), with at most 2K logs. The greedy scan takes
/// it at the exit prices of a task's best climb to skip candidates that
/// cannot beat it.
SlotDualBound waterfill_dual_bound(const SlotContext& ctx,
                                   const SlotCache& cache,
                                   const std::vector<double>& gt_per_fbs,
                                   const std::vector<double>& prices);

/// Water-fills every resource for a FIXED base-station assignment and
/// returns the completed allocation (objective included). The optimum over
/// shares given the assignment; the KKT certifier's flip tests evaluate
/// many assignments against one cache, and the greedy materializes each
/// round's winner from the assignment its climb kept.
SlotAllocation waterfill_evaluate(const SlotContext& ctx,
                                  const SlotCache& cache,
                                  const std::vector<double>& gt_per_fbs,
                                  const std::vector<bool>& use_mbs);

/// Brute-force reference: enumerates all 2^K base-station assignments and
/// water-fills each exactly. Guarded to K <= 16. Used by tests and the
/// exact channel allocator on small instances, which shares one cache
/// across all the channel assignments of a slot.
SlotAllocation waterfill_solve_exhaustive(const SlotContext& ctx,
                                          const SlotCache& cache,
                                          const std::vector<double>& gt_per_fbs);

}  // namespace femtocr::core
