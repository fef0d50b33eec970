// Greedy FBS-channel allocation for interfering femtocells
// (paper Section IV-C.2, Table III).
//
// Candidates are FBS-channel pairs over the slot's available set A(t). Each
// round picks the pair with the largest objective increase
// Q(c + e_{i,m}) - Q(c), allocates it, and removes the pair itself plus the
// conflicting pairs R(i) x {m} from the candidate set (Lemma 4). Q(c) is
// the optimal value of problem (17) for the expected channel counts implied
// by c, evaluated with the exact water-filling solver (tests pin its
// agreement with the paper's subgradient). Worst-case complexity is
// O(N^2 M^2) Q-evaluations, as the paper states.
//
// The run records (Delta_l, D(l)) so the Eq.-(23) upper bound falls out as
// a by-product — exactly how the paper's "Upper bound" curves are produced.
#pragma once

#include <vector>

#include "core/bounds.h"
#include "core/types.h"

namespace femtocr::core {

struct SlotCache;

struct GreedyResult {
  /// Final allocation: channel lists + expected counts per FBS, shares and
  /// assignment from the solve at the final allocation, objective Q(pi_L)
  /// and the Eq.-(23) upper bound.
  SlotAllocation allocation;
  std::vector<GreedyStep> steps;  ///< the greedy trace (pi_1..pi_L)
  double q_empty = 0.0;           ///< Q with no licensed channels
  double d_bar = 0.0;             ///< Delta-weighted mean degree (Eq. 23)
  double bound_tight = 0.0;       ///< Eq. (23) bound (== allocation.upper_bound)
  double bound_dmax = 0.0;        ///< Theorem 2 bound
};

/// Runs Table III on the slot context, against the slot's cache
/// (core/slot_cache.h), which must be built for `ctx`. FBSs with no
/// associated users are skipped (allocating them channels cannot increase
/// the objective). Each round's argmax of Q(c + e) over the surviving pairs
/// is a serial best-first walk: every distinct candidate (the lowest index
/// of each FBS and trial g_i; a repeat has the same Q and a higher index,
/// so it can never win) is bounded by weak duality at the exit prices of
/// the previous winner's climb (round 1: the empty-channel climb's), then
/// climbed in descending bound, ties in candidate order. A candidate is
/// not climbed when its bound plus margin, at those prices, at the exit
/// prices of the round's best climb so far, or at those of its FBS's best
/// climb so far, is below the best Q so far; core.greedy.candidates_pruned
/// counts them (DualBoundTable in core/waterfill.h). The scan keeps the
/// largest Q with ties to the lowest candidate index, the first strict
/// maximum in candidate order, with that climb's assignment. A round's gain
/// is taken from the previous winner's Q; the allocation is materialized
/// once, after the last round, by water-filling the assignment the last
/// winner's climb kept. One memo scope (core/scratch.h) spans the call,
/// that materialization included, so every climb finds the resources the
/// call already solved. The call runs on the calling thread, so results
/// and counters do not depend on the thread count.
GreedyResult greedy_allocate(const SlotContext& ctx, const SlotCache& cache);

}  // namespace femtocr::core
