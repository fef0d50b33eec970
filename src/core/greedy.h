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
/// fans out through util::parallel_for in scan tasks, one per FBS. A task
/// climbs its candidates in descending trial value, ties in candidate
/// order, once per distinct trial vector (a repeat has the same Q and a
/// higher index, so it can never win), and keeps the largest Q with ties
/// to the lowest candidate index, with that climb's assignment. It does not
/// climb a candidate whose weak-duality bound (waterfill_dual_bound), at
/// the exit prices of the task's best climb so far, proves it cannot beat
/// that best; core.greedy.candidates_pruned counts them. The task bests
/// are folded serially in task order, which gives the first strict maximum
/// in candidate order, so results do not depend on the thread count. A
/// round's gain is taken from the previous winner's Q; the allocation is
/// materialized once, after the last round, by water-filling the
/// assignment the last winner's climb kept.
/// The call shares its resource solves across rounds through a memo tier
/// (core/scratch.h): seeded by the empty-channel solve, frozen while a
/// round's tasks read it, and grown between rounds by merging what each
/// task solved in task order; core.greedy.tier_refused counts the solves
/// it has no room for. What a task finds is a function of the round, so
/// every counter is thread-count invariant too.
GreedyResult greedy_allocate(const SlotContext& ctx, const SlotCache& cache);

}  // namespace femtocr::core
