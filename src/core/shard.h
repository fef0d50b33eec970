// Component-sharded per-slot allocation.
//
// Theorem 1 / Lemma 4 make non-adjacent FBS groups independent: of problem
// (21)'s constraints, only the shared MBS slot budget (sum_j rho_{0,j} <= 1)
// couples users across connected components of the interference graph. The
// shard engine exploits that structure: the slot splits into one
// subproblem per component (each with its full licensed channel set —
// spatial reuse across components is free), the subproblems are solved
// concurrently over util::parallel_for, and the sub-allocations are folded
// back in fixed component order. The fold then projects the MBS shares onto
// the global budget exactly as project_to_budgets (core/dual_solver.h) does
// (scale by 1/sum when oversubscribed) and re-evaluates the objective, so
// the result is always feasible. The folded upper bound is the sum of the
// per-component bounds, which is a genuine Eq.-(23)-style bound: giving
// every component its own unit MBS budget is a relaxation of the coupled
// problem, so the sum of relaxed optima dominates the true optimum.
//
// Determinism contract (pinned by the shard-equivalence tier of
// tests/test_determinism.cpp): workers write only their component's slots
// of pre-sized buffers; every fold walks components in index order; each
// component has its own SlotCache and — on the distributed path — reads
// its own warm-start seed, which the caller keeps (ProposedScheme's one
// carry), and the per-thread scratch arenas of core/scratch.h keep
// concurrent component solves from aliasing. Results are bitwise identical
// for any --threads value and with FEMTOCR_METRICS=0.
//
// Scheduling: components start longest-first (dispatch_order), so the
// slot's wall clock is bound by its total work rather than by where its
// heaviest component sits in index order. The order decides only when a
// component runs, never what it computes or where its result is folded.
//
// Observability: core.shard.* counters/timers, rows in docs/OBSERVABILITY.md.
// Registered lazily on the first sharded solve so runs that never shard
// keep byte-identical metrics dumps.
#pragma once

#include <cstddef>
#include <vector>

#include "core/dual_solver.h"
#include "core/types.h"
#include "net/interference_graph.h"

namespace femtocr::core {

struct SlotCache;

/// The slot's decomposition: connected components of the interference
/// graph in the deterministic order net::InterferenceGraph::components()
/// defines (ascending by smallest vertex, members ascending).
struct ShardPlan {
  /// Identity of one component across slots: its smallest global FBS index
  /// plus its size. ProposedScheme keys its warm-start carry by this (the
  /// whole slot is {0, num_fbs}). Only singletons and whole edgeless slots
  /// take the dual path, and for them the key names the FBS set exactly, so
  /// a graph that keeps its component *count* but shuffles membership
  /// (mobility, churn) goes cold instead of seeding stale prices into the
  /// wrong component.
  struct ComponentKey {
    std::size_t min_vertex = 0;
    std::size_t size = 0;

    friend bool operator==(const ComponentKey& a, const ComponentKey& b) {
      return a.min_vertex == b.min_vertex && a.size == b.size;
    }
    friend bool operator!=(const ComponentKey& a, const ComponentKey& b) {
      return !(a == b);
    }
  };

  std::vector<std::vector<std::size_t>> components;
  std::vector<std::size_t> component_of;  ///< per global FBS index

  static ShardPlan build(const net::InterferenceGraph& graph);

  std::size_t num_components() const { return components.size(); }
  std::size_t max_component_size() const;

  /// Fingerprint of component c (members are ascending, so front() is the
  /// smallest vertex).
  ComponentKey key(std::size_t c) const {
    return ComponentKey{components[c].front(), components[c].size()};
  }
};

/// One component's extracted subproblem. Local indices are remapped stably:
/// local FBS i is global_fbs[i] (ascending), local user k is
/// global_users[k] (ascending), and ctx.graph points at the owned induced
/// subgraph under the same FBS remapping.
struct ComponentProblem {
  SlotContext ctx;
  net::InterferenceGraph graph{0};        ///< owned; ctx.graph targets this
  std::vector<std::size_t> global_fbs;    ///< == plan.components[c]
  std::vector<std::size_t> global_users;  ///< local user k -> global index
};

/// Extracts every component's subproblem from `ctx`. Each sub-context
/// carries the full available/posterior sets (channels are reusable across
/// components), the component's users in ascending global order, and the
/// slot's solver_iteration_cap (the "land inside the slot" budget applies
/// to each concurrent sub-solve). Graph pointers are fixed up after the
/// container is final, so the returned vector may be moved but individual
/// elements must not be.
std::vector<ComponentProblem> make_component_problems(const SlotContext& ctx,
                                                      const ShardPlan& plan);

struct ShardOptions {
  /// Solve edgeless components with the Table I/II subgradient (per-
  /// component prices, warm-startable) instead of the exact water-filling.
  bool use_distributed_solver = false;
  DualOptions dual;  ///< options for the distributed path
};

/// Per-component solver outcome beyond the allocation itself.
struct ComponentOutcome {
  bool dual_path = false;      ///< solved by solve_dual (edgeless + dual)
  bool converged = false;      ///< dual path only
  std::vector<double> lambda;  ///< converged local prices; empty otherwise
};

struct ShardResult {
  SlotAllocation allocation;  ///< folded, MBS-projected, objective re-evaluated
  std::size_t num_components = 0;
  std::size_t max_component_size = 0;
  std::vector<ComponentOutcome> outcomes;  ///< fixed component order
};

/// One slot's or one component's solve, the dispatch ProposedScheme::allocate
/// applies to an unsharded slot and sharded_allocate to every component
/// with users: an edgeless graph takes the optimal water-filling (or, with
/// use_distributed_solver, the subgradient, seeded from `warm` iff its
/// size is num_fbs + 1 and capped by ctx.solver_iteration_cap), an
/// interfering graph takes the Table III greedy. Each subgradient solve
/// counts a core.dual.warm_start.hit when seeded and a .miss otherwise.
/// `cache` must be built for `ctx`; `outcome` reports the dual path's
/// convergence and prices.
SlotAllocation solve_component(const SlotContext& ctx, const SlotCache& cache,
                               const ShardOptions& options,
                               const std::vector<double>* warm,
                               ComponentOutcome& outcome);

/// Folds per-component sub-allocations (aligned with `problems`) into one
/// global allocation: shares/channels scatter through the stable remaps,
/// bounds and dual iterations sum in component order, the MBS shares are
/// projected onto the shared slot budget, and the objective is re-evaluated
/// with slot_objective on the folded point.
SlotAllocation fold_component_allocations(
    const SlotContext& ctx, const std::vector<ComponentProblem>& problems,
    const std::vector<SlotAllocation>& subs);

/// The order sharded_allocate hands components to its workers: descending
/// work estimate, ties by component index. The estimate is a pure function
/// of a component's shape. A component with users and edges runs the Table
/// III greedy, whose every round climbs every FBS's candidates with a swap
/// scan quadratic in users, so it estimates users^2 x FBSs and comes before
/// every other component. An edgeless component is one water-fill (or one
/// subgradient solve) and estimates its user count; an empty one estimates
/// 0 and comes last. The result is a permutation of [0, problems.size()).
/// Only when a component starts depends on it: results are still written
/// and folded in component order.
std::vector<std::size_t> dispatch_order(
    const std::vector<ComponentProblem>& problems);

/// Solves the slot by components, concurrently. On the distributed path
/// `seeds[c]`, when present and non-null, is component c's warm-start seed
/// (see solve_component); it must stay valid until the call returns.
/// Converged prices come back in ShardResult::outcomes for the caller to
/// carry. Deterministic for any thread count.
ShardResult sharded_allocate(
    const SlotContext& ctx, const ShardPlan& plan,
    const ShardOptions& options = {},
    const std::vector<const std::vector<double>*>& seeds = {});

}  // namespace femtocr::core
