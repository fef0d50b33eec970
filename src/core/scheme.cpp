#include "core/scheme.h"

#include <utility>

#include "core/heuristics.h"
#include "core/shard.h"
#include "util/check.h"

namespace femtocr::core {

const char* scheme_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kProposed: return "Proposed";
    case SchemeKind::kHeuristic1: return "Heuristic1";
    case SchemeKind::kHeuristic2: return "Heuristic2";
  }
  return "?";
}

ProposedScheme::ProposedScheme(DualOptions options,
                               bool use_distributed_solver)
    : options_{use_distributed_solver, std::move(options)} {}

const ShardPlan& ProposedScheme::shard_plan(
    const net::InterferenceGraph& graph) {
  if (plan_graph_ != &graph || plan_version_ != graph.version()) {
    plan_ = ShardPlan::build(graph);
    plan_graph_ = &graph;
    plan_version_ = graph.version();
  }
  return plan_;
}

SlotAllocation ProposedScheme::allocate(const SlotContext& ctx) {
  // One cache build covers every solve this slot makes — including all of
  // the greedy's candidate evaluations — and validates the context once.
  cache_.build(ctx);
  // Every slot ages BOTH price carries, including slots that never reach
  // the path that would consume them (interfering slots for the global
  // carry, edgeless slots for the shard carry, fault bypasses in the
  // simulator are invisible here but show up as non-refreshing slots too):
  // the staleness bound is on wall-clock slots, not on solver calls.
  ++warm_age_;
  ++shard_warm_age_;
  if (warm_age_ > kMaxWarmAgeSlots) warm_lambda_.clear();
  if (shard_warm_age_ > kMaxWarmAgeSlots) shard_warm_.clear();
  // Edgeless slots and connected interfering graphs are solved whole (the
  // edgeless dual path carries one global price vector); when the graph
  // splits into several components the slot decomposes and the shard
  // engine solves the components concurrently (core/shard.h), carrying one
  // price vector per component fingerprint on the distributed path.
  const ShardPlan* plan =
      ctx.graph->num_edges() == 0 ? nullptr : &shard_plan(*ctx.graph);
  if (plan == nullptr || plan->num_components() <= 1) {
    // The staleness sweep above already dropped an over-age carry, so a
    // surviving shape-matched seed is fresh enough to use.
    ComponentOutcome outcome;
    SlotAllocation alloc =
        solve_component(ctx, cache_, options_, &warm_lambda_, outcome);
    if (outcome.dual_path) {
      // Only converged prices are worth carrying (outcome.lambda is empty
      // otherwise): a degraded solve's final prices can sit anywhere in
      // the orbit and would poison the next slot's seed.
      warm_lambda_ = std::move(outcome.lambda);
      if (outcome.converged) warm_age_ = 0;
    }
    return alloc;
  }
  // Route each carried price vector to the component that owns its
  // fingerprint. Components whose fingerprint has no carry (membership
  // changed, component is new, last solve did not converge) start cold —
  // never seeded from a same-position or same-count stranger.
  shard_seed_.resize(plan->num_components());
  for (std::size_t c = 0; c < plan->num_components(); ++c) {
    shard_seed_[c].clear();
    const ShardPlan::ComponentKey key = plan->key(c);
    for (const ShardCarry& carry : shard_warm_) {
      if (carry.key == key) {
        shard_seed_[c] = carry.lambda;
        break;
      }
    }
  }
  ShardResult res = sharded_allocate(ctx, *plan, options_, &shard_seed_);
  shard_warm_.resize(plan->num_components());
  for (std::size_t c = 0; c < res.outcomes.size(); ++c) {
    shard_warm_[c].key = plan->key(c);
    if (res.outcomes[c].dual_path && res.outcomes[c].converged) {
      shard_warm_[c].lambda = std::move(res.outcomes[c].lambda);
    } else {
      shard_warm_[c].lambda.clear();  // never carry a degraded price vector
    }
  }
  if (options_.use_distributed_solver) shard_warm_age_ = 0;
  return std::move(res.allocation);
}

SlotAllocation EqualAllocationScheme::allocate(const SlotContext& ctx) {
  return heuristic_equal_allocation(ctx);
}

SlotAllocation MultiuserDiversityScheme::allocate(const SlotContext& ctx) {
  return heuristic_multiuser_diversity(ctx);
}

std::unique_ptr<Scheme> make_scheme(SchemeKind kind, DualOptions options,
                                    bool use_distributed_solver) {
  switch (kind) {
    case SchemeKind::kProposed:
      return std::make_unique<ProposedScheme>(std::move(options),
                                              use_distributed_solver);
    case SchemeKind::kHeuristic1:
      return std::make_unique<EqualAllocationScheme>();
    case SchemeKind::kHeuristic2:
      return std::make_unique<MultiuserDiversityScheme>();
  }
  FEMTOCR_CHECK(false, "unknown scheme kind");
}

}  // namespace femtocr::core
