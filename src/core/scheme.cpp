#include "core/scheme.h"

#include <utility>
#include <vector>

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

const std::vector<double>* ProposedScheme::warm_seed(
    ShardPlan::ComponentKey key) const {
  for (const WarmEntry& e : warm_) {
    if (e.key == key) return &e.lambda;
  }
  return nullptr;
}

void ProposedScheme::carry(ShardPlan::ComponentKey key,
                           ComponentOutcome& outcome) {
  std::erase_if(warm_, [&](const WarmEntry& e) { return e.key == key; });
  // Only converged prices are worth carrying: a degraded solve's final
  // prices can sit anywhere in the orbit and would poison the next seed.
  if (outcome.converged) warm_.push_back({key, std::move(outcome.lambda), 0});
}

SlotAllocation ProposedScheme::allocate(const SlotContext& ctx) {
  // One cache build covers every solve this slot makes — including all of
  // the greedy's candidate evaluations — and validates the context once.
  cache_.build(ctx);
  // Every slot ages every carried entry, including slots that never reach
  // the solve that would consume it: the staleness bound is on wall-clock
  // slots, not on solver calls.
  for (WarmEntry& e : warm_) ++e.age;
  std::erase_if(warm_,
                [](const WarmEntry& e) { return e.age > kMaxWarmAgeSlots; });
  // Edgeless slots and connected interfering graphs are solved whole; when
  // the graph splits into several components the slot decomposes and the
  // shard engine solves the components concurrently (core/shard.h).
  const ShardPlan* plan =
      ctx.graph->num_edges() == 0 ? nullptr : &shard_plan(*ctx.graph);
  if (plan == nullptr || plan->num_components() <= 1) {
    const ShardPlan::ComponentKey key{0, ctx.num_fbs};
    ComponentOutcome outcome;
    SlotAllocation alloc =
        solve_component(ctx, cache_, options_, warm_seed(key), outcome);
    if (outcome.dual_path) carry(key, outcome);
    return alloc;
  }
  // The seeds point into the carry, which stays untouched until every
  // component is solved.
  std::vector<const std::vector<double>*> seeds(plan->num_components());
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    seeds[c] = warm_seed(plan->key(c));
  }
  ShardResult res = sharded_allocate(ctx, *plan, options_, seeds);
  for (std::size_t c = 0; c < res.outcomes.size(); ++c) {
    if (res.outcomes[c].dual_path) carry(plan->key(c), res.outcomes[c]);
  }
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
