// Polymorphic allocation-scheme interface used by the simulator.
//
// A Scheme maps the slot's observable state to a complete allocation.
// The Proposed scheme dispatches exactly as the paper does: the
// optimum-achieving dual algorithm when no FBSs interfere (Sections
// IV-A/B), the greedy channel allocation plus inner solve when they do
// (Section IV-C). Heuristics 1 and 2 are the comparison baselines of
// Section V. Schemes may keep state across slots (the Proposed scheme warm
// starts its dual prices from the previous slot).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dual_solver.h"
#include "core/shard.h"
#include "core/slot_cache.h"
#include "core/types.h"

namespace femtocr::core {

class Scheme {
 public:
  virtual ~Scheme() = default;
  virtual std::string name() const = 0;
  virtual SlotAllocation allocate(const SlotContext& ctx) = 0;

  /// Hooks for seeding prices into a scheme before its first allocate()
  /// and reading its carry back out. No library scheme uses them (the
  /// Proposed scheme's carries stay inside it); they remain because
  /// perfbench's CheckedScheme forwards both.
  virtual void seed_prices(std::vector<double> /*lambda*/) {}
  virtual const std::vector<double>* carried_prices() const { return nullptr; }
};

enum class SchemeKind {
  kProposed,    ///< dual decomposition / greedy (the paper's contribution)
  kHeuristic1,  ///< equal allocation
  kHeuristic2,  ///< multiuser diversity
};

const char* scheme_name(SchemeKind kind);

/// The paper's algorithm. By default the per-slot convex program is solved
/// with the exact water-filling solver (same optimum as the distributed
/// subgradient of Tables I/II — tests pin the agreement — at a fraction of
/// the iterations). Construct with `use_distributed_solver = true` to run
/// the literal Table I/II message-passing algorithm instead, warm-starting
/// the prices from the previous slot.
class ProposedScheme final : public Scheme {
 public:
  /// Staleness bound on the carried prices: a seed older than this many
  /// allocate() calls (slots the dual path did not refresh it — fault
  /// bypasses, interfering slots, non-converged solves) is discarded and
  /// the next solve starts cold, so churn cannot poison the seed price.
  static constexpr std::size_t kMaxWarmAgeSlots = 8;

  explicit ProposedScheme(DualOptions options = {},
                          bool use_distributed_solver = false);
  std::string name() const override { return "Proposed"; }
  SlotAllocation allocate(const SlotContext& ctx) override;

 private:
  /// One component's carried prices plus the fingerprint they belong to.
  /// A seed is consumed only by a component with the *same* fingerprint
  /// (smallest global FBS + size) — matching on component count alone let
  /// mobility/churn feed prices for one set of femtocells into another.
  struct ShardCarry {
    ShardPlan::ComponentKey key;
    std::vector<double> lambda;  ///< empty = nothing carried for this key
  };

  /// Decomposition of `graph`, cached across slots keyed on the graph's
  /// (pointer, version) pair. The version stamp is process-unique per
  /// structural mutation (net/interference_graph.h), so a hit guarantees
  /// the pointee is the graph the plan was built from — incremental edge
  /// flips by the engine invalidate the cache automatically.
  const ShardPlan& shard_plan(const net::InterferenceGraph& graph);

  ShardOptions options_;  ///< solver choice + dual options, every path
  std::vector<double> warm_lambda_;  ///< prices carried across slots
  std::size_t warm_age_ = 0;  ///< allocate() calls since the carry was fresh
  /// Sharded-slot warm prices, fingerprint-keyed (see ShardCarry). Aged
  /// every allocate() call — the kMaxWarmAgeSlots bound is wall-clock
  /// slots, symmetric with warm_lambda_'s.
  std::vector<ShardCarry> shard_warm_;
  std::size_t shard_warm_age_ = 0;
  std::vector<std::vector<double>> shard_seed_;  ///< per-slot scratch, reused
  const net::InterferenceGraph* plan_graph_ = nullptr;
  std::uint64_t plan_version_ = 0;
  ShardPlan plan_;
  SlotCache cache_;  ///< rebuilt each slot; buffers persist across slots
};

class EqualAllocationScheme final : public Scheme {
 public:
  std::string name() const override { return "Heuristic1"; }
  SlotAllocation allocate(const SlotContext& ctx) override;
};

class MultiuserDiversityScheme final : public Scheme {
 public:
  std::string name() const override { return "Heuristic2"; }
  SlotAllocation allocate(const SlotContext& ctx) override;
};

/// `use_distributed_solver` only affects kProposed (see ProposedScheme).
std::unique_ptr<Scheme> make_scheme(SchemeKind kind, DualOptions options = {},
                                    bool use_distributed_solver = false);

}  // namespace femtocr::core
