// Polymorphic allocation-scheme interface used by the simulator.
//
// A Scheme maps the slot's observable state to a complete allocation.
// The Proposed scheme dispatches exactly as the paper does: the
// optimum-achieving dual algorithm when no FBSs interfere (Sections
// IV-A/B), the greedy channel allocation plus inner solve when they do
// (Section IV-C). Heuristics 1 and 2 are the comparison baselines of
// Section V. Schemes may keep state across slots (on the distributed path
// the Proposed scheme warm starts each dual solve from the prices its FBS
// set last converged to).
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
/// the literal Table I/II message-passing algorithm instead.
///
/// On that path the scheme keeps one warm-start carry: per FBS set, the
/// prices its last dual-path solve converged to. A dual-path solve is either
/// the whole slot (key {0, num_fbs}) or a singleton component of a sharded
/// slot (key {i, 1}), so a key names its FBS set exactly and one set's
/// prices never seed another's solve. A solve replaces its key's entry with
/// its converged prices, or erases it when it did not converge; water-
/// filling and greedy solves leave the carry alone.
class ProposedScheme final : public Scheme {
 public:
  /// Staleness bound on the carried prices: every allocate() ages every
  /// entry, and an entry older than this many calls (slots that did not
  /// refresh it — fault bypasses, interfering slots, slots in which its
  /// FBS was not a singleton) is dropped, so the next solve of its FBS set
  /// starts cold and churn cannot poison the seed price.
  static constexpr std::size_t kMaxWarmAgeSlots = 8;

  explicit ProposedScheme(DualOptions options = {},
                          bool use_distributed_solver = false);
  std::string name() const override { return "Proposed"; }
  SlotAllocation allocate(const SlotContext& ctx) override;

 private:
  /// The converged prices of one FBS set's last dual-path solve.
  struct WarmEntry {
    ShardPlan::ComponentKey key;
    std::vector<double> lambda;
    std::size_t age = 0;  ///< allocate() calls since the solve
  };

  /// The carried prices of `key`, or null.
  const std::vector<double>* warm_seed(ShardPlan::ComponentKey key) const;
  /// Records the dual-path solve `outcome` of `key`.
  void carry(ShardPlan::ComponentKey key, ComponentOutcome& outcome);

  /// Decomposition of `graph`, cached across slots keyed on the graph's
  /// (pointer, version) pair. The version stamp is process-unique per
  /// structural mutation (net/interference_graph.h), so a hit guarantees
  /// the pointee is the graph the plan was built from — incremental edge
  /// flips by the engine invalidate the cache automatically.
  const ShardPlan& shard_plan(const net::InterferenceGraph& graph);

  ShardOptions options_;  ///< solver choice + dual options, every path
  std::vector<WarmEntry> warm_;  ///< the carry, at most one entry per key
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
