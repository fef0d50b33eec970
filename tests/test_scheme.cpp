// Tests for the Scheme dispatch layer: correct algorithm selection per
// topology, agreement between the fast and distributed solvers inside the
// Proposed scheme, factory behaviour, and the warm-start carry discipline
// (keying, wall-clock expiry, and counting where the carry is consumed).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/scheme.h"
#include "core/waterfill.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

const std::vector<std::pair<std::size_t, std::size_t>> kPathEdges = {{0, 1},
                                                                     {1, 2}};

TEST(Scheme, FactoryAndNames) {
  EXPECT_EQ(make_scheme(SchemeKind::kProposed)->name(), "Proposed");
  EXPECT_EQ(make_scheme(SchemeKind::kHeuristic1)->name(), "Heuristic1");
  EXPECT_EQ(make_scheme(SchemeKind::kHeuristic2)->name(), "Heuristic2");
  EXPECT_STREQ(scheme_name(SchemeKind::kProposed), "Proposed");
  EXPECT_STREQ(scheme_name(SchemeKind::kHeuristic1), "Heuristic1");
  EXPECT_STREQ(scheme_name(SchemeKind::kHeuristic2), "Heuristic2");
}

TEST(Scheme, ProposedNonInterferingIsTheExactOptimum) {
  util::Rng rng(801);
  auto f = test::random_context(rng, 5, 2, 3);
  ProposedScheme scheme;
  const SlotAllocation a = scheme.allocate(f.ctx);
  const std::vector<double> gt(2, f.ctx.total_expected_channels());
  EXPECT_NEAR(a.objective,
              waterfill_solve(f.ctx, test::cache_for(f.ctx), gt).objective,
              1e-9);
  EXPECT_TRUE(a.feasible(f.ctx));
  // All channels handed to both (non-interfering spatial reuse).
  EXPECT_EQ(a.channels[0].size(), f.ctx.available.size());
  EXPECT_EQ(a.channels[1].size(), f.ctx.available.size());
  // No bound slack on the exact path.
  EXPECT_DOUBLE_EQ(a.upper_bound, a.objective);
}

TEST(Scheme, DistributedSolverAgreesWithFastPath) {
  util::Rng rng(809);
  auto f = test::random_context(rng, 4, 1, 3);
  ProposedScheme fast;
  DualOptions opts;  // tuned defaults
  ProposedScheme distributed(opts, /*use_distributed_solver=*/true);
  const SlotAllocation a = fast.allocate(f.ctx);
  const SlotAllocation b = distributed.allocate(f.ctx);
  EXPECT_NEAR(a.objective, b.objective, 5e-3 * std::abs(a.objective));
  EXPECT_GT(b.dual_iterations, 0u);
  EXPECT_EQ(a.dual_iterations, 0u);
}

TEST(Scheme, DistributedSolverWarmStartsAcrossSlots) {
  util::Rng rng(811);
  auto f = test::random_context(rng, 4, 1, 3);
  ProposedScheme distributed(DualOptions{}, /*use_distributed_solver=*/true);
  const SlotAllocation first = distributed.allocate(f.ctx);
  const SlotAllocation second = distributed.allocate(f.ctx);  // same slot
  EXPECT_LT(second.dual_iterations, first.dual_iterations / 2 + 10);
}

TEST(Scheme, ProposedInterferingUsesGreedyAndReportsBound) {
  util::Rng rng(821);
  auto f = test::random_context(rng, 6, 3, 3, kPathEdges);
  ProposedScheme scheme;
  const SlotAllocation a = scheme.allocate(f.ctx);
  EXPECT_TRUE(a.feasible(f.ctx));
  EXPECT_GE(a.upper_bound, a.objective - 1e-9);
  EXPECT_GE(a.objective, a.objective_empty - 1e-9);
}

TEST(Scheme, ProposedAndH2ProduceFeasibleAllocations) {
  // Heuristic 1 is exempt by design: its uncoordinated access violates the
  // interference constraint on interfering topologies (see heuristics.h).
  util::Rng rng(823);
  for (auto kind : {SchemeKind::kProposed, SchemeKind::kHeuristic2}) {
    auto scheme = make_scheme(kind);
    for (int trial = 0; trial < 5; ++trial) {
      auto f = test::random_context(rng, 6, 3, 4, kPathEdges);
      EXPECT_TRUE(scheme->allocate(f.ctx).feasible(f.ctx))
          << scheme->name() << " trial " << trial;
    }
  }
}

TEST(Scheme, ProposedObjectiveDominatesHeuristicsInterfering) {
  // The greedy is near-optimal rather than optimal, so on a rare contended
  // instance a heuristic's round-robin channel split can edge it out by a
  // hair; allow that sliver (~0.05% of objective) while requiring dominance
  // beyond it on every instance.
  util::Rng rng(827);
  constexpr double kSliver = 0.02;
  for (int trial = 0; trial < 10; ++trial) {
    auto f = test::random_context(rng, 6, 3, 3, kPathEdges);
    const double proposed =
        ProposedScheme().allocate(f.ctx).objective;
    EXPECT_GE(proposed + kSliver,
              EqualAllocationScheme().allocate(f.ctx).objective);
    EXPECT_GE(proposed + kSliver,
              MultiuserDiversityScheme().allocate(f.ctx).objective);
  }
}

// ----------------------------------------------- warm-start carry ----
//
// These tests measure core.dual.warm_start.hits deltas: on the distributed
// path every dual-path solve counts a hit when a carried price vector
// seeds it and a miss otherwise, so a hit means a carry was consumed.

TEST(Scheme, ShardWarmStartCarriesAcrossStableComponents) {
  // Positive control for the regressions below: when the component
  // structure is unchanged slot over slot, the fingerprint-keyed carry
  // must seed the repeated components (otherwise the two regression tests
  // would pass trivially with warm starts disabled outright).
  util::Rng rng(829);
  auto f = test::random_context(rng, 8, 4, 3, {{2, 3}});  // {0} {1} {2,3}
  ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
  util::Counter& hits = util::metrics().counter("core.dual.warm_start.hits");
  (void)scheme.allocate(f.ctx);
  const std::uint64_t h0 = hits.total();
  (void)scheme.allocate(f.ctx);
  EXPECT_GT(hits.total(), h0);
}

TEST(Scheme, ShardWarmStartGoesColdWhenComponentMembershipChanges) {
  // Regression: shard prices used to be carried by component *position*
  // whenever the component count matched. Slot A's components are
  // {0} {1} {2,3}; slot B's are {0,1} {2} {3} — same count, disjoint
  // membership everywhere. Pre-fix, position 1's stale single-FBS price
  // vector (from component {1}) seeded component {2} of slot B; keyed by
  // (min vertex, size) fingerprints, nothing matches and every component
  // must start cold.
  util::Rng rng(831);
  auto a = test::random_context(rng, 8, 4, 3, {{2, 3}});
  auto b = test::random_context(rng, 8, 4, 3, {{0, 1}});
  ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
  util::Counter& hits = util::metrics().counter("core.dual.warm_start.hits");
  (void)scheme.allocate(a.ctx);
  const std::uint64_t h0 = hits.total();
  (void)scheme.allocate(b.ctx);
  EXPECT_EQ(hits.total(), h0);
}

TEST(Scheme, ShardWarmPricesExpireOnWallClockSlots) {
  // Regression: the shard carry once aged only on interfering slots, so a
  // carry could survive an arbitrarily long edgeless stretch and seed a
  // far-stale solve. The contract is wall-clock slots: within
  // kMaxWarmAgeSlots the carry survives intervening edgeless slots, past
  // it the carry must be dropped even though no interfering slot aged it.
  util::Rng rng(837);
  auto interfering = test::random_context(rng, 8, 4, 3, {{2, 3}});
  auto edgeless = test::random_context(rng, 8, 4, 3);
  util::Counter& hits = util::metrics().counter("core.dual.warm_start.hits");
  {
    ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
    (void)scheme.allocate(interfering.ctx);
    for (int t = 0; t < 3; ++t) (void)scheme.allocate(edgeless.ctx);
    const std::uint64_t h0 = hits.total();
    (void)scheme.allocate(interfering.ctx);  // age 4: carry still live
    EXPECT_GT(hits.total(), h0);
  }
  {
    ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
    (void)scheme.allocate(interfering.ctx);
    for (int t = 0; t < 9; ++t) (void)scheme.allocate(edgeless.ctx);
    const std::uint64_t h0 = hits.total();
    (void)scheme.allocate(interfering.ctx);  // age 10 > 8: must go cold
    EXPECT_EQ(hits.total(), h0);
  }
}

TEST(Scheme, GlobalWarmPricesExpireOnWallClockSlots) {
  // Symmetric check for the whole-slot edgeless carry: a connected
  // interfering graph takes the monolithic greedy (no dual solves at all),
  // so it never refreshes that carry — but it must still age it.
  util::Rng rng(839);
  auto edgeless = test::random_context(rng, 8, 4, 3);
  auto connected =
      test::random_context(rng, 8, 4, 3, {{0, 1}, {1, 2}, {2, 3}});
  util::Counter& hits = util::metrics().counter("core.dual.warm_start.hits");
  {
    ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
    (void)scheme.allocate(edgeless.ctx);
    for (int t = 0; t < 3; ++t) (void)scheme.allocate(connected.ctx);
    const std::uint64_t h0 = hits.total();
    (void)scheme.allocate(edgeless.ctx);  // age 4: carry still live
    EXPECT_GT(hits.total(), h0);
  }
  {
    ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
    (void)scheme.allocate(edgeless.ctx);
    for (int t = 0; t < 9; ++t) (void)scheme.allocate(connected.ctx);
    const std::uint64_t h0 = hits.total();
    (void)scheme.allocate(edgeless.ctx);  // age 10 > 8: must go cold
    EXPECT_EQ(hits.total(), h0);
  }
}

TEST(Scheme, SingletonCarrySurvivesSlotsThatMergeItsFbs) {
  // A singleton's carry survives slots in which its FBS sits in a larger
  // component, aging like any other entry. Slot A's components are
  // {0} {1} {2,3}; slot B's are {0,1} {2} {3}, so B solves FBSs 0 and 1
  // by the greedy and seeds nothing for them. Back on A, both singletons
  // are seeded again while their carries are at most kMaxWarmAgeSlots old,
  // and start cold past that.
  util::Rng rng(841);
  auto a = test::random_context(rng, 8, 4, 3, {{2, 3}});
  auto b = test::random_context(rng, 8, 4, 3, {{0, 1}});
  util::Counter& hits = util::metrics().counter("core.dual.warm_start.hits");
  constexpr std::size_t kMaxAge = ProposedScheme::kMaxWarmAgeSlots;
  {
    ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
    (void)scheme.allocate(a.ctx);
    for (std::size_t t = 1; t < kMaxAge; ++t) (void)scheme.allocate(b.ctx);
    const std::uint64_t h0 = hits.total();
    (void)scheme.allocate(a.ctx);  // age kMaxAge: both carries still live
    EXPECT_EQ(hits.total(), h0 + 2);
  }
  {
    ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
    (void)scheme.allocate(a.ctx);
    for (std::size_t t = 0; t < kMaxAge; ++t) (void)scheme.allocate(b.ctx);
    const std::uint64_t h0 = hits.total();
    (void)scheme.allocate(a.ctx);  // age kMaxAge + 1: both must go cold
    EXPECT_EQ(hits.total(), h0);
  }
}

TEST(Scheme, WarmStartCountsEveryDualPathSolveOnce) {
  // Hits and misses are counted where the carry is consumed, once per
  // dual-path solve: a whole edgeless slot is one solve, a sharded slot
  // one per singleton component, a connected interfering slot none.
  util::Rng rng(843);
  auto edgeless = test::random_context(rng, 8, 4, 3);
  auto a = test::random_context(rng, 8, 4, 3, {{2, 3}});  // {0} {1} {2,3}
  auto b = test::random_context(rng, 8, 4, 3, {{0, 1}});  // {0,1} {2} {3}
  auto connected =
      test::random_context(rng, 8, 4, 3, {{0, 1}, {1, 2}, {2, 3}});
  util::Counter& hits = util::metrics().counter("core.dual.warm_start.hits");
  util::Counter& misses =
      util::metrics().counter("core.dual.warm_start.misses");
  util::Counter& solves = util::metrics().counter("core.dual.solves");
  const std::uint64_t h0 = hits.total();
  const std::uint64_t m0 = misses.total();
  const std::uint64_t s0 = solves.total();
  ProposedScheme scheme(DualOptions{}, /*use_distributed_solver=*/true);
  std::uint64_t dual_path_solves = 0;
  for (const auto* f : {&edgeless, &a, &b, &edgeless, &connected, &a, &b}) {
    (void)scheme.allocate(f->ctx);
    dual_path_solves += f == &edgeless ? 1 : f == &connected ? 0 : 2;
  }
  EXPECT_EQ(solves.total() - s0, dual_path_solves);
  EXPECT_EQ((hits.total() - h0) + (misses.total() - m0), dual_path_solves);
  EXPECT_GT(hits.total(), h0);
}

}  // namespace
}  // namespace femtocr::core
