// Determinism suite for the parallel replication engine: every summary a
// bench can print must be **bitwise identical** for any thread count,
// including 1, and identical to a hand-rolled serial loop over the
// Simulator. This is the contract that lets --threads be a pure
// performance knob — if any of these EXPECT_EQs on doubles ever needs a
// tolerance, the engine has started changing WHAT is computed, not WHEN.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/scheme.h"
#include "core/scratch.h"
#include "core/shard.h"
#include "core/slot_cache.h"
#include "core/types.h"
#include "core/waterfill.h"
#include "net/interference_graph.h"
#include "net/topology.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/sweeps.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace femtocr;

sim::Scenario small_scenario() {
  sim::Scenario s = sim::single_fbs_scenario(/*seed=*/7);
  s.num_gops = 3;  // keep each replication cheap; coverage comes from runs
  s.finalize();
  return s;
}

void expect_stat_identical(const util::RunningStat& a,
                           const util::RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  // Exact double equality is deliberate: same seeds + same fold order
  // must give the same bits regardless of which worker ran what.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_summary_identical(const sim::SchemeSummary& a,
                              const sim::SchemeSummary& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.runs, b.runs);
  expect_stat_identical(a.mean_psnr, b.mean_psnr);
  expect_stat_identical(a.bound_psnr, b.bound_psnr);
  ASSERT_EQ(a.per_user.size(), b.per_user.size());
  for (std::size_t j = 0; j < a.per_user.size(); ++j) {
    expect_stat_identical(a.per_user[j], b.per_user[j]);
  }
  expect_stat_identical(a.collision_rate, b.collision_rate);
  expect_stat_identical(a.avg_available, b.avg_available);
  expect_stat_identical(a.avg_expected_channels, b.avg_expected_channels);
}

/// Runs `body` under each thread count and checks the outputs against the
/// threads=1 reference.
struct ThreadDefaultGuard {
  ~ThreadDefaultGuard() { femtocr::util::set_default_threads(0); }
};

TEST(Determinism, SweepBitwiseIdenticalAcrossThreadCounts) {
  ThreadDefaultGuard guard;
  const sim::Scenario base = small_scenario();
  const std::vector<double> xs = {0.4, 0.6};
  const auto apply = [](sim::Scenario& s, double eta) {
    s.set_utilization(eta);
    s.finalize();
  };
  constexpr std::size_t kRuns = 5;

  util::set_default_threads(1);
  const auto reference = sim::sweep(base, xs, apply, kRuns);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    const auto rows = sim::sweep(base, xs, apply, kRuns);
    ASSERT_EQ(rows.size(), reference.size()) << "threads=" << threads;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      EXPECT_EQ(rows[p].x, reference[p].x);
      ASSERT_EQ(rows[p].schemes.size(), reference[p].schemes.size());
      for (std::size_t k = 0; k < rows[p].schemes.size(); ++k) {
        expect_summary_identical(rows[p].schemes[k],
                                 reference[p].schemes[k]);
      }
    }
  }
}

TEST(Determinism, RunAllSchemesBitwiseIdenticalAcrossThreadCounts) {
  ThreadDefaultGuard guard;
  const sim::Scenario scenario = small_scenario();
  constexpr std::size_t kRuns = 6;

  util::set_default_threads(1);
  const auto reference = sim::run_all_schemes(scenario, kRuns);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    const auto summaries = sim::run_all_schemes(scenario, kRuns);
    ASSERT_EQ(summaries.size(), reference.size());
    for (std::size_t k = 0; k < summaries.size(); ++k) {
      expect_summary_identical(summaries[k], reference[k]);
    }
  }
}

TEST(Determinism, EngineMatchesHandRolledSerialLoop) {
  // Pins the (seed, run) contract itself: the engine must agree with a
  // plain serial loop over the Simulator — the pre-parallel code path.
  ThreadDefaultGuard guard;
  const sim::Scenario scenario = small_scenario();
  constexpr std::size_t kRuns = 4;

  sim::SchemeSummary serial;
  serial.kind = core::SchemeKind::kProposed;
  serial.runs = kRuns;
  serial.per_user.resize(scenario.users.size());
  for (std::size_t r = 0; r < kRuns; ++r) {
    sim::Simulator simulation(scenario, core::SchemeKind::kProposed, r);
    const sim::RunResult res = simulation.run();
    serial.mean_psnr.add(res.mean_psnr);
    serial.bound_psnr.add(res.mean_bound_psnr);
    for (std::size_t j = 0; j < res.user_mean_psnr.size(); ++j) {
      serial.per_user[j].add(res.user_mean_psnr[j]);
    }
    serial.collision_rate.add(res.collision_rate);
    serial.avg_available.add(res.avg_available);
    serial.avg_expected_channels.add(res.avg_expected_channels);
  }

  util::set_default_threads(4);
  const sim::SchemeSummary parallel =
      sim::run_experiment(scenario, core::SchemeKind::kProposed, kRuns);
  expect_summary_identical(parallel, serial);
}

TEST(Determinism, RunResultsOrderedByRunIndex) {
  ThreadDefaultGuard guard;
  const sim::Scenario scenario = small_scenario();
  util::set_default_threads(8);
  const auto results =
      sim::run_results(scenario, core::SchemeKind::kProposed, 5);
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t r = 0; r < results.size(); ++r) {
    // Slot r must hold run r: rerunning run r alone reproduces it.
    sim::Simulator simulation(scenario, core::SchemeKind::kProposed, r);
    const sim::RunResult solo = simulation.run();
    EXPECT_EQ(results[r].mean_psnr, solo.mean_psnr) << "run " << r;
    EXPECT_EQ(results[r].collision_rate, solo.collision_rate) << "run " << r;
  }
}

TEST(Determinism, MetricsCollectionDoesNotPerturbResults) {
  // The observability contract: flipping the metrics kill switch must not
  // change a single bit of any simulation result. Metric ops draw no
  // randomness and never feed back into the solvers.
  ThreadDefaultGuard guard;
  const bool prev_enabled = util::metrics_enabled();
  const sim::Scenario scenario = small_scenario();
  constexpr std::size_t kRuns = 4;
  util::set_default_threads(2);

  util::set_metrics_enabled(true);
  const auto with_metrics = sim::run_all_schemes(scenario, kRuns);
  util::set_metrics_enabled(false);
  const auto without_metrics = sim::run_all_schemes(scenario, kRuns);
  util::set_metrics_enabled(prev_enabled);

  ASSERT_EQ(with_metrics.size(), without_metrics.size());
  for (std::size_t k = 0; k < with_metrics.size(); ++k) {
    expect_summary_identical(with_metrics[k], without_metrics[k]);
  }
}

TEST(Determinism, MetricCountersInvariantAcrossThreadCounts) {
  // Integer counter totals are part of the determinism story: the same
  // work folded from any number of shards must give the same counts.
  ThreadDefaultGuard guard;
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  const sim::Scenario scenario = small_scenario();
  constexpr std::size_t kRuns = 4;
  // Note: core.dual.iterations no longer moves here — the analytic
  // breakpoint solver replaced the water-level bisection that used to feed
  // it on the waterfill path (docs/OBSERVABILITY.md); level_solves is the
  // solver-work counter this path still drives.
  util::Counter& iters = util::metrics().counter("core.waterfill.level_solves");
  util::Counter& slots = util::metrics().counter("sim.slots");

  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    util::metrics().reset();
    (void)sim::run_all_schemes(scenario, kRuns);
    totals.emplace_back(iters.total(), slots.total());
  }
  util::set_metrics_enabled(prev_enabled);
  EXPECT_GT(totals[0].first, 0u);
  EXPECT_GT(totals[0].second, 0u);
  for (std::size_t r = 1; r < totals.size(); ++r) {
    EXPECT_EQ(totals[r], totals[0]) << "thread run " << r;
  }
}

TEST(Determinism, GreedyWaterfillCountersInvariantAcrossThreadCounts) {
  // A top-level greedy_allocate runs on the calling thread under one memo
  // scope, which starts empty; it skips the candidates whose trial vector
  // a lower index has, and keeps one best. So every counter is a function
  // of the work: identical at 1, 2 and 8 threads and across repeats, as is
  // the allocation. (The test above runs the greedy inside replication
  // workers.) The second context repeats its posteriors, so the skip runs.
  // The third, 8 FBSs on a ring with 24 users, fills the memo, which then
  // empties, so the reset points are pinned too. Every context's climbs
  // prune moves by their duality bound, so core.waterfill.climb.pruned is
  // pinned beside the solves it saves, and every context's scan skips
  // candidates by theirs, so core.greedy.candidates_pruned is pinned
  // beside the climbs it saves.
  ThreadDefaultGuard guard;
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  const sim::Scenario s = sim::interfering_scenario(/*seed=*/1);
  const net::Topology topo(s.mbs, s.fbss, s.users, s.radio);
  const auto topo_context = [&](bool repeated) {
    util::Rng rng(4242);
    core::SlotContext ctx;
    ctx.num_fbs = topo.num_fbs();
    ctx.graph = &topo.graph();
    for (std::size_t m = 0; m < 8; ++m) {
      ctx.available.push_back(m);
      ctx.posterior.push_back(rng.uniform(0.4, 1.0));
      if (repeated && m >= 3) ctx.posterior[m] = ctx.posterior[m % 3];
    }
    for (std::size_t j = 0; j < topo.num_users(); ++j) {
      core::UserState u;
      u.psnr = rng.uniform(28.0, 40.0);
      u.set_link_success(topo.mbs_link(j).success_probability(),
                         topo.fbs_link(j).success_probability());
      u.rate_mbs = rng.uniform(0.45, 0.7);
      u.rate_fbs = rng.uniform(0.45, 0.7);
      u.fbs = topo.user(j).fbs;
      ctx.users.push_back(u);
    }
    return ctx;
  };
  std::vector<std::pair<std::size_t, std::size_t>> ring_edges;
  for (std::size_t i = 0; i < 8; ++i) ring_edges.emplace_back(i, (i + 1) % 8);
  util::Rng ring_rng(4242);
  const test::ContextFixture ring =
      test::random_context(ring_rng, /*num_users=*/24, /*num_fbs=*/8,
                           /*num_channels=*/3, ring_edges);
  util::Counter& levels = util::metrics().counter("core.waterfill.level_solves");
  util::Counter& bp_events =
      util::metrics().counter("core.waterfill.breakpoint.events");
  util::Counter& solves = util::metrics().counter("core.waterfill.solves");
  util::Counter& evals = util::metrics().counter("core.greedy.candidate_evals");
  util::Counter& pruned =
      util::metrics().counter("core.waterfill.climb.pruned");
  util::Counter& cand_pruned =
      util::metrics().counter("core.greedy.candidates_pruned");
  for (const int variant : {0, 1, 2}) {
    const bool repeated = variant == 1;
    const bool overflow = variant == 2;
    const core::SlotContext ctx = overflow ? ring.ctx : topo_context(repeated);
    ASSERT_GT(ctx.graph->num_edges(), 0u);  // the greedy path, not edgeless
    core::SlotCache cache;
    cache.build(ctx);

    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> counters;
    std::vector<double> objectives;
    std::vector<std::uint32_t> generations;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        util::set_default_threads(threads);
        util::metrics().reset();
        const std::uint32_t before =
            core::slot_scratch().memo.table.generation;
        const core::GreedyResult g = core::greedy_allocate(ctx, cache);
        generations.push_back(core::slot_scratch().memo.table.generation -
                              before);
        counters.push_back(util::metrics().snapshot().counters);
        objectives.push_back(g.allocation.objective);
      }
    }
    // The registry still holds the last run. One solve for Q(empty), then
    // one climb or one pruned candidate per distinct trial: repeated
    // posteriors must skip climbs, distinct ones none.
    EXPECT_GT(levels.total(), 0u);
    EXPECT_GT(bp_events.total(), 0u);
    EXPECT_GT(pruned.total(), 0u) << "context " << variant << " never pruned";
    EXPECT_GT(cand_pruned.total(), 0u)
        << "context " << variant << " never pruned a candidate";
    if (repeated) {
      EXPECT_LT(solves.total() + cand_pruned.total(), 1 + evals.total());
    } else {
      EXPECT_EQ(solves.total() + cand_pruned.total(), 1 + evals.total());
    }
    // One generation for the call's own scope; any more are clears forced
    // by a full memo.
    if (overflow) {
      EXPECT_GT(generations[0], 1u) << "the ring context never fills the memo";
    }
    for (std::size_t r = 1; r < counters.size(); ++r) {
      EXPECT_EQ(counters[r], counters[0]) << "run " << r << ", context "
                                          << variant;
      EXPECT_EQ(objectives[r], objectives[0]) << "run " << r;
      EXPECT_EQ(generations[r], generations[0]) << "run " << r;
    }
  }
  util::set_metrics_enabled(prev_enabled);
}

// ----------------------------------------------- shard equivalence tier ----
//
// The component-sharded slot solve (core/shard.h) must be bitwise
// deterministic for any thread count, invariant under the metrics kill
// switch, and identical to a hand-composed per-component solve written
// independently of the library's fold — on topologies mixing interfering
// components (greedy path) with edgeless ones (waterfill/dual path).

struct ShardFixture {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;

  /// Nine FBSs, components {0,1,2}, {3}, {4,5}, {6}, {7,8}: two greedy
  /// components, three edgeless ones. Users interleave across cells in
  /// ascending global order; everything else is seed-derived.
  static ShardFixture make(std::uint64_t seed) {
    return build(seed, 9, {{0, 1}, {1, 2}, {4, 5}, {7, 8}},
                 /*idle_fbs=*/9);  // 9 names no FBS: every cell serves
  }

  /// Ten FBSs, components {0,1}, {2}, {3,4}, {5}, {6,7,8,9}: the heaviest
  /// component has the highest index, as the city grid's component 107 of
  /// 109 is among its heaviest, so longest-first dispatch starts it first.
  /// FBS 5 serves no user, so component 3 is empty.
  static ShardFixture make_tail_heavy(std::uint64_t seed) {
    return build(seed, 10, {{0, 1}, {3, 4}, {6, 7}, {7, 8}, {8, 9}},
                 /*idle_fbs=*/5);
  }

 private:
  /// Two users per FBS except `idle_fbs`, four channels, seed-derived draws.
  static ShardFixture build(
      std::uint64_t seed, std::size_t num_fbs,
      const std::vector<std::pair<std::size_t, std::size_t>>& edges,
      std::size_t idle_fbs) {
    constexpr std::size_t kUsersPerFbs = 2;
    constexpr std::size_t kChannels = 4;
    ShardFixture f;
    f.graph = std::make_unique<net::InterferenceGraph>(
        net::InterferenceGraph::from_edges(num_fbs, edges));
    f.ctx.num_fbs = num_fbs;
    f.ctx.graph = f.graph.get();
    util::Rng rng(seed);
    for (std::size_t m = 0; m < kChannels; ++m) {
      f.ctx.available.push_back(m);
      f.ctx.posterior.push_back(rng.uniform(0.4, 1.0));
    }
    for (std::size_t j = 0; j < kUsersPerFbs * num_fbs; ++j) {
      if (j % num_fbs == idle_fbs) continue;
      core::UserState u;
      u.psnr = rng.uniform(28.0, 42.0);
      u.success_mbs = rng.uniform(0.55, 0.98);
      u.success_fbs = rng.uniform(0.55, 0.98);
      u.rate_mbs = rng.uniform(0.45, 0.7);
      u.rate_fbs = rng.uniform(0.45, 0.7);
      u.fbs = j % num_fbs;
      f.ctx.users.push_back(u);
    }
    return f;
  }
};

void expect_allocation_identical(const core::SlotAllocation& a,
                                 const core::SlotAllocation& b) {
  EXPECT_EQ(a.use_mbs, b.use_mbs);
  EXPECT_EQ(a.rho_mbs, b.rho_mbs);  // exact doubles: same bits or bust
  EXPECT_EQ(a.rho_fbs, b.rho_fbs);
  EXPECT_EQ(a.channels, b.channels);
  EXPECT_EQ(a.expected_channels, b.expected_channels);
  EXPECT_EQ(a.user_expected_channels, b.user_expected_channels);
  EXPECT_EQ(a.user_channel, b.user_channel);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.upper_bound, b.upper_bound);
  EXPECT_EQ(a.objective_empty, b.objective_empty);
  EXPECT_EQ(a.dual_iterations, b.dual_iterations);
}

TEST(ShardEquivalence, BitwiseIdenticalAcrossThreadCounts) {
  ThreadDefaultGuard guard;
  for (const bool distributed : {false, true}) {
    const ShardFixture f = ShardFixture::make(41);
    const core::ShardPlan plan = core::ShardPlan::build(*f.ctx.graph);
    ASSERT_GT(plan.num_components(), 1u);
    core::ShardOptions options;
    options.use_distributed_solver = distributed;

    util::set_default_threads(1);
    const core::ShardResult reference =
        core::sharded_allocate(f.ctx, plan, options);
    EXPECT_TRUE(reference.allocation.feasible(f.ctx));

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      util::set_default_threads(threads);
      const core::ShardResult res =
          core::sharded_allocate(f.ctx, plan, options);
      EXPECT_EQ(res.num_components, reference.num_components);
      EXPECT_EQ(res.max_component_size, reference.max_component_size);
      expect_allocation_identical(res.allocation, reference.allocation);
      ASSERT_EQ(res.outcomes.size(), reference.outcomes.size());
      for (std::size_t c = 0; c < res.outcomes.size(); ++c) {
        EXPECT_EQ(res.outcomes[c].dual_path, reference.outcomes[c].dual_path);
        EXPECT_EQ(res.outcomes[c].converged, reference.outcomes[c].converged);
        EXPECT_EQ(res.outcomes[c].lambda, reference.outcomes[c].lambda);
      }
    }
  }
}

/// Independent recomposition: extracts each component BY HAND (own remap
/// code, not make_component_problems), solves it with the same library
/// solvers the shard engine dispatches to, and scatters, sums and projects
/// in component-index order by hand. A component without users contributes
/// the zeros it starts from; `empty_components` counts them.
core::SlotAllocation hand_composed_solve(const core::SlotContext& ctx,
                                         std::size_t& empty_components) {
  core::SlotAllocation expected = core::SlotAllocation::zeros(ctx);
  double sum_mbs = 0.0;
  empty_components = 0;
  for (const auto& comp : ctx.graph->components()) {
    // Local subproblem: FBS k of the sub-context is comp[k]; its users
    // are ctx's users of those cells in ascending global order.
    core::SlotContext sub;
    sub.num_fbs = comp.size();
    sub.available = ctx.available;
    sub.posterior = ctx.posterior;
    const net::InterferenceGraph sub_graph = ctx.graph->induced_subgraph(comp);
    sub.graph = &sub_graph;
    std::vector<std::size_t> users;  // global index of local user k
    for (std::size_t j = 0; j < ctx.users.size(); ++j) {
      for (std::size_t k = 0; k < comp.size(); ++k) {
        if (ctx.users[j].fbs == comp[k]) {
          core::UserState u = ctx.users[j];
          u.fbs = k;
          sub.users.push_back(u);
          users.push_back(j);
        }
      }
    }
    if (sub.users.empty()) {
      ++empty_components;
      continue;
    }

    core::SlotCache cache;
    cache.build(sub);
    core::SlotAllocation alloc;
    if (sub.graph->num_edges() == 0) {
      const std::vector<double> gt(sub.num_fbs, sub.total_expected_channels());
      alloc = core::waterfill_solve(sub, cache, gt);
      alloc.channels.assign(sub.num_fbs, sub.available);
      alloc.objective_empty = alloc.objective;
    } else {
      alloc = core::greedy_allocate(sub, cache).allocation;
    }

    for (std::size_t k = 0; k < comp.size(); ++k) {
      expected.channels[comp[k]] = alloc.channels[k];
      expected.expected_channels[comp[k]] = alloc.expected_channels[k];
    }
    for (std::size_t k = 0; k < users.size(); ++k) {
      expected.use_mbs[users[k]] = alloc.use_mbs[k];
      expected.rho_mbs[users[k]] = alloc.rho_mbs[k];
      expected.rho_fbs[users[k]] = alloc.rho_fbs[k];
      sum_mbs += alloc.rho_mbs[k];
    }
    expected.upper_bound += alloc.upper_bound;
    expected.objective_empty += alloc.objective_empty;
    expected.dual_iterations += alloc.dual_iterations;
  }
  if (sum_mbs > 1.0) {
    // Multiply by the reciprocal, exactly as the library's fold does —
    // x / s and x * (1 / s) can differ in the last ULP.
    const double scale_mbs = 1.0 / sum_mbs;
    for (double& rho : expected.rho_mbs) rho *= scale_mbs;
  }
  expected.objective = core::slot_objective(ctx, expected);
  return expected;
}

TEST(ShardEquivalence, MatchesHandComposedPerComponentSolve) {
  // sharded_allocate must equal the hand-composed solve bit for bit.
  ThreadDefaultGuard guard;
  util::set_default_threads(1);
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{17},
                                   std::uint64_t{29}}) {
    const ShardFixture f = ShardFixture::make(seed);
    const core::SlotContext& ctx = f.ctx;
    std::size_t empty_components = 0;
    const core::SlotAllocation expected =
        hand_composed_solve(ctx, empty_components);
    ASSERT_EQ(empty_components, 0u);  // fixture covers every cell

    const core::ShardPlan plan = core::ShardPlan::build(*ctx.graph);
    const core::ShardResult res = core::sharded_allocate(ctx, plan);
    expect_allocation_identical(res.allocation, expected);
    EXPECT_TRUE(res.allocation.feasible(ctx));
  }
}

TEST(ShardEquivalence, LongestFirstDispatchKeepsTheIndexOrderFold) {
  // The tail-heavy fixture's heaviest component is its last, so longest-
  // first dispatch starts it first and the others finish in an order that
  // differs from the fold's. The allocation must still be the hand-composed
  // index-order fold, bit for bit, at every thread count; every core.*
  // counter and timer call count must be the same at every thread count;
  // and core.shard.component must time each component once, the empty one
  // included. A fold in dispatch order sums the bounds in another order,
  // which changes their last bits for seeds 17 and 29.
  ThreadDefaultGuard guard;
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  util::Counter& components = util::metrics().counter("core.shard.components");
  util::TimerStat& component = util::metrics().timer("core.shard.component");
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{17},
                                   std::uint64_t{29}}) {
    const ShardFixture f = ShardFixture::make_tail_heavy(seed);
    const core::ShardPlan plan = core::ShardPlan::build(*f.ctx.graph);
    ASSERT_EQ(plan.num_components(), 5u);
    const std::vector<std::size_t> order =
        core::dispatch_order(core::make_component_problems(f.ctx, plan));
    ASSERT_EQ(order.front(), plan.num_components() - 1);

    util::set_default_threads(1);
    std::size_t empty_components = 0;
    const core::SlotAllocation expected =
        hand_composed_solve(f.ctx, empty_components);
    ASSERT_EQ(empty_components, 1u);

    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> calls;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      util::set_default_threads(threads);
      util::metrics().reset();
      const core::ShardResult res = core::sharded_allocate(f.ctx, plan);
      expect_allocation_identical(res.allocation, expected);
      EXPECT_EQ(components.total(), 5u);
      EXPECT_EQ(component.count(), components.total())
          << "seed " << seed << ", threads=" << threads;

      const util::MetricsSnapshot snap = util::metrics().snapshot();
      std::vector<std::pair<std::string, std::uint64_t>> core_calls;
      for (const auto& [name, value] : snap.counters) {
        if (name.rfind("core.", 0) == 0) core_calls.emplace_back(name, value);
      }
      for (const auto& [name, timer] : snap.timers) {
        if (name.rfind("core.", 0) == 0) {
          core_calls.emplace_back(name + " (calls)", timer.count);
        }
      }
      calls.push_back(std::move(core_calls));
    }
    for (std::size_t r = 1; r < calls.size(); ++r) {
      EXPECT_EQ(calls[r], calls[0]) << "seed " << seed << ", thread run " << r;
    }
  }
  util::set_metrics_enabled(prev_enabled);
}

TEST(ShardEquivalence, MetricsKillSwitchDoesNotPerturbShardedSolve) {
  ThreadDefaultGuard guard;
  util::set_default_threads(2);
  const bool prev_enabled = util::metrics_enabled();
  const ShardFixture f = ShardFixture::make(59);
  const core::ShardPlan plan = core::ShardPlan::build(*f.ctx.graph);

  util::set_metrics_enabled(true);
  const core::ShardResult with_metrics = core::sharded_allocate(f.ctx, plan);
  util::set_metrics_enabled(false);
  const core::ShardResult without_metrics =
      core::sharded_allocate(f.ctx, plan);
  util::set_metrics_enabled(prev_enabled);

  expect_allocation_identical(with_metrics.allocation,
                              without_metrics.allocation);
}

TEST(ShardEquivalence, ShardCountersInvariantAcrossThreadCounts) {
  ThreadDefaultGuard guard;
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  util::Counter& solves = util::metrics().counter("core.shard.solves");
  util::Counter& components = util::metrics().counter("core.shard.components");

  std::vector<std::pair<std::uint64_t, std::uint64_t>> totals;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    util::metrics().reset();
    const ShardFixture f = ShardFixture::make(71);
    const core::ShardPlan plan = core::ShardPlan::build(*f.ctx.graph);
    (void)core::sharded_allocate(f.ctx, plan);
    totals.emplace_back(solves.total(), components.total());
  }
  util::set_metrics_enabled(prev_enabled);
  EXPECT_EQ(totals[0].first, 1u);
  EXPECT_EQ(totals[0].second, 5u);  // the fixture's component count
  for (std::size_t r = 1; r < totals.size(); ++r) {
    EXPECT_EQ(totals[r], totals[0]) << "thread run " << r;
  }
}

TEST(ShardEquivalence, ProposedSchemeRoutesThroughTheShardEngine) {
  // On a multi-component interfering slot the scheme's allocate() must be
  // exactly the shard engine's answer — both solver modes, fresh state.
  ThreadDefaultGuard guard;
  util::set_default_threads(2);
  for (const bool distributed : {false, true}) {
    const ShardFixture f = ShardFixture::make(97);
    const core::ShardPlan plan = core::ShardPlan::build(*f.ctx.graph);
    core::ShardOptions options;
    options.use_distributed_solver = distributed;
    const core::ShardResult direct =
        core::sharded_allocate(f.ctx, plan, options);

    core::ProposedScheme scheme({}, distributed);
    const core::SlotAllocation via_scheme = scheme.allocate(f.ctx);
    expect_allocation_identical(via_scheme, direct.allocation);
  }
}

// ------------------------------------------------ longest-first dispatch ----

/// A hand-built component of `fbs` FBSs, joined in a path when `edged`,
/// serving `users` users: the shape is all dispatch_order reads.
core::ComponentProblem shaped_component(std::size_t fbs, std::size_t users,
                                        bool edged) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; edged && i + 1 < fbs; ++i) {
    edges.emplace_back(i, i + 1);
  }
  core::ComponentProblem p;
  p.graph = net::InterferenceGraph::from_edges(fbs, edges);
  p.ctx.num_fbs = fbs;
  p.ctx.users.resize(users);
  return p;
}

TEST(ShardDispatch, HeaviestFirstTiesByIndexEdgelessAndEmptyLast) {
  std::vector<core::ComponentProblem> problems;
  problems.push_back(shaped_component(2, 2, true));    // 0: 2^2 x 2 = 8
  problems.push_back(shaped_component(1, 40, false));  // 1: edgeless, 40
  problems.push_back(shaped_component(4, 0, true));    // 2: empty
  problems.push_back(shaped_component(2, 1, true));    // 3: 1^2 x 2 = 2
  problems.push_back(shaped_component(1, 0, false));   // 4: empty
  problems.push_back(shaped_component(1, 3, false));   // 5: edgeless, 3
  problems.push_back(shaped_component(8, 1, true));    // 6: 1^2 x 8 = 8
  problems.push_back(shaped_component(5, 16, true));   // 7: 16^2 x 5 = 1280
  const std::vector<std::size_t> order = core::dispatch_order(problems);

  // A permutation of the component indices.
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> identity(problems.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_EQ(sorted, identity);

  // The heaviest starts first although its index is the highest; 0 and 6
  // tie at 8 and keep index order; the edgeless ones follow every edged
  // one, even the 40-user edgeless beside a 2-estimate greedy; the empty
  // ones, edged or not, come last in index order.
  EXPECT_EQ(order, (std::vector<std::size_t>{7, 0, 6, 3, 1, 5, 2, 4}));
}

TEST(ShardDispatch, EqualEstimatesKeepIndexOrder) {
  std::vector<core::ComponentProblem> problems;
  for (int c = 0; c < 4; ++c) problems.push_back(shaped_component(2, 4, true));
  for (int c = 0; c < 3; ++c) problems.push_back(shaped_component(1, 4, false));
  const std::vector<std::size_t> order = core::dispatch_order(problems);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(core::dispatch_order({}).empty());
}

TEST(Determinism, SchemeSummaryMergeCombinesDisjointBatches) {
  ThreadDefaultGuard guard;
  util::set_default_threads(2);
  const sim::Scenario scenario = small_scenario();
  // 6 runs in one batch vs the same 6 runs split 4 + 2 and merged: same
  // count everywhere, means equal to near-ulp (merge uses the parallel
  // Welford combination, not the sequential fold).
  const auto all = sim::run_results(scenario, core::SchemeKind::kProposed, 6);
  const auto whole = sim::summarize_runs(core::SchemeKind::kProposed,
                                         scenario.users.size(), all.data(), 6);
  auto head = sim::summarize_runs(core::SchemeKind::kProposed,
                                  scenario.users.size(), all.data(), 4);
  const auto tail = sim::summarize_runs(core::SchemeKind::kProposed,
                                        scenario.users.size(), all.data() + 4,
                                        2);
  head.merge(tail);
  EXPECT_EQ(head.runs, whole.runs);
  EXPECT_EQ(head.mean_psnr.count(), whole.mean_psnr.count());
  EXPECT_NEAR(head.mean_psnr.mean(), whole.mean_psnr.mean(), 1e-12);
  EXPECT_NEAR(head.mean_psnr.variance(), whole.mean_psnr.variance(), 1e-12);
  EXPECT_EQ(head.mean_psnr.min(), whole.mean_psnr.min());
  EXPECT_EQ(head.mean_psnr.max(), whole.mean_psnr.max());
  ASSERT_EQ(head.per_user.size(), whole.per_user.size());
  for (std::size_t j = 0; j < head.per_user.size(); ++j) {
    EXPECT_NEAR(head.per_user[j].mean(), whole.per_user[j].mean(), 1e-12);
  }
}

}  // namespace
