// Tests for the Fig. 1 four-FBS scenario, the fairness metrics, and the
// Theorem 2 half-gain guarantee on the Fig. 2 interference graph.
#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/greedy.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "video/mgs_model.h"

namespace femtocr::sim {
namespace {

TEST(Fig1Scenario, MatchesTheFig2InterferenceGraph) {
  const Scenario s = fig1_scenario();
  ASSERT_EQ(s.fbss.size(), 4u);
  EXPECT_EQ(s.users.size(), 8u);
  const auto g = net::InterferenceGraph::from_coverage(s.fbss);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(2, 3));  // FBS 3 and 4 in the paper's numbering
  EXPECT_EQ(g.max_degree(), 1u);  // "we have Dmax = 1 and the bound is half"
}

TEST(Fig1Scenario, RunsUnderAllSchemes) {
  Scenario s = fig1_scenario(3);
  s.num_gops = 3;
  for (auto kind : {core::SchemeKind::kProposed, core::SchemeKind::kHeuristic1,
                    core::SchemeKind::kHeuristic2}) {
    const RunResult r = Simulator(s, kind, 0).run();
    EXPECT_EQ(r.user_mean_psnr.size(), 8u);
    for (double p : r.user_mean_psnr) EXPECT_GT(p, 20.0);
  }
}

TEST(Fig1Scenario, SlotsDecomposeIntoThreeComponents) {
  // {0}, {1}, {2,3}: the run's interfering slots go through the shard
  // engine, and the simulator surfaces the decomposition on RunResult.
  Scenario s = fig1_scenario(3);
  s.num_gops = 2;
  const RunResult r = Simulator(s, core::SchemeKind::kProposed, 0).run();
  EXPECT_EQ(r.max_components, 3u);
}

TEST(Fig1Scenario, GreedyWithinHalfOfOptimumAsThePaperStates) {
  // Build slot contexts from the Fig. 1 deployment and check Theorem 2's
  // concrete claim for this network: greedy gain >= optimal gain / 2.
  Scenario s = fig1_scenario(5);
  net::Topology topo(s.mbs, s.fbss, s.users, s.radio);
  util::Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    core::SlotContext ctx;
    ctx.num_fbs = topo.num_fbs();
    ctx.graph = &topo.graph();
    for (std::size_t m = 0; m < 3; ++m) {
      ctx.available.push_back(m);
      ctx.posterior.push_back(rng.uniform(0.4, 1.0));
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
    const core::GreedyResult g =
        core::greedy_allocate(ctx, test::cache_for(ctx));
    const core::ExactResult e = core::exact_allocate(ctx);
    const double greedy_gain = g.allocation.objective - g.q_empty;
    const double optimal_gain = e.allocation.objective - g.q_empty;
    EXPECT_GE(greedy_gain + 1e-6, optimal_gain / 2.0) << "trial " << trial;
  }
}

TEST(CityScenario, DeterministicClusteredAndMultiComponent) {
  CityConfig cfg;
  cfg.clusters = 20;
  cfg.city_radius = 1000.0;
  const Scenario a = city_scenario(cfg, 5);
  const Scenario b = city_scenario(cfg, 5);

  // Deterministic in (cfg, seed): identical deployments bit for bit.
  ASSERT_EQ(a.fbss.size(), b.fbss.size());
  ASSERT_EQ(a.users.size(), b.users.size());
  for (std::size_t i = 0; i < a.fbss.size(); ++i) {
    EXPECT_EQ(a.fbss[i].position.x, b.fbss[i].position.x);
    EXPECT_EQ(a.fbss[i].position.y, b.fbss[i].position.y);
  }

  // Valid scenario shape: normalized ids, users spawned inside their
  // cell's coverage, per-cell load within the truncated-Pareto bounds.
  std::vector<std::size_t> per_cell(a.fbss.size(), 0);
  for (std::size_t j = 0; j < a.users.size(); ++j) {
    EXPECT_EQ(a.users[j].id, j);
    ASSERT_LT(a.users[j].fbs, a.fbss.size());
    EXPECT_TRUE(a.fbss[a.users[j].fbs].coverage().contains(a.users[j].position));
    ++per_cell[a.users[j].fbs];
  }
  for (const std::size_t n : per_cell) {
    EXPECT_GE(n, 1u);  // the heavy tail draws at least one stream per cell
    EXPECT_LE(n, cfg.max_users_per_fbs);
  }

  // Matérn clustering: dense within clusters, sparse between — the
  // interference graph must decompose (the structure the shard engine and
  // the city bench tier rely on).
  const auto g = net::InterferenceGraph::from_coverage(a.fbss);
  EXPECT_GT(g.components().size(), 1u);
}

TEST(Metrics, JainIndex) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0}), 1.0);
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
  // Scale invariance.
  EXPECT_NEAR(jain_index({2.0, 4.0, 6.0}), jain_index({1.0, 2.0, 3.0}),
              1e-12);
}

TEST(Metrics, Spread) {
  EXPECT_DOUBLE_EQ(spread({3.0, 7.0, 5.0}), 4.0);
  EXPECT_DOUBLE_EQ(spread({}), 0.0);
  EXPECT_DOUBLE_EQ(spread({2.5}), 0.0);
}

TEST(Metrics, ProposedIsFairerThanH2EndToEnd) {
  Scenario s = single_fbs_scenario(3);
  s.num_gops = 10;
  const auto all = run_all_schemes(s, 5);
  auto enhancement = [&](const SchemeSummary& sum) {
    std::vector<double> e;
    for (std::size_t j = 0; j < sum.per_user.size(); ++j) {
      e.push_back(sum.per_user[j].mean() -
                  video::sequence(s.users[j].video_name).alpha);
    }
    return jain_index(e);
  };
  EXPECT_GT(enhancement(all[0]), enhancement(all[2]));
}

}  // namespace
}  // namespace femtocr::sim
