// Ablation A1: how close is the Table III greedy to the true optimum of
// problem (21), and how tight are the two bounds (Eq. 23 vs Theorem 2)?
//
// Brute-forces the channel allocation on random small interfering
// instances (3 FBSs, path graph, 2-3 available channels — the regime where
// greedy has the least slack) and reports the distribution of the
// channel-gain ratio greedy/optimal alongside both bound ratios.
#include <iostream>

#include "common.h"

#include "core/exact.h"
#include "core/greedy.h"
#include "core/slot_cache.h"
#include "net/interference_graph.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

femtocr::core::SlotContext random_context(
    femtocr::util::Rng& rng, const femtocr::net::InterferenceGraph& graph,
    std::size_t num_users, std::size_t num_channels) {
  femtocr::core::SlotContext ctx;
  ctx.num_fbs = graph.size();
  ctx.graph = &graph;
  for (std::size_t m = 0; m < num_channels; ++m) {
    ctx.available.push_back(m);
    ctx.posterior.push_back(rng.uniform(0.4, 1.0));
  }
  for (std::size_t j = 0; j < num_users; ++j) {
    femtocr::core::UserState u;
    u.psnr = rng.uniform(28.0, 42.0);
    u.success_mbs = rng.uniform(0.55, 0.98);
    u.success_fbs = rng.uniform(0.55, 0.98);
    u.rate_mbs = rng.uniform(0.45, 0.7);
    u.rate_fbs = rng.uniform(0.45, 0.7);
    u.fbs = j % graph.size();
    ctx.users.push_back(u);
  }
  return ctx;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace femtocr;
  benchutil::Harness harness(argc, argv);
  util::Rng rng(2025);
  const auto graph = net::InterferenceGraph::from_edges(3, {{0, 1}, {1, 2}});

  util::Table table({"channels", "instances", "gain ratio (mean)",
                     "gain ratio (min)", "optimal<=Eq23 bound (%)",
                     "Eq23/Dmax tightness"});
  for (std::size_t channels : {2u, 3u}) {
    util::RunningStat ratio;
    util::RunningStat tightness;
    int bound_valid = 0;
    const int instances = 60;
    for (int i = 0; i < instances; ++i) {
      const core::SlotContext ctx = random_context(rng, graph, 6, channels);
      core::SlotCache cache;
      cache.build(ctx);
      const core::GreedyResult g = core::greedy_allocate(ctx, cache);
      const core::ExactResult e = core::exact_allocate(ctx);
      const double greedy_gain = g.allocation.objective - g.q_empty;
      const double optimal_gain = e.allocation.objective - g.q_empty;
      if (optimal_gain > 1e-9) ratio.add(greedy_gain / optimal_gain);
      if (e.allocation.objective <= g.bound_tight + 1e-9) ++bound_valid;
      const double dmax_slack = g.bound_dmax - g.q_empty;
      if (dmax_slack > 1e-9) {
        tightness.add((g.bound_tight - g.q_empty) / dmax_slack);
      }
    }
    table.add_row({std::to_string(channels), std::to_string(instances),
                   util::Table::num(ratio.mean(), 4),
                   util::Table::num(ratio.min(), 4),
                   util::Table::num(100.0 * bound_valid / instances, 1),
                   util::Table::num(tightness.mean(), 4)});
  }
  std::cout << "Ablation A1 — greedy (Table III) vs exact optimum of "
               "problem (21)\n"
            << "gain ratio = (Q_greedy - Q_empty)/(Q_opt - Q_empty); "
               "Theorem 2 guarantees >= 1/(1+Dmax) = 1/3 here\n";
  table.print(std::cout);
  table.print_csv(std::cout, "abl_greedy_vs_exact");
  harness.report(0);
  return 0;
}
