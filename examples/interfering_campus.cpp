// Example: a campus deployment with interfering femtocells.
//
// Builds the paper's Section V-B scenario (three FBSs whose coverages form
// the Fig. 5 path graph, nine subscribers), inspects the derived
// interference graph, streams one batch of GOPs under all three schemes,
// and prints the per-cell channel allocation of a sample slot together
// with the Eq.-(23) optimality bound.
//
//   ./build/examples/interfering_campus
#include <iostream>

#include "core/greedy.h"
#include "core/slot_cache.h"
#include "net/topology.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "spectrum/spectrum_manager.h"
#include "util/args.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/table.h"
#include "video/mgs_model.h"

int main(int argc, char** argv) {
  using namespace femtocr;
  // --threads=N pins the replication engine's worker count (0 = auto:
  // FEMTOCR_THREADS, else hardware concurrency). Results are bitwise
  // identical for every choice.
  const util::Args args(argc, argv);
  util::set_default_threads(
      static_cast<std::size_t>(args.get("threads", std::int64_t{0})));
  // Seed 1 is the deployment the bench figures use.
  sim::Scenario scenario = sim::interfering_scenario(/*seed=*/1);
  scenario.num_gops = 10;

  // --- Deployment and interference structure -----------------------------
  net::Topology topo(scenario.mbs, scenario.fbss, scenario.users,
                     scenario.radio);
  std::cout << "Deployment: " << topo.num_fbs() << " FBSs, "
            << topo.num_users() << " CR users\n";
  for (std::size_t i = 0; i < topo.num_fbs(); ++i) {
    std::cout << "  FBS " << i + 1 << " at (" << topo.fbs(i).position.x
              << ", " << topo.fbs(i).position.y << "), serves "
              << topo.users_of(i).size() << " users, interferes with {";
    for (std::size_t n : topo.graph().neighbors(i)) {
      std::cout << ' ' << n + 1;
    }
    std::cout << " }\n";
  }
  std::cout << "Interference graph Dmax = " << topo.graph().max_degree()
            << "  =>  greedy guarantee 1/(1+Dmax) = 1/"
            << topo.graph().max_degree() + 1 << " of the optimal gain "
            << "(Theorem 2)\n\n";

  // --- One slot under the microscope --------------------------------------
  util::Rng rng(scenario.seed);
  util::Rng spectrum_rng = rng.split(0xA1);
  spectrum::SpectrumManager spectrum(scenario.spectrum, spectrum_rng);
  const auto obs = spectrum.observe_slot(0, spectrum_rng);

  core::SlotContext ctx;
  ctx.num_fbs = topo.num_fbs();
  ctx.graph = &topo.graph();
  ctx.sinr_threshold = scenario.radio.sinr_threshold;
  for (std::size_t m : obs.available) {
    ctx.available.push_back(m);
    ctx.posterior.push_back(obs.posteriors[m]);
  }
  for (std::size_t j = 0; j < topo.num_users(); ++j) {
    core::UserState u;
    const auto& video = video::sequence(topo.user(j).video_name);
    u.psnr = video.alpha;
    u.set_link_success(topo.mbs_link(j).success_probability(),
                       topo.fbs_link(j).success_probability());
    u.rate_mbs = video.beta * scenario.common_bandwidth / 10.0;
    u.rate_fbs = video.beta * scenario.licensed_bandwidth / 10.0;
    u.fbs = topo.user(j).fbs;
    ctx.users.push_back(u);
  }

  core::SlotCache cache;
  cache.build(ctx);
  const core::GreedyResult greedy = core::greedy_allocate(ctx, cache);
  std::cout << "Slot 0: " << ctx.available.size()
            << " channels pass the access policy (G_t = "
            << util::Table::num(ctx.total_expected_channels(), 2) << ")\n";
  for (std::size_t i = 0; i < topo.num_fbs(); ++i) {
    std::cout << "  FBS " << i + 1 << " <- channels {";
    for (std::size_t m : greedy.allocation.channels[i]) {
      std::cout << ' ' << m;
    }
    std::cout << " }  G_i = "
              << util::Table::num(greedy.allocation.expected_channels[i], 2)
              << '\n';
  }
  std::cout << "  greedy objective " << util::Table::num(
                   greedy.allocation.objective, 4)
            << ", Eq.-(23) bound " << util::Table::num(greedy.bound_tight, 4)
            << " (Dbar = " << util::Table::num(greedy.d_bar, 3) << ")\n\n";

  // --- Full streaming comparison ------------------------------------------
  // Fairness matters as much as the average: the objective is the log-sum,
  // so report Jain's index on the delivered enhancement alongside PSNR.
  const auto summaries = sim::run_all_schemes(scenario, /*runs=*/10);
  util::Table table({"Scheme", "Avg Y-PSNR (dB)", "95% CI", "Jain index",
                     "Bound (dB)"});
  for (const auto& s : summaries) {
    std::vector<double> enhancement;
    for (std::size_t j = 0; j < s.per_user.size(); ++j) {
      enhancement.push_back(
          s.per_user[j].mean() -
          video::sequence(scenario.users[j].video_name).alpha);
    }
    table.add_row(
        {core::scheme_name(s.kind), util::Table::num(s.mean_psnr.mean(), 2),
         util::Table::num(util::confidence_interval95(s.mean_psnr), 3),
         util::Table::num(sim::jain_index(enhancement), 3),
         s.kind == core::SchemeKind::kProposed
             ? util::Table::num(s.bound_psnr.mean(), 2)
             : "-"});
  }
  table.print(std::cout);
  util::write_metrics_if_requested(args, argc, argv);
  return 0;
}
