// Reproduces Fig. 4(a): convergence of the two dual variables lambda_0 and
// lambda_1 of the distributed algorithm (Table I) on the single-FBS
// scenario's first time slot.
//
// Paper shape: both prices converge to their optimal values after a few
// hundred iterations; the optimum is then recovered from the converged
// prices.
#include <iostream>

#include "common.h"

#include "core/dual_solver.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "spectrum/spectrum_manager.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace femtocr;
  benchutil::Harness harness(argc, argv);
  const sim::Scenario scenario = sim::single_fbs_scenario(/*seed=*/1);

  // Reconstruct the first slot's problem exactly as the simulator sees it.
  util::Rng rng(scenario.seed);
  util::Rng spectrum_rng = rng.split(0xA1);
  spectrum::SpectrumManager spectrum(scenario.spectrum, spectrum_rng);
  const spectrum::SlotObservation obs =
      spectrum.observe_slot(0, spectrum_rng);

  net::Topology topo(scenario.mbs, scenario.fbss, scenario.users,
                     scenario.radio);
  core::SlotContext ctx;
  ctx.num_fbs = 1;
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
    u.rate_mbs = video.beta * scenario.common_bandwidth /
                 static_cast<double>(scenario.gop_deadline);
    u.rate_fbs = video.beta * scenario.licensed_bandwidth /
                 static_cast<double>(scenario.gop_deadline);
    u.fbs = 0;
    ctx.users.push_back(u);
  }

  core::DualOptions opts = scenario.dual;
  opts.record_trace = true;
  opts.initial_lambda = 0.08;  // start visibly away from the optimum
  const std::vector<double> gt = {ctx.total_expected_channels()};
  core::SlotCache cache;
  core::DualResult res;
  {
    // The bench drives core::solve_dual directly, so it synthesizes the
    // simulator's sim.slot / sim.slot.allocate scope envelope itself (as
    // bench/stress_scale does); trace tooling then applies the same nesting
    // checks to this trace as to simulator traces.
    static util::TimerStat& t_slot = util::metrics().timer("sim.slot");
    static util::TimerStat& t_allocate =
        util::metrics().timer("sim.slot.allocate");
    util::Scope slot_scope(t_slot);
    slot_scope.arg("slot", 0.0);
    const util::Scope allocate_scope(t_allocate);
    cache.build(ctx);
    res = core::solve_dual(ctx, cache, gt, opts);
  }

  std::cout << "Fig. 4(a) — convergence of the dual variables (Table I), "
               "single-FBS slot 0\n"
            << "available channels: " << ctx.available.size()
            << ", G_t = " << util::Table::num(gt[0], 3) << "\n";
  util::Table table({"iteration", "lambda_0", "lambda_1"});
  const std::size_t stride = std::max<std::size_t>(1, res.trace.size() / 25);
  for (std::size_t t = 0; t < res.trace.size(); t += stride) {
    table.add_row({std::to_string(t), util::Table::num(res.trace[t][0], 5),
                   util::Table::num(res.trace[t][1], 5)});
  }
  table.add_row({std::to_string(res.trace.size() - 1),
                 util::Table::num(res.lambda[0], 5),
                 util::Table::num(res.lambda[1], 5)});
  table.print(std::cout);
  table.print_csv(std::cout, "fig4a");

  const double exact = core::waterfill_solve(ctx, cache, gt).objective;
  std::cout << "converged: " << (res.converged ? "yes" : "no") << " after "
            << res.iterations << " iterations\n"
            << "dual objective:  " << util::Table::num(res.allocation.objective, 6)
            << "\nexact optimum:   " << util::Table::num(exact, 6)
            << "\nrelative gap:    "
            << util::Table::num(
                   100.0 * (exact - res.allocation.objective) / exact, 4)
            << " %\n";
  harness.report(0);
  return 0;
}
