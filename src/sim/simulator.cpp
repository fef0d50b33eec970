#include "sim/simulator.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::sim {

Simulator::Simulator(const Scenario& scenario, core::SchemeKind kind,
                     std::size_t run_index)
    : Simulator(scenario,
                core::make_scheme(kind, scenario.dual,
                                  scenario.use_distributed_solver),
                run_index) {}

Simulator::Simulator(const Scenario& scenario,
                     std::unique_ptr<core::Scheme> scheme,
                     std::size_t run_index)
    : loop_(scenario, std::move(scheme), run_index,
            scenario.gop_deadline * scenario.num_gops) {}

RunResult Simulator::run() {
  static util::TimerStat& t_run = util::metrics().timer("sim.run");
  static util::Counter& c_slots = util::metrics().counter("sim.slots");
  const util::ScopedTimer run_timer(t_run);
  const util::ScopedSpan run_span("sim.run");

  const Scenario& scenario = loop_.scenario();
  EngineConfig config;  // churn off: the initial population runs to the end
  config.slots = scenario.gop_deadline * scenario.num_gops;
  const SlotTallies tallies = loop_.run(config, loop_.topology().graph(),
                                        trace_);
  c_slots.add(config.slots);

  RunResult result;
  result.slots = config.slots;
  const auto& sessions = loop_.sessions();
  result.user_mean_psnr.reserve(sessions.size());
  double sum = 0.0;
  double bound_sum = 0.0;
  double compounded_sum = 0.0;
  for (const auto& s : sessions) {
    const double delivered = s.mean_gop_psnr();
    result.user_mean_psnr.push_back(delivered);
    sum += delivered;
    bound_sum += s.bound_readout.mean();
    compounded_sum += s.bound.mean_gop_psnr();
  }
  const auto users = static_cast<double>(sessions.size());
  const auto slots = static_cast<double>(config.slots);
  result.mean_psnr = sum / users;
  result.mean_bound_psnr = bound_sum / users;
  result.mean_bound_psnr_compounded = compounded_sum / users;
  result.collision_rate =
      tallies.accessed > 0 ? static_cast<double>(tallies.collided) /
                                 static_cast<double>(tallies.accessed)
                           : 0.0;
  result.avg_available = tallies.sum_available / slots;
  result.avg_expected_channels = tallies.sum_expected / slots;
  result.energy_mbs_joules = tallies.energy_mbs_joules;
  result.energy_fbs_joules = tallies.energy_fbs_joules;
  const EngineReport& served = tallies.report;
  result.total_dual_iterations = served.total_dual_iterations;
  result.max_components = served.max_components;
  result.decision_latency_p50_ns = served.decision_latency_p50_ns;
  result.decision_latency_p90_ns = served.decision_latency_p90_ns;
  result.decision_latency_p99_ns = served.decision_latency_p99_ns;
  return result;
}

}  // namespace femtocr::sim
