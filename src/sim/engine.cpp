#include "sim/engine.h"

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::sim {

namespace {

/// Publishes a run's sim.engine.* counters. They register on the first
/// engine run, so batch binaries keep their exact historical counter set
/// (the baseline gate compares the union of counter names).
void publish_counters(const EngineReport& r) {
  const auto add = [](const char* name, std::size_t n) {
    util::metrics().counter(name).add(n);
  };
  add("sim.engine.slots", r.slots);
  add("sim.engine.arrivals", r.arrivals);
  add("sim.engine.admitted", r.admitted);
  add("sim.engine.rejected.capacity", r.rejected_capacity);
  add("sim.engine.rejected.qos", r.rejected_qos);
  add("sim.engine.departures", r.departures);
  add("sim.engine.handoffs", r.handoffs);
  add("sim.engine.idle_slots", r.idle_slots);
}

}  // namespace

Engine::Engine(const Scenario& scenario, EngineConfig config,
               std::size_t run_index)
    : config_(config),
      loop_(scenario,
            core::make_scheme(core::SchemeKind::kProposed, scenario.dual,
                              scenario.use_distributed_solver),
            run_index, config.slots) {
  FEMTOCR_CHECK(scenario.delivery == DeliveryModel::kFluid,
                "the engine serves the fluid delivery model");
  FEMTOCR_CHECK(scenario.accounting == Accounting::kExpected,
                "the engine serves expected-channel accounting");
  FEMTOCR_CHECK(!scenario.faults.enabled(),
                "the engine serves the fault-free model");
  FEMTOCR_CHECK(config_.slots > 0, "engine needs a positive slot horizon");
}

EngineReport Engine::run() {
  static util::TimerStat& t_run = util::metrics().timer("sim.engine.run");
  const util::Scope scope(t_run);

  const EngineReport report =
      loop_.run(config_, loop_.topology().active_graph(), nullptr).report;
  publish_counters(report);
  return report;
}

}  // namespace femtocr::sim
