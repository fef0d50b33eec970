// Chaos sweep: graceful degradation under escalating fault intensity.
//
// Sweeps a multiplier over a canned fault profile (sensing outages, control
// losses, FBS outages, primary bursts, solver budget squeezes) on the
// single-FBS scenario with the distributed solver and the full fallback
// chain enabled, and reports how delivered quality and the degradation
// machinery respond. Intensity 0 is the fault-free reference row — it must
// match a run without any fault plan at all (the bitwise-invisibility
// contract of sim/faults.h).
//
// Expected shape: Y-PSNR declines gently with intensity (graceful, not a
// cliff); collision rate rises with the primary-burst rate; the
// core.dual.fallback.* and sim.faults.* counters light up monotonically.
// Those counters come from the metrics registry, so they go to stderr as
// `degradation:` lines (metrics on only): stdout stays byte-identical under
// FEMTOCR_METRICS=0.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "util/metrics.h"
#include "util/table.h"

namespace {

using namespace femtocr;

/// The unit-intensity profile; the sweep scales every rate by x (durations
/// stay fixed). Rates are kept well under 1 even at the top multiplier.
sim::FaultProfile base_profile() {
  sim::FaultProfile f;
  f.sensing_outage_rate = 0.04;
  f.sensing_outage_slots = 2;
  f.control_loss_rate = 0.03;
  f.fbs_outage_rate = 0.02;
  f.fbs_outage_slots = 2;
  f.primary_burst_rate = 0.04;
  f.primary_burst_slots = 1;
  f.budget_squeeze_rate = 0.10;
  f.budget_squeeze_iterations = 5;
  return f;
}

std::uint64_t counter_sum(const std::vector<const char*>& names) {
  std::uint64_t total = 0;
  for (const char* n : names) total += util::metrics().counter(n).total();
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Harness harness(argc, argv, /*default_runs=*/10);

  const std::vector<double> intensities = {0.0, 0.5, 1.0, 2.0};
  const std::vector<const char*> fallback_counters = {
      "core.dual.fallback.best_iterate", "core.dual.fallback.last_iterate",
      "core.dual.fallback.greedy", "core.dual.fallback.equal"};
  const std::vector<const char*> fault_counters = {
      "sim.faults.sensing_outages", "sim.faults.control_losses",
      "sim.faults.fbs_outages", "sim.faults.primary_bursts",
      "sim.faults.budget_squeezes"};

  std::cout << "Chaos sweep — single FBS, distributed solver + fallback "
               "chain, mean of "
            << harness.runs() << " runs\n";
  util::Table table({"Intensity", "Y-PSNR (dB)", "Collisions", "avg G_t"});
  std::size_t replications = 0;
  for (const double x : intensities) {
    sim::Scenario scenario = sim::single_fbs_scenario(/*seed=*/1);
    scenario.use_distributed_solver = true;
    scenario.dual.max_iterations = 400;  // tight: squeezes bite visibly
    scenario.dual.max_retries = 1;
    scenario.dual.allow_fallback = true;
    sim::FaultProfile f = base_profile();
    f.sensing_outage_rate *= x;
    f.control_loss_rate *= x;
    f.fbs_outage_rate *= x;
    f.primary_burst_rate *= x;
    f.budget_squeeze_rate *= x;
    scenario.faults = f;
    scenario.finalize();

    const std::uint64_t recoveries_before = counter_sum(fallback_counters);
    const std::uint64_t faults_before = counter_sum(fault_counters);
    const auto summary = sim::run_experiment(
        scenario, core::SchemeKind::kProposed, harness.runs());
    replications += harness.runs();
    table.add_row({util::Table::num(x, 2),
                   util::Table::num(summary.mean_psnr.mean(), 2),
                   util::Table::num(summary.collision_rate.mean(), 3),
                   util::Table::num(summary.avg_expected_channels.mean(), 2)});
    if (util::metrics_enabled()) {
      std::cerr << "degradation: intensity=" << util::Table::num(x, 2)
                << " recoveries="
                << counter_sum(fallback_counters) - recoveries_before
                << " faults=" << counter_sum(fault_counters) - faults_before
                << '\n';
    }
  }
  table.print(std::cout);
  table.print_csv(std::cout, "chaos_sweep");
  harness.report(replications);
  return 0;
}
