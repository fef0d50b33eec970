// Online engine service bench: session churn over an arrival-rate grid.
//
// Runs sim::Engine on the Fig. 1 deployment with mobility enabled, sweeping
// the Poisson arrival rate. Each (rate, run) cell is an independent engine
// instance over util::parallel_for; reports fold in index order, so stdout
// is byte-identical for any --threads value (CI's churn-smoke job diffs 1
// vs 4). The decision-latency SLO table goes to stderr — wall-clock values
// never touch stdout.
//
// --verify-graph=1 turns on the incremental-vs-rebuild cross-check after
// every churn/mobility event (FEMTOCR_CHECK: a divergence aborts the
// bench, which is exactly the CI gate).
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.h"

#include "sim/engine.h"
#include "sim/scenario.h"
#include "util/parallel.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace femtocr;
  std::size_t slots = 200;
  double min_psnr = 33.0;
  double lifetime = 60.0;
  bool verify_graph = false;
  benchutil::Harness harness(
      argc, argv, /*default_runs=*/4,
      [&](const util::Args& args) {
        slots = args.get_count("slots", slots, /*min=*/1);
        min_psnr = args.get("min-psnr", min_psnr);
        lifetime = args.get("lifetime", lifetime);
        verify_graph = args.get("verify-graph", verify_graph);
      },
      " --slots=N --min-psnr=DB --lifetime=SLOTS --verify-graph=0|1");

  const std::vector<double> rates = {0.05, 0.15, 0.3, 0.6, 1.0};
  const std::size_t runs = harness.runs();
  std::vector<sim::EngineReport> reports(rates.size() * runs);

  util::parallel_for(reports.size(), [&](std::size_t cell) {
    const std::size_t r = cell / runs;
    const std::size_t run = cell % runs;
    sim::Scenario s = sim::fig1_scenario(1);
    s.mobility.step_stddev = 3.0;
    s.finalize();
    sim::EngineConfig cfg;
    cfg.slots = slots;
    cfg.verify_graph = verify_graph;
    cfg.churn.arrival_rate = rates[r];
    cfg.churn.mean_lifetime_slots = lifetime;
    cfg.churn.max_sessions_per_fbs = 6;
    cfg.churn.admission_min_psnr = min_psnr;
    reports[cell] = sim::Engine(s, cfg, run).run();
  });

  util::Table table({"arrivals/slot", "offered", "admitted", "rej cap",
                     "rej qos", "departs", "handoffs", "peak", "idle",
                     "max comp", "GOP PSNR (dB)"});
  for (std::size_t r = 0; r < rates.size(); ++r) {
    std::size_t offered = 0, admitted = 0, rej_cap = 0, rej_qos = 0;
    std::size_t departs = 0, handoffs = 0, peak = 0, idle = 0, comp = 0;
    double psnr = 0.0;
    std::size_t gops = 0;
    for (std::size_t run = 0; run < runs; ++run) {
      const sim::EngineReport& rep = reports[r * runs + run];
      offered += rep.arrivals;
      admitted += rep.admitted;
      rej_cap += rep.rejected_capacity;
      rej_qos += rep.rejected_qos;
      departs += rep.departures;
      handoffs += rep.handoffs;
      peak = std::max(peak, rep.peak_sessions);
      idle += rep.idle_slots;
      comp = std::max(comp, rep.max_components);
      psnr += rep.mean_psnr * static_cast<double>(rep.completed_gops);
      gops += rep.completed_gops;
    }
    const auto count = [](std::size_t v) {
      return util::Table::num(static_cast<double>(v), 0);
    };
    table.add_row({util::Table::num(rates[r], 2), count(offered),
                   count(admitted), count(rej_cap), count(rej_qos),
                   count(departs), count(handoffs), count(peak), count(idle),
                   count(comp),
                   util::Table::num(
                       gops > 0 ? psnr / static_cast<double>(gops) : 0.0,
                       2)});
  }
  std::cout << "Online allocation engine — session churn service ("
            << slots << " slots, floor " << min_psnr << " dB, "
            << runs << " runs/rate)\n";
  table.print(std::cout);
  table.print_csv(std::cout, "churn_service");

  // Decision-latency SLO per rate: worst run's percentiles (conservative).
  // Wall-clock — stderr only, like the harness timing line.
  if (util::metrics_enabled() || util::trace_enabled()) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      std::int64_t p50 = 0, p90 = 0, p99 = 0;
      for (std::size_t run = 0; run < runs; ++run) {
        const sim::EngineReport& rep = reports[r * runs + run];
        p50 = std::max(p50, rep.decision_latency_p50_ns);
        p90 = std::max(p90, rep.decision_latency_p90_ns);
        p99 = std::max(p99, rep.decision_latency_p99_ns);
      }
      std::cerr << "slo: rate=" << rates[r] << " p50_ns=" << p50
                << " p90_ns=" << p90 << " p99_ns=" << p99 << '\n';
    }
  }

  harness.report(reports.size());
  return 0;
}
