// femtocr_sim — command-line front end for the simulation suite.
//
// Run a scenario (built-in or from a config file), optionally sweeping one
// parameter, and print the per-scheme comparison the paper's figures use.
//
// Examples:
//   femtocr_sim --scenario=single --runs=10
//   femtocr_sim --scenario=interfering --sweep=eta --from=0.3 --to=0.7
//               --step=0.1 --runs=10   (one line; wrapped here for width)
//   femtocr_sim --config=campus.cfg --scheme=proposed --per-user
//   femtocr_sim --scenario=single --save-config=baseline.cfg
//
// Use --help for the full flag list.
#include <fstream>
#include <iostream>

#include "sim/config_io.h"
#include "sim/sweeps.h"
#include "util/args.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/trace.h"

namespace {

using namespace femtocr;

constexpr const char* kHelp = R"(femtocr_sim — MGS video over femtocell CR networks (ICDCS'11 reproduction)

Scenario selection:
  --scenario=single|interfering   built-in geometry (default: single)
  --config=FILE                   load a key=value scenario file instead
  --save-config=FILE              write the effective config and exit

Overrides (applied on top of the scenario):
  --seed=N --runs=N --gops=N --deadline=T
  --channels=M --eta=X --gamma=X --eps=X --delta=X
  --b0=MBPS --b1=MBPS --users=K_PER_FBS
  --accounting=expected|realized  --delivery=fluid|packet
  --mobility=STDDEV_M_PER_GOP     --uncertainty-sensing
  --fault-profile=FILE            overlay robustness keys (fault_* rates,
                                  dual_* solver knobs, distributed_solver)
                                  on the scenario; docs/ROBUSTNESS.md

Execution:
  --threads=N                     replication worker threads; 0 = auto
                                  (FEMTOCR_THREADS env, else hardware
                                  concurrency). Output is bitwise identical
                                  for every thread count.
  --scheme=proposed|h1|h2|all     (default: all)
  --per-user                      also print the per-user quality table
  --sweep=eta|channels|b0|eps     sweep one knob over [--from, --to] in
  --from=X --to=X --step=X        steps of --step (runs all schemes)
  --metrics-out=FILE              dump the metrics registry (counters,
                                  histograms, timers) as JSON on exit;
                                  schema in docs/OBSERVABILITY.md. Disable
                                  collection with FEMTOCR_METRICS=0.
  --trace-out=FILE                dump spans as Chrome trace-event JSON on
                                  exit (open in Perfetto / chrome://tracing).
                                  Implies FEMTOCR_TRACE=1 unless the env var
                                  explicitly disables tracing; schema in
                                  docs/OBSERVABILITY.md.

Unknown flags are rejected (exit 2) before any simulation work runs.
)";

core::SchemeKind parse_scheme(const std::string& name) {
  if (name == "proposed") return core::SchemeKind::kProposed;
  if (name == "h1") return core::SchemeKind::kHeuristic1;
  if (name == "h2") return core::SchemeKind::kHeuristic2;
  throw std::logic_error("unknown --scheme: " + name);
}

void apply_overrides(sim::Scenario& s, const util::Args& args) {
  s.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<std::int64_t>(s.seed)));
  s.num_gops = args.get_count("gops", s.num_gops, /*min=*/1);
  s.gop_deadline = args.get_count("deadline", s.gop_deadline, /*min=*/1);
  s.spectrum.num_licensed =
      args.get_count("channels", s.spectrum.num_licensed, /*min=*/1);
  if (args.has("eta")) s.set_utilization(args.get("eta", 0.571));
  s.spectrum.gamma = args.get("gamma", s.spectrum.gamma);
  const double eps =
      args.get("eps", s.spectrum.user_sensor.false_alarm);
  const double delta =
      args.get("delta", s.spectrum.user_sensor.miss_detection);
  s.set_sensing_errors(eps, delta);
  s.common_bandwidth = args.get("b0", s.common_bandwidth);
  s.licensed_bandwidth = args.get("b1", s.licensed_bandwidth);
  if (args.has("users")) {
    const std::size_t per_fbs = args.get_count("users", 3, /*min=*/1);
    std::vector<std::string> videos;
    for (const auto& u : s.users) videos.push_back(u.video_name);
    util::Rng rng(s.seed ^ 0x515F00D);
    s.users = net::Topology::scatter_users(s.fbss, per_fbs, videos, rng);
  }
  const std::string accounting = args.get("accounting", std::string());
  if (accounting == "realized") s.accounting = sim::Accounting::kRealized;
  if (accounting == "expected") s.accounting = sim::Accounting::kExpected;
  const std::string delivery = args.get("delivery", std::string());
  if (delivery == "packet") s.delivery = sim::DeliveryModel::kPacket;
  if (delivery == "fluid") s.delivery = sim::DeliveryModel::kFluid;
  s.mobility.step_stddev = args.get("mobility", s.mobility.step_stddev);
  if (args.get("uncertainty-sensing", false)) {
    s.spectrum.assignment = spectrum::SensingAssignment::kUncertaintyFirst;
  }
  s.finalize();
}

int run_single(const sim::Scenario& scenario, const util::Args& args,
               std::size_t runs) {
  const std::string scheme = args.get("scheme", std::string("all"));
  std::vector<sim::SchemeSummary> summaries;
  if (scheme == "all") {
    summaries = sim::run_all_schemes(scenario, runs);
  } else {
    summaries.push_back(
        sim::run_experiment(scenario, parse_scheme(scheme), runs));
  }

  util::Table table({"Scheme", "Avg Y-PSNR (dB)", "95% CI", "Bound (dB)",
                     "Collisions", "avg G_t"});
  for (const auto& s : summaries) {
    table.add_row(
        {core::scheme_name(s.kind), util::Table::num(s.mean_psnr.mean(), 2),
         util::Table::num(util::confidence_interval95(s.mean_psnr), 3),
         s.kind == core::SchemeKind::kProposed
             ? util::Table::num(s.bound_psnr.mean(), 2)
             : "-",
         util::Table::num(s.collision_rate.mean(), 3),
         util::Table::num(s.avg_expected_channels.mean(), 2)});
  }
  table.print(std::cout);
  table.print_csv(std::cout, "femtocr_sim");

  if (args.get("per-user", false)) {
    // Association (user -> nearest FBS) is computed by the topology, not
    // stored in the raw scenario user list.
    const net::Topology topo(scenario.mbs, scenario.fbss, scenario.users,
                             scenario.radio);
    util::Table users({"User", "Video", "FBS", "Scheme", "Y-PSNR (dB)"});
    for (const auto& s : summaries) {
      for (std::size_t j = 0; j < s.per_user.size(); ++j) {
        users.add_row({std::to_string(j + 1), scenario.users[j].video_name,
                       std::to_string(topo.user(j).fbs + 1),
                       core::scheme_name(s.kind),
                       util::Table::num(s.per_user[j].mean(), 2)});
      }
    }
    users.print(std::cout);
  }
  return 0;
}

int run_sweep(const sim::Scenario& base, const util::Args& args,
              std::size_t runs) {
  const std::string knob = args.get("sweep", std::string());
  const double from = args.get("from", 0.0);
  const double to = args.get("to", 0.0);
  const double step = args.get("step", 0.1);
  if (to < from || step <= 0.0) {
    std::cerr << "--sweep needs --from <= --to and --step > 0\n";
    return 2;
  }
  std::vector<double> xs;
  for (double x = from; x <= to + 1e-9; x += step) xs.push_back(x);

  std::function<void(sim::Scenario&, double)> apply;
  if (knob == "eta") {
    apply = [](sim::Scenario& s, double x) {
      s.set_utilization(x);
      s.finalize();
    };
  } else if (knob == "channels") {
    apply = [](sim::Scenario& s, double x) {
      s.spectrum.num_licensed = static_cast<std::size_t>(x);
      s.finalize();
    };
  } else if (knob == "b0") {
    apply = [](sim::Scenario& s, double x) {
      s.common_bandwidth = x;
      s.finalize();
    };
  } else if (knob == "eps") {
    apply = [](sim::Scenario& s, double x) {
      s.set_sensing_errors(x, s.spectrum.user_sensor.miss_detection);
      s.finalize();
    };
  } else {
    std::cerr << "unknown --sweep knob: " << knob
              << " (expected eta|channels|b0|eps)\n";
    return 2;
  }

  const auto rows = sim::sweep(base, xs, apply, runs);
  const bool with_bound =
      base.graph ? base.graph->num_edges() > 0
                 : net::InterferenceGraph::from_coverage(base.fbss)
                           .num_edges() > 0;
  sim::print_sweep(std::cout, "sweep_" + knob, knob, rows, with_bound);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (args.get("help", false)) {
      std::cout << kHelp;
      return 0;
    }
    util::set_default_threads(args.get_count("threads", 0, /*min=*/0));

    sim::Scenario scenario;
    const std::string config = args.get("config", std::string());
    if (!config.empty()) {
      std::ifstream in(config);
      if (!in) {
        std::cerr << "cannot open config file: " << config << '\n';
        return 2;
      }
      scenario = sim::load_scenario(in);
    } else {
      const std::string name = args.get("scenario", std::string("single"));
      if (name == "single") {
        scenario = sim::single_fbs_scenario();
      } else if (name == "interfering") {
        scenario = sim::interfering_scenario();
      } else {
        std::cerr << "unknown --scenario: " << name << '\n';
        return 2;
      }
    }
    apply_overrides(scenario, args);

    const std::string fault_profile = args.get("fault-profile", std::string());
    if (!fault_profile.empty()) {
      std::ifstream in(fault_profile);
      if (!in) {
        std::cerr << "cannot open fault profile: " << fault_profile << '\n';
        return 2;
      }
      sim::apply_fault_profile(in, scenario);
    }

    const std::string save = args.get("save-config", std::string());
    const std::size_t runs = args.get_count("runs", 10, /*min=*/1);
    const std::string metrics_path = args.get("metrics-out", std::string());
    const std::string trace_path = args.get("trace-out", std::string());

    // Strict unknown-flag rejection, before any simulation work. Every flag
    // the tool understands has been consumed by now except the mode-dependent
    // ones (e.g. --scheme is only read by run_single); pre-consume those so
    // the check rejects exactly the flags nothing could ever read.
    for (const char* known : {"scheme", "per-user", "sweep", "from", "to",
                              "step"}) {
      (void)args.has(known);
    }
    const auto unknown = args.unconsumed();
    if (!unknown.empty()) {
      std::cerr << "error: unknown flags:";
      for (const auto& k : unknown) std::cerr << " --" << k;
      std::cerr << "\nsee --help for the supported list\n";
      return 2;
    }

    if (!save.empty()) {
      std::ofstream out(save);
      if (!out) {
        std::cerr << "cannot write config file: " << save << '\n';
        return 2;
      }
      const std::size_t per_fbs = scenario.users.size() / scenario.fbss.size();
      sim::save_scenario(out, scenario,
                         scenario.fbss.size() > 1 ? "interfering" : "single",
                         per_fbs);
      std::cout << "wrote " << save << '\n';
      return 0;
    }

    if (!trace_path.empty() && !util::trace_env_disabled()) {
      util::set_trace_enabled(true);
    }

    const int rc = args.has("sweep") ? run_sweep(scenario, args, runs)
                                     : run_single(scenario, args, runs);

    if (!metrics_path.empty() || !trace_path.empty()) {
      auto manifest = util::make_metrics_manifest(argc, argv);
      manifest.seed = scenario.seed;
      manifest.scheme = args.get("scheme", std::string("all"));
      if (!metrics_path.empty()) {
        util::write_metrics_file(metrics_path, manifest);
      }
      if (!trace_path.empty()) {
        util::write_trace_file(trace_path, manifest);
      }
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
