// Shared CLI + wall-clock harness for the figure/ablation bench binaries.
//
// Every bench accepts:
//   --runs=N           replications per experiment cell, N >= 1 (default:
//                      the paper's 10 unless the bench overrides it)
//   --threads=N        worker threads for the replication engine, N >= 0;
//                      0 = auto (FEMTOCR_THREADS env, else hardware
//                      concurrency)
//   --metrics-out=FILE dump the process-wide metrics registry as JSON on
//                      report() (schema: docs/OBSERVABILITY.md, validated
//                      by tools/metrics_report.py --check)
//   --trace-out=FILE   enable span tracing (unless FEMTOCR_TRACE explicitly
//                      disabled it) and dump the Chrome trace-event JSON on
//                      report() (schema: docs/OBSERVABILITY.md, validated
//                      by tools/trace_report.py --check)
//
// The timing line goes to *stderr*, one machine-parseable line:
//   timing: bench=<name> threads=<t> replications=<n> elapsed_s=<s> reps_per_s=<r>
// stdout carries only the figure tables, so stdout is byte-identical
// across thread counts — CI's bench-smoke job diffs --threads=1 against
// --threads=4 to hold the determinism contract.
#pragma once

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>

#include "util/args.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace femtocr::benchutil {

class Harness {
 public:
  /// `extra_flags` lets a bench consume flags beyond the shared trio (call
  /// args.get(...) for each inside the callback — anything still
  /// unconsumed afterwards is rejected); `extra_help` is appended to the
  /// supported-flags line of the rejection message.
  Harness(int argc, char** argv, std::size_t default_runs = 10,
          const std::function<void(const util::Args&)>& extra_flags = nullptr,
          const std::string& extra_help = "") {
    name_ = argc > 0 ? argv[0] : "bench";
    const std::string::size_type slash = name_.find_last_of('/');
    if (slash != std::string::npos) name_ = name_.substr(slash + 1);
    manifest_ = util::make_metrics_manifest(argc, argv);
    const std::string supported =
        " (supported: --runs=N --threads=N --metrics-out=FILE"
        " --trace-out=FILE" + extra_help + ")\n";
    try {
      const util::Args args(argc, argv);
      runs_ = args.get_count("runs", default_runs, /*min=*/1);
      util::set_default_threads(args.get_count("threads", 0, /*min=*/0));
      manifest_.threads = util::default_threads();
      metrics_path_ = args.get("metrics-out", std::string());
      trace_path_ = args.get("trace-out", std::string());
      if (!trace_path_.empty() && !util::trace_env_disabled()) {
        util::set_trace_enabled(true);
      }
      if (extra_flags) extra_flags(args);
      const auto unknown = args.unconsumed();
      if (!unknown.empty()) {
        std::cerr << name_ << ": unknown flag(s):";
        for (const auto& k : unknown) std::cerr << " --" << k;
        std::cerr << supported;
        std::exit(2);
      }
    } catch (const std::exception& e) {
      std::cerr << name_ << ": " << e.what() << supported;
      std::exit(2);
    }
  }

  ~Harness() { dump_metrics(); }  // benches that never call report()

  /// Replications per experiment cell (--runs).
  std::size_t runs() const { return runs_; }

  /// Manifest provenance the bench knows better than the harness does.
  void set_manifest_seed(std::uint64_t seed) { manifest_.seed = seed; }
  void set_manifest_scheme(const std::string& scheme) {
    manifest_.scheme = scheme;
  }

  /// Prints the stderr timing line; `replications` is the total number of
  /// independent simulation runs the bench executed (0 = bench does not
  /// replicate, only elapsed time is reported). Also dumps --metrics-out.
  void report(std::size_t replications) {
    const double secs = watch_.elapsed_seconds();
    std::cerr << "timing: bench=" << name_
              << " threads=" << util::default_threads()
              << " replications=" << replications << " elapsed_s=" << secs;
    if (replications > 0 && secs > 0.0) {
      std::cerr << " reps_per_s=" << static_cast<double>(replications) / secs;
    }
    std::cerr << '\n';
    dump_metrics();
  }

 private:
  void dump_metrics() {
    if ((metrics_path_.empty() && trace_path_.empty()) || dumped_) return;
    dumped_ = true;
    static util::TimerStat& t_total =
        util::metrics().timer("bench.total");
    t_total.record_ns(watch_.elapsed_ns());
    if (!metrics_path_.empty()) {
      util::write_metrics_file(metrics_path_, manifest_);
    }
    if (!trace_path_.empty()) {
      util::write_trace_file(trace_path_, manifest_);
    }
  }

  std::string name_;
  std::size_t runs_ = 10;
  util::Stopwatch watch_;
  util::MetricsManifest manifest_;
  std::string metrics_path_;
  std::string trace_path_;
  bool dumped_ = false;
};

}  // namespace femtocr::benchutil
