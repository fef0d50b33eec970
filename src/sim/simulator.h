// Batch simulator: the paper's Section V methodology over a fixed
// population for a fixed horizon of num_gops GOPs.
//
// A façade over the slot loop (sim/slot_loop.h), which runs every slot:
// sensing, block fading, the configured scheme's allocation, delivery of
// each user's realized PSNR increment, and the GOP-deadline readout. The
// Simulator drives it with churn off against the full coverage graph, then
// reads the run's tallies into a RunResult, including the parallel "bound
// trajectories" that reconstruct the paper's Eq.-(23) upper-bound curves
// for the Proposed scheme (see EXPERIMENTS.md for the exact
// transformation).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/scheme.h"
#include "net/topology.h"
#include "sim/scenario.h"
#include "sim/slot_loop.h"
#include "sim/trace.h"

namespace femtocr::sim {

/// Per-run outputs.
struct RunResult {
  std::vector<double> user_mean_psnr;  ///< mean delivered GOP PSNR per user
  double mean_psnr = 0.0;              ///< average of user_mean_psnr
  /// Eq.-(23) upper bound, per-slot (state-following) form: the delivered
  /// quality inflated by the average per-slot optimality slack of the
  /// greedy allocation — the form whose ~0.4 dB gap the paper plots.
  double mean_bound_psnr = 0.0;
  /// Compounded form: a parallel trajectory whose every slot's log-gain is
  /// amplified by the slot's bound ratio. A strictly looser, worst-case
  /// bound (several dB); reported by the bound ablation bench.
  double mean_bound_psnr_compounded = 0.0;
  double collision_rate = 0.0;  ///< collisions / accessed channel-slots
  double avg_available = 0.0;   ///< average |A(t)|
  /// Downlink transmit energy split by tier (joules over the whole run;
  /// slot duration from Scenario::gop_seconds / gop_deadline).
  double energy_mbs_joules = 0.0;
  double energy_fbs_joules = 0.0;
  double total_energy() const { return energy_mbs_joules + energy_fbs_joules; }
  double avg_expected_channels = 0.0;  ///< average G_t
  std::size_t total_dual_iterations = 0;
  std::size_t slots = 0;
  /// Largest per-slot interference-graph component count seen over the run
  /// (> 1 means the Proposed scheme's interfering slots decomposed and ran
  /// through the shard engine, core/shard.h). Graph-derived and
  /// deterministic: the coverage graph never changes during a run. Never
  /// printed to stdout.
  std::size_t max_components = 0;
};

class Simulator {
 public:
  /// `scenario` must be finalized. The run's randomness derives only from
  /// scenario.seed and `run_index`.
  Simulator(const Scenario& scenario, core::SchemeKind kind,
            std::size_t run_index = 0);

  /// Same, with a caller-supplied scheme (extensions such as the QoS-floor
  /// allocator implement core::Scheme and plug in here).
  Simulator(const Scenario& scenario, std::unique_ptr<core::Scheme> scheme,
            std::size_t run_index = 0);

  RunResult run();

  /// Optional: record one SlotTraceEntry per slot into `recorder` (must
  /// outlive run()). Pass nullptr to detach.
  void attach_trace(TraceRecorder* recorder) { trace_ = recorder; }

  const net::Topology& topology() const { return loop_.topology(); }

 private:
  SlotLoop loop_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace femtocr::sim
