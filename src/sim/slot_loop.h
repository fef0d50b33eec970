// The slot loop: the one per-slot procedure behind the batch Simulator
// (sim/simulator.h) and the online Engine (sim/engine.h) — the paper's
// Section V methodology: sense, decide, deliver, and read quality out at
// the GOP deadline.
//
// Stage order, every slot, for both callers:
//   slot scope (sim.slot span + flight-recorder mark)
//   -> mobility (Gaussian steps at GOP boundaries, incremental handoffs)
//   -> begin slot (GOP windows reset to alpha)
//   -> spectrum (sensing + fusion + access, then the spectrum faults)
//   -> churn (departures, then Poisson arrivals through admission)
//   -> context (links, rate constants, fading draws, FBS outages)
//   -> allocate (the scheme, or the equal-share rule under a control loss)
//   -> deliver (fluid or packet; expected or realized channels; the Eq. (23)
//      bound trajectory and the energy ledger)
//   -> GOP readout -> flight-recorder harvest.
// Stages branch only on what the inputs carry: Scenario::faults, delivery
// and accounting, ChurnConfig::enabled(), EngineConfig::verify_graph, or
// an empty population (an idle slot skips context, allocate and deliver).
// The one per-caller choice is the interference graph the allocator sees.
//
// Determinism: every draw comes from the run RNG's substreams, split in the
// fixed order 0xA1 (spectrum), 0xB2 (fading), 0xC3 (mobility), 0xD4 (churn)
// — util::Rng::split counts splits, so the order is part of the seed — or
// from the fault layer's own universe. Churn draws are serial in the slot
// loop; the tallies are bitwise identical for any --threads value and with
// FEMTOCR_METRICS=0, except the wall-clock latency block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "net/topology.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/stats.h"
#include "video/packet_stream.h"
#include "video/session.h"

namespace femtocr::sim {

/// Session arrival/departure process. Rates are per slot.
struct ChurnConfig {
  /// Mean Poisson arrivals per slot; 0 disables churn entirely (the
  /// initial population then runs to the horizon, as in the Simulator).
  double arrival_rate = 0.0;
  /// Mean exponential session lifetime in slots (draws are rounded up, so
  /// every admitted session lives at least one slot).
  double mean_lifetime_slots = 80.0;
  /// Hard per-cell capacity: an arrival whose nearest FBS already serves
  /// this many sessions is rejected before any QoS probe runs.
  std::size_t max_sessions_per_fbs = 6;
  /// GOP-end PSNR floor (dB) the admission probe must certify for every
  /// session of the target cell, newcomer included. 0 = capacity-only
  /// admission.
  double admission_min_psnr = 0.0;

  bool enabled() const { return arrival_rate > 0.0; }
};

/// One run of the loop: its horizon, the churn process and the graph
/// cross-check. The Simulator runs churn off for num_gops GOPs.
struct EngineConfig {
  std::size_t slots = 200;  ///< horizon (the engine itself is open-ended)
  ChurnConfig churn;
  /// Cross-check the incremental active graph + association invariants
  /// against a from-scratch rebuild after every churn/mobility event.
  /// FEMTOCR_CHECK-backed: aborts on divergence even in release builds.
  bool verify_graph = false;
};

/// Per-run serving outputs: what the Engine reports, and the part of the
/// loop's tallies the Simulator reads as well. Everything except the
/// latency block is deterministic (thread-count and metrics-toggle
/// invariant).
struct EngineReport {
  std::size_t slots = 0;
  std::size_t arrivals = 0;            ///< Poisson arrivals offered
  std::size_t admitted = 0;
  std::size_t rejected_capacity = 0;   ///< cell at max_sessions_per_fbs
  std::size_t rejected_qos = 0;        ///< QoS probe refused the floor
  std::size_t departures = 0;          ///< lifetime expiries processed
  std::size_t handoffs = 0;            ///< mobility re-associations
  std::size_t peak_sessions = 0;       ///< max concurrent sessions seen
  std::size_t idle_slots = 0;          ///< slots served with zero sessions
  std::size_t max_components = 0;      ///< served graph's component peak
  std::size_t completed_gops = 0;      ///< (session, GOP window) readouts
  double mean_psnr = 0.0;              ///< mean delivered GOP PSNR
  std::size_t total_dual_iterations = 0;
  std::size_t graph_cross_checks = 0;  ///< verify_graph passes executed

  /// Decision-latency SLO (nearest-rank percentiles over the run's
  /// allocate calls). Wall-clock: populated only when metrics or tracing
  /// are enabled; JSON/stderr only, never stdout.
  std::int64_t decision_latency_p50_ns = 0;
  std::int64_t decision_latency_p90_ns = 0;
  std::int64_t decision_latency_p99_ns = 0;
};

/// Run totals of the slot loop; each façade reads the ones its report
/// needs.
struct SlotTallies {
  EngineReport report;
  std::size_t accessed = 0;    ///< accessed channel-slots
  std::size_t collided = 0;    ///< accessed channel-slots that were busy
  double sum_available = 0.0;  ///< sum over slots of |A(t)|
  double sum_expected = 0.0;   ///< sum over slots of G_t
  double energy_mbs_joules = 0.0;
  double energy_fbs_joules = 0.0;
};

class SlotLoop {
 public:
  /// One live session: every per-user state the loop advances, so a
  /// departure erases one element.
  struct Session {
    Session(const std::string& video_name, const Scenario& scenario,
            std::size_t depart_slot);

    /// W as the allocator sees it, and the delivered quality of the last
    /// and of all completed GOPs: the packet stream's under packet delivery.
    double current_psnr() const {
      return packets ? packets->current_psnr() : video.current_psnr();
    }
    double last_gop_psnr() const {
      return (packets ? packets->gop_history() : video.gop_history()).back();
    }
    double mean_gop_psnr() const {
      return packets ? packets->mean_gop_psnr() : video.mean_gop_psnr();
    }

    video::VideoSession video;
    /// Compounded Eq. (23) bound: a parallel trajectory whose every slot's
    /// log-gain is amplified by the slot's bound ratio.
    video::VideoSession bound;
    /// State-following Eq. (23) bound: each GOP's delivered W_T inflated
    /// by the GOP's mean per-slot optimality slack.
    util::RunningStat bound_readout;
    std::optional<video::PacketStream> packets;  ///< DeliveryModel::kPacket
    std::size_t depart_slot;  ///< the slot at whose start it leaves
  };

  /// `scenario` must be finalized; its users are the initial population.
  /// `horizon` sizes the fault plan. The run's randomness derives only from
  /// scenario.seed and `run_index`.
  SlotLoop(const Scenario& scenario, std::unique_ptr<core::Scheme> scheme,
           std::size_t run_index, std::size_t horizon);

  /// Serves `config.slots` slots, allocating against `graph`: either
  /// topology().graph() or topology().active_graph() — the one per-caller
  /// choice. `trace`, when set, records one SlotTraceEntry per served slot.
  SlotTallies run(const EngineConfig& config,
                  const net::InterferenceGraph& graph, TraceRecorder* trace);

  const Scenario& scenario() const { return scenario_; }
  const net::Topology& topology() const { return topology_; }
  core::Scheme& scheme() { return *scheme_; }
  const core::Scheme& scheme() const { return *scheme_; }
  const std::vector<Session>& sessions() const { return sessions_; }

 private:
  static constexpr std::size_t kNeverDeparts = static_cast<std::size_t>(-1);

  /// Gaussian per-GOP movement of every user within the deployment's
  /// bounding box, through the incremental topology ops.
  void move_users(util::Rng& rng, EngineReport& report);

  /// Applies the slot's spectrum-side faults to `obs` in place: primary
  /// bursts flip ground truth to busy behind the posteriors' back; a
  /// sensing outage freezes the previous slot's posteriors and re-realizes
  /// the Eq. (7) access decisions against them (collision budget intact by
  /// construction).
  void apply_spectrum_faults(std::size_t slot, spectrum::SlotObservation& obs);

  /// Removes every session whose lifetime expired at or before slot t,
  /// then draws and admits slot t's Poisson arrivals serially from
  /// `churn_rng`. `expected_channels` is the slot's G_t for the probe.
  void run_churn(std::size_t t, const ChurnConfig& churn,
                 double expected_channels, util::Rng& churn_rng,
                 EngineReport& report);

  /// Admission test for a candidate at `position` streaming `video_name`:
  /// capacity cap, then the per-cell QoS probe. Returns true to admit;
  /// bumps the report's rejection tallies otherwise.
  bool admit(std::size_t t, const ChurnConfig& churn, phy::Point position,
             const std::string& video_name, double expected_channels,
             EngineReport& report) const;

  /// The slot's allocation input over the live sessions: the one place
  /// the fading draws happen (MBS then FBS link, user order).
  core::SlotContext make_context(const spectrum::SlotObservation& obs,
                                 const net::InterferenceGraph& graph,
                                 util::Rng& fading_rng,
                                 std::size_t slot) const;

  /// Realizes the allocation: PSNR increments, packet transmissions, the
  /// bound trajectory, the energy ledger, and the trace's per-user rows.
  void deliver(std::size_t t, const core::SlotContext& ctx,
               const core::SlotAllocation& alloc,
               const spectrum::SlotObservation& obs, SlotTraceEntry* trace,
               SlotTallies& tallies);

  Scenario scenario_;  ///< copied: the loop outlives the caller's config
  std::size_t run_index_ = 0;  ///< postmortem identity for the recorder
  net::Topology topology_;
  std::unique_ptr<core::Scheme> scheme_;
  util::Rng rng_;
  /// Fault layer (sim/faults.h). The plan is realized once per run from a
  /// dedicated seed universe; fault_rng_ only ever draws when the plan is
  /// enabled, so disabled runs are bitwise identical to pre-fault builds.
  FaultPlan fault_plan_;
  util::Rng fault_rng_;
  std::vector<double> last_posteriors_;  ///< frozen under sensing outages
  std::vector<Session> sessions_;        ///< parallel to topology_.users()
  std::size_t next_video_ = 0;           ///< catalogue cursor for arrivals
};

}  // namespace femtocr::sim
