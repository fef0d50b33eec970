// Online allocation engine: slots as requests, sessions as tenants.
//
// The batch Simulator (sim/simulator.h) replays a fixed population for a
// fixed horizon. The Engine serves an open one: video sessions arrive by a
// Poisson process, live an exponential lifetime, and leave — with every
// topology consequence (association, links, the activity-filtered
// interference graph, the cached shard decomposition) applied
// *incrementally* per event instead of rebuilt per slot. Both are façades
// over one slot loop (sim/slot_loop.h) with one stage order; the Engine
// turns churn on and allocates against the active graph.
//
// Admission control: a new session is admitted only if (a) its nearest
// femtocell has capacity (`max_sessions_per_fbs`) and (b), when a quality
// floor is configured, the QoS layer (core/qos.h) reports the cell can
// still hold every attached session plus the newcomer at the floor given
// the slot's expected channel supply (`QosPlan::floors_met` on a per-cell
// probe context). GOP windows open before churn, so a probe at a GOP start
// plans from alpha. Rejected arrivals never touch the topology.
//
// Interference model: net::Topology::active_graph() is the coverage graph
// restricted to femtocells currently serving at least one session (an
// empty cell does not transmit, so its overlaps constrain nobody). Churn
// and handoffs therefore split and merge components at event granularity,
// which is exactly the workload the fingerprint-keyed shard warm starts
// (core/scheme.h) exist for. With `verify_graph` on, the engine
// cross-checks the incremental graph against a from-scratch rebuild after
// every churn/mobility event (FEMTOCR_CHECK — active in release builds,
// the CI churn-smoke gate runs with it enabled).
//
// Determinism contract: all churn randomness comes from the run RNG's
// split(0xD4) substream, drawn serially in the slot loop. Every
// EngineReport field except the latency SLO block is bitwise identical for
// any --threads value and with FEMTOCR_METRICS=0. Lifetime draws happen
// for every arrival, admitted or not, so the substream stays aligned
// across admission-policy changes. The sensing population
// (spectrum::SpectrumConfig::num_users) stays fixed at the base scenario's
// deployment: sessions ride on top of the sensing infrastructure rather
// than re-wiring it per arrival.
//
// Observability: the loop's sim.slot.* spans, timers and histograms, the
// sim.engine.run timer, and the sim.engine.* counters — registered by the
// first engine run and published once per run from the EngineReport, so
// batch runs keep their exact historical counter set. Wall-clock values
// never reach stdout.
#pragma once

#include <cstddef>

#include "net/topology.h"
#include "sim/scenario.h"
#include "sim/slot_loop.h"

namespace femtocr::sim {

class Engine {
 public:
  /// `scenario` must be finalized, use the fluid/expected delivery model
  /// and carry no fault profile; its users become the initial session
  /// population.
  Engine(const Scenario& scenario, EngineConfig config,
         std::size_t run_index = 0);

  EngineReport run();

  const net::Topology& topology() const { return loop_.topology(); }

 private:
  EngineConfig config_;
  SlotLoop loop_;
};

}  // namespace femtocr::sim
