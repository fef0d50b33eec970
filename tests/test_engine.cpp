// Online allocation engine (sim/engine.h): determinism across thread
// counts, churn accounting, both admission-rejection paths, graph
// verification, survival of zero-session stretches, the scenarios it
// refuses, and equivalence with the batch Simulator when churn is off.
// Every run also checks session conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace femtocr::sim {
namespace {

Scenario churn_scenario(std::uint64_t seed = 1) {
  Scenario s = fig1_scenario(seed);
  s.mobility.step_stddev = 3.0;
  s.finalize();
  return s;
}

EngineConfig churn_config() {
  EngineConfig cfg;
  cfg.slots = 120;
  cfg.churn.arrival_rate = 0.3;
  cfg.churn.mean_lifetime_slots = 40.0;
  cfg.churn.max_sessions_per_fbs = 4;
  cfg.churn.admission_min_psnr = 33.0;
  return cfg;
}

/// Every EngineReport field except the wall-clock latency block.
void expect_reports_identical(const EngineReport& a, const EngineReport& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected_capacity, b.rejected_capacity);
  EXPECT_EQ(a.rejected_qos, b.rejected_qos);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.peak_sessions, b.peak_sessions);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  EXPECT_EQ(a.max_components, b.max_components);
  EXPECT_EQ(a.completed_gops, b.completed_gops);
  EXPECT_EQ(a.mean_psnr, b.mean_psnr);  // bitwise, not approximate
  EXPECT_EQ(a.total_dual_iterations, b.total_dual_iterations);
  EXPECT_EQ(a.graph_cross_checks, b.graph_cross_checks);
}

/// Runs one engine and checks session conservation: every offered arrival
/// is admitted or rejected exactly once, and the live population is the
/// initial one plus admissions minus departures.
EngineReport run_engine(const Scenario& s, const EngineConfig& cfg,
                        std::size_t run_index) {
  Engine engine(s, cfg, run_index);
  const EngineReport rep = engine.run();
  EXPECT_EQ(rep.arrivals,
            rep.admitted + rep.rejected_capacity + rep.rejected_qos);
  EXPECT_EQ(engine.topology().num_users(),
            s.users.size() + rep.admitted - rep.departures);
  return rep;
}

struct ThreadDefaultGuard {
  ~ThreadDefaultGuard() { util::set_default_threads(0); }
};

TEST(Engine, ChurnRunIsDeterministicAcrossThreadCounts) {
  ThreadDefaultGuard guard;
  const Scenario s = churn_scenario();
  const EngineConfig cfg = churn_config();

  util::set_default_threads(1);
  const EngineReport reference = run_engine(s, cfg, /*run_index=*/0);
  // The run must actually exercise the churn machinery, or determinism
  // over it is vacuous.
  EXPECT_GT(reference.arrivals, 0u);
  EXPECT_GT(reference.admitted, 0u);
  EXPECT_GT(reference.departures, 0u);
  EXPECT_GT(reference.completed_gops, 0u);
  EXPECT_GT(reference.mean_psnr, 0.0);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    const EngineReport rep = run_engine(s, cfg, /*run_index=*/0);
    expect_reports_identical(reference, rep);
  }
}

TEST(Engine, RunIndexSelectsIndependentSubstreams) {
  const Scenario s = churn_scenario();
  const EngineConfig cfg = churn_config();
  const EngineReport r0 = run_engine(s, cfg, 0);
  const EngineReport r1 = run_engine(s, cfg, 1);
  // Different runs see different churn and fading; an identical delivered
  // quality would mean the run split is dead.
  EXPECT_NE(r0.mean_psnr, r1.mean_psnr);
  // And the same run index replays exactly.
  expect_reports_identical(r0, run_engine(s, cfg, 0));
}

TEST(Engine, CapacityCapRejectsArrivals) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifetime_slots = 200.0;  // nobody leaves: cells fill up
  cfg.churn.max_sessions_per_fbs = 2;     // fig1 starts at 2 per cell
  cfg.churn.admission_min_psnr = 0.0;     // isolate the capacity path
  const EngineReport rep = run_engine(s, cfg, 0);
  EXPECT_GT(rep.rejected_capacity, 0u);
  EXPECT_EQ(rep.rejected_qos, 0u);
  EXPECT_EQ(rep.arrivals,
            rep.admitted + rep.rejected_capacity + rep.rejected_qos);
}

TEST(Engine, QosFloorRejectsArrivals) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.max_sessions_per_fbs = 100;  // capacity never binds
  cfg.churn.admission_min_psnr = 60.0;   // above any sequence's ceiling
  const EngineReport rep = run_engine(s, cfg, 0);
  EXPECT_GT(rep.arrivals, 0u);
  EXPECT_EQ(rep.rejected_capacity, 0u);
  EXPECT_EQ(rep.rejected_qos, rep.arrivals);
  EXPECT_EQ(rep.admitted, 0u);
}

TEST(Engine, AdmissionPolicyDoesNotDesyncTheChurnStream) {
  // Lifetimes are drawn for rejected arrivals too, so the offered-traffic
  // process is invariant to the admission policy.
  const Scenario s = churn_scenario();
  EngineConfig open = churn_config();
  open.churn.admission_min_psnr = 0.0;
  open.churn.max_sessions_per_fbs = 100;
  EngineConfig closed = open;
  closed.churn.admission_min_psnr = 60.0;  // rejects everyone
  const EngineReport a = run_engine(s, open, 0);
  const EngineReport b = run_engine(s, closed, 0);
  EXPECT_EQ(a.arrivals, b.arrivals);
}

TEST(Engine, AdmissionIgnoresDeliveredHistoryAtGopStart) {
  // With gop_deadline = 1 every slot opens a GOP, so every admission probe
  // plans a fresh GOP from the incumbents' base-layer quality alpha, not
  // from what the allocator delivered last slot. Two solvers that deliver
  // differently must therefore admit exactly the same arrivals.
  EngineConfig cfg;
  cfg.slots = 120;
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.mean_lifetime_slots = 40.0;
  cfg.churn.max_sessions_per_fbs = 100;
  cfg.churn.admission_min_psnr = 33.0;
  std::vector<EngineReport> reports;
  for (const bool distributed : {false, true}) {
    Scenario s = fig1_scenario(1);
    s.gop_deadline = 1;
    s.use_distributed_solver = distributed;
    s.finalize();
    reports.push_back(run_engine(s, cfg, 0));
  }
  EXPECT_GT(reports[0].admitted, 0u);
  EXPECT_EQ(reports[0].arrivals, reports[1].arrivals);
  EXPECT_EQ(reports[0].admitted, reports[1].admitted);
  EXPECT_EQ(reports[0].rejected_capacity, reports[1].rejected_capacity);
  EXPECT_EQ(reports[0].rejected_qos, reports[1].rejected_qos);
  EXPECT_EQ(reports[0].departures, reports[1].departures);
}

TEST(Engine, VerifyGraphCrossChecksEveryChurnAndMobilityEvent) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.verify_graph = true;
  const EngineReport rep = run_engine(s, cfg, 0);
  // One check per churn slot plus one per mobility boundary; a divergence
  // would have aborted (FEMTOCR_CHECK), so arriving here IS the assertion.
  EXPECT_GE(rep.graph_cross_checks, rep.slots);
}

TEST(Engine, SurvivesZeroSessionStretches) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.slots = 200;
  cfg.churn.arrival_rate = 0.02;        // trickle in…
  cfg.churn.mean_lifetime_slots = 2.0;  // …and leave at once
  cfg.verify_graph = true;
  const EngineReport rep = run_engine(s, cfg, 0);
  EXPECT_GT(rep.idle_slots, 0u);
  // The hard invariant is that the engine reached the horizon at all and
  // kept the graph consistent while the population drained to zero.
  EXPECT_EQ(rep.slots, cfg.slots);
}

TEST(Engine, RejectsScenariosItDoesNotServe) {
  // Packet delivery, realized accounting and fault profiles run only in
  // the batch Simulator; the engine refuses them instead of ignoring them.
  Scenario packet = churn_scenario();
  packet.delivery = DeliveryModel::kPacket;
  Scenario realized = churn_scenario();
  realized.accounting = Accounting::kRealized;
  Scenario faulty = churn_scenario();
  faulty.faults.control_loss_rate = 0.1;
  faulty.finalize();
  for (const Scenario* s : {&packet, &realized, &faulty}) {
    EXPECT_THROW(Engine(*s, churn_config(), 0), std::logic_error);
  }
}

TEST(Engine, NoChurnMatchesInitialPopulationServing) {
  // arrival_rate 0 disables churn: the initial population runs to the
  // horizon, so the engine must serve what the batch Simulator serves.
  Scenario mobile = fig1_scenario(1);
  mobile.mobility.step_stddev = 3.0;
  mobile.finalize();
  const std::vector<Scenario> inputs = {fig1_scenario(1), mobile,
                                        interfering_scenario(1),
                                        single_fbs_scenario(1)};
  for (const Scenario& s : inputs) {
    EngineConfig cfg;
    cfg.slots = s.gop_deadline * s.num_gops;
    {
      // The engine allocates against the active graph, the Simulator
      // against the coverage graph: they agree only when every cell serves.
      const Engine engine(s, cfg, 0);
      ASSERT_TRUE(engine.topology().active_graph().same_structure(
          engine.topology().graph()));
    }
    const EngineReport rep = run_engine(s, cfg, 0);
    const RunResult batch = Simulator(s, core::SchemeKind::kProposed, 0).run();
    EXPECT_EQ(rep.arrivals, 0u);
    EXPECT_EQ(rep.departures, 0u);
    EXPECT_EQ(rep.idle_slots, 0u);
    EXPECT_EQ(rep.peak_sessions, s.users.size());
    EXPECT_EQ(rep.completed_gops, s.users.size() * s.num_gops);
    // The two readouts sum the same GOP qualities in different orders.
    EXPECT_NEAR(rep.mean_psnr, batch.mean_psnr,
                1e-12 * std::abs(batch.mean_psnr));
    EXPECT_EQ(rep.total_dual_iterations, batch.total_dual_iterations);
  }
}

}  // namespace
}  // namespace femtocr::sim
