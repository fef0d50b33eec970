// Span-tracing suite: the observability-never-perturbs contract applied to
// util/trace.h. Flipping FEMTOCR_TRACE must not change a bit of any
// simulation result; span counts per name are thread-count invariant
// (durations are wall-clock and are not); and the flight recorder captures
// anomalies under the chaos profile while staying EXACTLY empty on clean
// runs — "zero anomalies" is a meaningful all-clear only if nothing else
// can leak into the pool.
#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/protocol.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace femtocr;

sim::Scenario small_scenario() {
  sim::Scenario s = sim::single_fbs_scenario(/*seed=*/7);
  s.num_gops = 3;  // keep each replication cheap; coverage comes from runs
  s.finalize();
  return s;
}

/// The chaos-smoke overlay (tools/profiles/chaos_smoke.cfg), inlined so
/// the test needs no filesystem path: distributed solver + budget
/// squeezes drive the degradation chain, outages drive the fault notes.
sim::Scenario chaos_scenario() {
  sim::Scenario s = small_scenario();
  sim::apply_fault_profile_string(
      "distributed_solver = on\n"
      "dual_fallback = on\n"
      "dual_max_retries = 1\n"
      "dual_max_iterations = 400\n"
      "fault_sensing_outage_rate = 0.05\n"
      "fault_sensing_outage_slots = 2\n"
      "fault_control_loss_rate = 0.05\n"
      "fault_fbs_outage_rate = 0.03\n"
      "fault_fbs_outage_slots = 2\n"
      "fault_primary_burst_rate = 0.05\n"
      "fault_primary_burst_slots = 1\n"
      "fault_budget_squeeze_rate = 0.15\n"
      "fault_budget_squeeze_iterations = 5\n",
      s);
  s.finalize();
  return s;
}

void expect_stat_identical(const util::RunningStat& a,
                           const util::RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  // Exact double equality is deliberate: tracing must not change WHAT is
  // computed, only record when it happened.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_summary_identical(const sim::SchemeSummary& a,
                              const sim::SchemeSummary& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.runs, b.runs);
  expect_stat_identical(a.mean_psnr, b.mean_psnr);
  expect_stat_identical(a.bound_psnr, b.bound_psnr);
  ASSERT_EQ(a.per_user.size(), b.per_user.size());
  for (std::size_t j = 0; j < a.per_user.size(); ++j) {
    expect_stat_identical(a.per_user[j], b.per_user[j]);
  }
  expect_stat_identical(a.collision_rate, b.collision_rate);
  expect_stat_identical(a.avg_available, b.avg_available);
  expect_stat_identical(a.avg_expected_channels, b.avg_expected_channels);
}

struct ThreadDefaultGuard {
  ~ThreadDefaultGuard() { femtocr::util::set_default_threads(0); }
};

/// Restores the kill switch and empties the rings on the way out so tests
/// in this binary cannot see each other's spans.
struct TraceGuard {
  bool prev = femtocr::util::trace_enabled();
  ~TraceGuard() {
    femtocr::util::set_trace_enabled(prev);
    femtocr::util::reset_trace();
  }
};

std::map<std::string, std::uint64_t> span_count_map() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, n] : util::trace_counts().per_name) out[name] = n;
  return out;
}

TEST(TraceSpans, TraceCollectionDoesNotPerturbResults) {
  // The tentpole contract: the trace kill switch must not change a single
  // bit of any simulation result. Spans draw no randomness and never feed
  // back into the solvers.
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  const sim::Scenario scenario = small_scenario();
  constexpr std::size_t kRuns = 4;
  util::set_default_threads(2);

  util::set_trace_enabled(true);
  const auto with_trace = sim::run_all_schemes(scenario, kRuns);
  util::set_trace_enabled(false);
  const auto without_trace = sim::run_all_schemes(scenario, kRuns);

  ASSERT_EQ(with_trace.size(), without_trace.size());
  for (std::size_t k = 0; k < with_trace.size(); ++k) {
    expect_summary_identical(with_trace[k], without_trace[k]);
  }
}

TEST(TraceSpans, SpanCountsInvariantAcrossThreadCounts) {
  // Durations are wall-clock and vary; the COUNT of spans per name is
  // deterministic work and must be identical for any worker count.
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  util::set_trace_enabled(true);
  const sim::Scenario scenario = small_scenario();
  constexpr std::size_t kRuns = 4;

  std::vector<std::map<std::string, std::uint64_t>> counts;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    util::reset_trace();
    (void)sim::run_all_schemes(scenario, kRuns);
    EXPECT_EQ(util::trace_counts().dropped, 0u) << threads << " threads";
    counts.push_back(span_count_map());
  }

  // The instrumentation sites fired, with the slot envelope intact: one
  // allocate and one deliver per slot span.
  EXPECT_GT(counts[0]["sim.slot"], 0u);
  EXPECT_EQ(counts[0]["sim.slot"], counts[0]["sim.slot.allocate"]);
  EXPECT_EQ(counts[0]["sim.slot"], counts[0]["sim.slot.deliver"]);
  EXPECT_GT(counts[0]["core.waterfill.solve"], 0u);
  for (std::size_t r = 1; r < counts.size(); ++r) {
    EXPECT_EQ(counts[r], counts[0]) << "thread run " << r;
  }
}

TEST(TraceSpans, EverySpanIsATimerOfTheSameName) {
  // One util::Scope per layer: a span name is always a timer name with the
  // same count, and every timer that ran left a span per call. Covers the
  // slot loop, the greedy path of an interfering deployment, and the two
  // solvers the simulator never calls.
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  const bool prev_metrics = util::metrics_enabled();
  util::set_metrics_enabled(true);
  util::set_trace_enabled(true);
  util::metrics().reset();
  util::reset_trace();
  util::set_default_threads(2);

  (void)sim::run_all_schemes(small_scenario(), 2);
  sim::Scenario interfering = sim::interfering_scenario(/*seed=*/3);
  interfering.num_gops = 1;
  interfering.finalize();
  (void)sim::run_all_schemes(interfering, 1);
  util::Rng rng(17);
  const test::ContextFixture f = test::random_context(rng, 4, 2, 2);
  (void)core::exact_allocate(f.ctx);
  (void)core::protocol::run_protocol(
      f.ctx, std::vector<double>(2, f.ctx.total_expected_channels()));

  const std::uint64_t dropped = util::trace_counts().dropped;
  std::map<std::string, std::uint64_t> timers;
  for (const auto& [name, t] : util::metrics().snapshot().timers) {
    if (t.count > 0) timers[name] = t.count;
  }
  util::set_metrics_enabled(prev_metrics);
  ASSERT_EQ(dropped, 0u);
  for (const char* layer : {"sim.slot", "core.greedy.allocate",
                            "core.exact.allocate", "core.protocol.run"}) {
    EXPECT_EQ(timers.count(layer), 1u) << layer;
  }
  EXPECT_EQ(span_count_map(), timers);
}

TEST(TraceSpans, DisabledTracingRecordsNothing) {
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  util::set_trace_enabled(false);
  util::reset_trace();
  (void)sim::run_all_schemes(small_scenario(), 1);
  EXPECT_TRUE(util::trace_counts().per_name.empty());
  EXPECT_EQ(util::trace_anomaly_captures(), 0u);
}

TEST(TraceSpans, FlightRecorderQuietOnCleanRuns) {
  // A clean run reports EXACTLY zero anomalies — the slowest-slot pool
  // absorbs "interesting but healthy" slots so nothing else leaks here.
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  util::set_trace_enabled(true);
  util::reset_trace();
  util::set_default_threads(2);
  (void)sim::run_all_schemes(small_scenario(), 2);
  EXPECT_EQ(util::trace_anomaly_captures(), 0u);
  EXPECT_EQ(util::trace_anomalies_total(), 0u);
}

TEST(TraceSpans, FlightRecorderCapturesUnderChaos) {
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  util::set_trace_enabled(true);
  util::reset_trace();
  util::set_default_threads(1);
  (void)sim::run_experiment(chaos_scenario(), core::SchemeKind::kProposed, 2);
  EXPECT_GE(util::trace_anomaly_captures(), 1u);
  EXPECT_GE(util::trace_anomalies_total(), util::trace_anomaly_captures());
}

TEST(TraceSpans, TraceJsonExportsSpansAndRecorderSections) {
  ThreadDefaultGuard guard;
  TraceGuard trace_guard;
  util::set_trace_enabled(true);
  util::reset_trace();
  util::set_default_threads(1);
  (void)sim::run_experiment(chaos_scenario(), core::SchemeKind::kProposed, 1);

  util::MetricsManifest manifest = util::make_metrics_manifest(0, nullptr);
  std::ostringstream os;
  util::write_trace_json(os, manifest);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.slot.allocate\""), std::string::npos);
  EXPECT_NE(json.find("\"span_counts\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(json.find("\"started_at\""), std::string::npos);
}

}  // namespace
