// Metrics layer contracts: sharded counters/histograms fold to
// thread-count-invariant totals, log-bucket boundaries are exact at powers
// of two, the FEMTOCR_METRICS kill switch really is a no-op (and
// util::Scope honours both kill switches), and the JSON export carries
// every section of the documented schema.
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace {

using namespace femtocr;

/// Metrics are process-global: force-enable for the test body and restore
/// the previous switch state (the suite must pass under FEMTOCR_METRICS=0).
struct MetricsEnabledGuard {
  MetricsEnabledGuard() : prev_(util::metrics_enabled()) {
    util::set_metrics_enabled(true);
  }
  ~MetricsEnabledGuard() {
    util::set_metrics_enabled(prev_);
    util::set_default_threads(0);
  }
  bool prev_;
};

TEST(Metrics, CounterFoldInvariantAcrossThreadCounts) {
  MetricsEnabledGuard guard;
  util::Counter& c = util::metrics().counter("test.metrics.fold_counter");
  constexpr std::size_t kItems = 1000;

  std::vector<std::uint64_t> totals;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    c.reset();
    util::parallel_for(
        kItems, [&](std::size_t i) { c.add(i % 7 + 1); }, threads);
    totals.push_back(c.total());
  }
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kItems; ++i) expected += i % 7 + 1;
  for (const std::uint64_t t : totals) EXPECT_EQ(t, expected);
}

TEST(Metrics, HistogramFoldInvariantAcrossThreadCounts) {
  MetricsEnabledGuard guard;
  util::Histogram& h = util::metrics().histogram("test.metrics.fold_hist");
  constexpr std::size_t kItems = 512;

  std::vector<std::vector<std::uint64_t>> bucket_runs;
  std::vector<std::uint64_t> counts;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    h.reset();
    util::parallel_for(
        kItems,
        [&](std::size_t i) { h.observe(std::ldexp(1.0, (i % 11) - 5)); },
        threads);
    bucket_runs.push_back(h.bucket_counts());
    counts.push_back(h.count());
  }
  for (std::size_t r = 1; r < bucket_runs.size(); ++r) {
    EXPECT_EQ(bucket_runs[r], bucket_runs[0]) << "thread run " << r;
    EXPECT_EQ(counts[r], counts[0]);
  }
  EXPECT_EQ(counts[0], kItems);
  // min/max are exact folds of exact inputs: identical too.
  EXPECT_EQ(h.min(), std::ldexp(1.0, -5));
  EXPECT_EQ(h.max(), std::ldexp(1.0, 5));
}

TEST(Metrics, HistogramBucketBoundariesExactAtPowersOfTwo) {
  // 2^e must land in the bucket whose lo is exactly 2^e — not the one
  // below. Exactness at the boundary is what makes the buckets readable.
  for (int e = util::Histogram::kMinExp; e < util::Histogram::kMaxExp; ++e) {
    const double v = std::ldexp(1.0, e);
    const std::size_t b = util::Histogram::bucket_index(v);
    EXPECT_EQ(util::Histogram::bucket_lo(b), v) << "e=" << e;
    EXPECT_EQ(util::Histogram::bucket_hi(b), std::ldexp(1.0, e + 1))
        << "e=" << e;
    // Just below the boundary falls in the previous bucket.
    const double below = std::nextafter(v, 0.0);
    EXPECT_EQ(util::Histogram::bucket_index(below), b - 1) << "e=" << e;
  }
}

TEST(Metrics, HistogramUnderflowAndOverflow) {
  EXPECT_EQ(util::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(util::Histogram::bucket_index(-3.5), 0u);
  EXPECT_EQ(util::Histogram::bucket_index(
                std::ldexp(1.0, util::Histogram::kMinExp) / 2.0),
            0u);
  EXPECT_EQ(
      util::Histogram::bucket_index(std::ldexp(1.0, util::Histogram::kMaxExp)),
      util::Histogram::kNumBuckets - 1);
  EXPECT_EQ(util::Histogram::bucket_lo(0), 0.0);
  EXPECT_TRUE(
      std::isinf(util::Histogram::bucket_hi(util::Histogram::kNumBuckets - 1)));
}

TEST(Metrics, KillSwitchMakesOpsNoOps) {
  MetricsEnabledGuard guard;
  util::Counter& c = util::metrics().counter("test.metrics.kill_counter");
  util::Histogram& h = util::metrics().histogram("test.metrics.kill_hist");
  util::TimerStat& t = util::metrics().timer("test.metrics.kill_timer");
  c.reset();
  h.reset();
  t.reset();

  util::set_metrics_enabled(false);
  c.add(5);
  h.observe(1.5);
  t.record_ns(1000);
  EXPECT_EQ(c.total(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(t.total_ns(), 0u);

  // Re-enabled: the same handles work again.
  util::set_metrics_enabled(true);
  c.add(5);
  h.observe(1.5);
  t.record_ns(1000);
  EXPECT_EQ(c.total(), 5u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(t.count(), 1u);
}

TEST(Metrics, ScopeFollowsBothKillSwitches) {
  // util::Scope under the four switch settings: the timer follows
  // FEMTOCR_METRICS, a span of the timer's name follows FEMTOCR_TRACE, and
  // one reading feeds both.
  MetricsEnabledGuard guard;
  const bool prev_trace = util::trace_enabled();
  util::TimerStat& t = util::metrics().timer("test.metrics.scope_timer");
  const auto scoped = [&](bool metrics_on, bool trace_on) {
    util::set_metrics_enabled(metrics_on);
    util::set_trace_enabled(trace_on);
    t.reset();
    util::reset_trace();
    util::Scope scope(t);
    const std::optional<std::int64_t> ns = scope.stop();
    EXPECT_FALSE(scope.stop().has_value()) << "a scope closes once";
    return ns;
  };
  using SpanCounts = std::vector<std::pair<std::string, std::uint64_t>>;
  const SpanCounts one_span = {{"test.metrics.scope_timer", 1}};

  EXPECT_FALSE(scoped(false, false).has_value());
  EXPECT_EQ(t.count(), 0u);
  EXPECT_TRUE(util::trace_counts().per_name.empty());

  EXPECT_TRUE(scoped(true, false).has_value());
  EXPECT_EQ(t.count(), 1u);
  EXPECT_TRUE(util::trace_counts().per_name.empty());

  EXPECT_TRUE(scoped(false, true).has_value());
  EXPECT_EQ(t.count(), 0u);
  EXPECT_EQ(util::trace_counts().per_name, one_span);

  const std::optional<std::int64_t> ns = scoped(true, true);
  ASSERT_TRUE(ns.has_value());
  EXPECT_EQ(t.count(), 1u);
  EXPECT_EQ(t.total_ns(), static_cast<std::uint64_t>(*ns));
  EXPECT_EQ(util::trace_counts().per_name, one_span);

  util::set_trace_enabled(prev_trace);
  util::reset_trace();
}

TEST(Metrics, SnapshotIsNameSortedAndComplete) {
  MetricsEnabledGuard guard;
  util::metrics().counter("test.metrics.snap_b").add(2);
  util::metrics().counter("test.metrics.snap_a").add(1);
  const util::MetricsSnapshot snap = util::metrics().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
}

TEST(Metrics, JsonExportCarriesEverySchemaSection) {
  MetricsEnabledGuard guard;
  util::metrics().counter("test.metrics.json_counter").add(42);
  util::Histogram& h = util::metrics().histogram("test.metrics.json_hist");
  h.reset();
  h.observe(2.0);
  util::metrics().timer("test.metrics.json_timer").record_ns(123);

  util::MetricsManifest manifest;
  manifest.seed = 7;
  manifest.threads = 4;
  manifest.scheme = "proposed";
  manifest.cli = "test --with \"quotes\"";
  std::ostringstream oss;
  util::write_metrics_json(oss, manifest);
  const std::string json = oss.str();

  for (const char* needle :
       {"\"manifest\"", "\"seed\": 7", "\"threads\": 4",
        "\"scheme\": \"proposed\"", "\"build_type\"",
        "\"cli\": \"test --with \\\"quotes\\\"\"", "\"counters\"",
        "\"test.metrics.json_counter\": 42", "\"histograms\"",
        "\"test.metrics.json_hist\"", "\"buckets\"", "\"timers_ns\"",
        "\"test.metrics.json_timer\"", "\"total_ns\": 123"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing: " << needle;
  }
  // Structurally a single JSON object: braces balance and close at the end.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.substr(json.size() - 2), "}\n");
}

TEST(Metrics, RegistryResetZeroesButKeepsHandles) {
  MetricsEnabledGuard guard;
  util::Counter& c = util::metrics().counter("test.metrics.reset_counter");
  c.add(9);
  util::metrics().reset();
  EXPECT_EQ(c.total(), 0u);
  c.add(1);
  EXPECT_EQ(c.total(), 1u);
  // Same name resolves to the same object after reset.
  EXPECT_EQ(&util::metrics().counter("test.metrics.reset_counter"), &c);
}

}  // namespace
