#include "util/metrics.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/args.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace femtocr::util {

namespace metrics_detail {

std::atomic<int> g_enabled{-1};

bool enabled_slow() {
  return resolve_switch(g_enabled, "FEMTOCR_METRICS", /*fallback=*/true);
}

int env_switch(const char* var) {
  const char* env = std::getenv(var);
  if (env == nullptr) return -1;
  const std::string_view v(env);
  if (v == "1" || v == "on" || v == "true" || v == "ON" || v == "TRUE") {
    return 1;
  }
  if (v == "0" || v == "off" || v == "false" || v == "OFF" || v == "FALSE") {
    return 0;
  }
  return -1;
}

bool resolve_switch(std::atomic<int>& flag, const char* var, bool fallback) {
  // Same precedence style as FEMTOCR_THREADS: the environment is consulted
  // once, the first time an op needs the switch, and cached; an explicit
  // set_*_enabled() beforehand would already have filled the flag.
  const int v = env_switch(var);
  int expected = -1;
  flag.compare_exchange_strong(expected, v < 0 ? int{fallback} : v);
  return flag.load(std::memory_order_relaxed) != 0;
}

std::size_t shard_index() {
  // Stable per-thread slot: threads take ids in first-touch order and keep
  // them for life. Ids alias modulo kMetricShards, so the relaxed
  // fetch_add writes stay correct even if a process ever outlives 32
  // distinct threads — aliasing costs contention, never correctness.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id % kMetricShards;
}

void add_double(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
}

void fold_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void fold_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void fold_max_u64(std::atomic<std::uint64_t>& target, std::uint64_t v) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace metrics_detail

void set_metrics_enabled(bool on) {
  metrics_detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- counter ----

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// -------------------------------------------------------------- histogram ----

std::size_t Histogram::bucket_index(double v) {
  // !(v >= lo) also routes NaN into the underflow bucket instead of
  // feeding it to ilogb.
  if (!(v >= std::ldexp(1.0, kMinExp))) return 0;
  if (v >= std::ldexp(1.0, kMaxExp)) return kNumBuckets - 1;
  int e = std::ilogb(v);  // floor(log2 v): exact at powers of two
  if (e < kMinExp) e = kMinExp;
  if (e >= kMaxExp) e = kMaxExp - 1;
  return static_cast<std::size_t>(e - kMinExp) + 1;
}

double Histogram::bucket_lo(std::size_t index) {
  if (index == 0) return 0.0;
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp);
  return std::ldexp(1.0, kMinExp + static_cast<int>(index) - 1);
}

double Histogram::bucket_hi(std::size_t index) {
  if (index == 0) return std::ldexp(1.0, kMinExp);
  if (index >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, kMinExp + static_cast<int>(index));
}

std::uint64_t Histogram::count() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) {
    sum += s.count.load(std::memory_order_relaxed);
  }
  return sum;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const auto& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::min() const {
  double out = std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& s : shards_) {
    if (s.count.load(std::memory_order_relaxed) > 0) {
      const double m = s.min.load(std::memory_order_relaxed);
      out = m < out ? m : out;
      any = true;
    }
  }
  return any ? out : 0.0;
}

double Histogram::max() const {
  double out = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (const auto& s : shards_) {
    if (s.count.load(std::memory_order_relaxed) > 0) {
      const double m = s.max.load(std::memory_order_relaxed);
      out = m > out ? m : out;
      any = true;
    }
  }
  return any ? out : 0.0;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(kNumBuckets, 0);
  for (const auto& s : shards_) {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      out[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
  }
}

// ------------------------------------------------------------------ timer ----

std::uint64_t TimerStat::count() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) {
    sum += s.count.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t TimerStat::total_ns() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) {
    sum += s.total_ns.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t TimerStat::max_ns() const {
  std::uint64_t out = 0;
  for (const auto& s : shards_) {
    const std::uint64_t m = s.max_ns.load(std::memory_order_relaxed);
    out = m > out ? m : out;
  }
  return out;
}

std::vector<std::uint64_t> TimerStat::bucket_counts() const {
  std::vector<std::uint64_t> out(Histogram::kNumBuckets, 0);
  for (const auto& s : shards_) {
    for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
      out[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void TimerStat::reset() {
  for (auto& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.total_ns.store(0, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------- registry ----

struct MetricsRegistry::Impl {
  // Guards the registration maps only: the metric objects themselves are
  // sharded-atomic and written lock-free from the hot paths. References
  // handed out by the maps stay valid for the process lifetime (values
  // are never erased), so holding the lock across add()/observe() is
  // neither needed nor allowed on the hot path.
  mutable Mutex mutex;
  // Ordered maps so snapshot()/JSON iterate name-sorted without a re-sort.
  std::map<std::string, std::unique_ptr<Counter>> counters
      FEMTOCR_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      FEMTOCR_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<TimerStat>> timers
      FEMTOCR_GUARDED_BY(mutex);
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl i;
  return i;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& im = impl();
  MutexLock lock(im.mutex);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& im = impl();
  MutexLock lock(im.mutex);
  auto& slot = im.histograms[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
    slot->reset();  // arm the per-shard min/max sentinels
  }
  return *slot;
}

TimerStat& MetricsRegistry::timer(const std::string& name) {
  Impl& im = impl();
  MutexLock lock(im.mutex);
  auto& slot = im.timers[name];
  if (!slot) slot = std::make_unique<TimerStat>(name);
  return *slot;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  MutexLock lock(im.mutex);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, h] : im.histograms) h->reset();
  for (auto& [name, t] : im.timers) t->reset();
}

namespace {

/// The nonzero buckets of a folded Histogram / TimerStat bucket vector.
std::vector<HistogramBucketSnapshot> nonzero_buckets(
    const std::vector<std::uint64_t>& counts) {
  std::vector<HistogramBucketSnapshot> out;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    out.push_back({Histogram::bucket_lo(b), Histogram::bucket_hi(b),
                   counts[b]});
  }
  return out;
}

/// The `"buckets": [...]}` tail shared by histogram and timer entries.
void write_buckets(std::ostream& os,
                   const std::vector<HistogramBucketSnapshot>& buckets) {
  os << ", \"buckets\": [";
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (b > 0) os << ", ";
    os << "{\"lo\": ";
    metrics_detail::json_number(os, buckets[b].lo);
    os << ", \"hi\": ";
    metrics_detail::json_number(os, buckets[b].hi);
    os << ", \"count\": " << buckets[b].count << '}';
  }
  os << "]}";
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  MutexLock lock(im.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(im.counters.size());
  for (const auto& [name, c] : im.counters) {
    snap.counters.emplace_back(name, c->total());
  }
  snap.histograms.reserve(im.histograms.size());
  for (const auto& [name, h] : im.histograms) {
    snap.histograms.emplace_back(
        name, HistogramSnapshot{h->count(), h->sum(), h->min(), h->max(),
                                nonzero_buckets(h->bucket_counts())});
  }
  snap.timers.reserve(im.timers.size());
  for (const auto& [name, t] : im.timers) {
    snap.timers.emplace_back(
        name, TimerSnapshot{t->count(), t->total_ns(), t->max_ns(),
                            nonzero_buckets(t->bucket_counts())});
  }
  return snap;
}

// ------------------------------------------------------------ JSON export ----

namespace metrics_detail {

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void json_number(std::ostream& os, double v) {
  // JSON has no inf/nan; the overflow bucket's +inf upper edge maps to
  // null, which metrics_report.py treats as "unbounded".
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

void write_manifest(std::ostream& os, const MetricsManifest& manifest,
                    const char* switch_key, bool switch_on) {
#ifdef FEMTOCR_BUILD_TYPE
  const char* build_type = FEMTOCR_BUILD_TYPE;
#elif defined(NDEBUG)
  const char* build_type = "optimized";
#else
  const char* build_type = "debug";
#endif
  os << "  \"manifest\": {\n";
  os << "    \"seed\": " << manifest.seed << ",\n";
  os << "    \"threads\": " << manifest.threads << ",\n";
  os << "    \"scheme\": ";
  json_string(os, manifest.scheme);
  os << ",\n    \"build_type\": ";
  json_string(os, build_type);
  os << ",\n    \"" << switch_key << "\": " << (switch_on ? "true" : "false");
  os << ",\n    \"git_sha\": ";
  json_string(os, manifest.git_sha);
  os << ",\n    \"hostname\": ";
  json_string(os, manifest.hostname);
  os << ",\n    \"started_at\": ";
  json_string(os, manifest.started_at);
  os << ",\n    \"cli\": ";
  json_string(os, manifest.cli);
  os << "\n  },\n";
}

bool write_json_file(const std::string& path, const char* what,
                     void (*write)(std::ostream&, const MetricsManifest&),
                     const MetricsManifest& manifest) {
  std::ofstream out(path);
  if (!out) {
    FEMTOCR_LOG_WARN << "cannot open " << what << " output file: " << path;
    return false;
  }
  write(out, manifest);
  return static_cast<bool>(out);
}

}  // namespace metrics_detail

MetricsManifest make_metrics_manifest(int argc, const char* const* argv) {
  MetricsManifest m;
  m.threads = default_threads();
  for (int i = 0; i < argc; ++i) {
    if (i > 0) m.cli += ' ';
    m.cli += argv[i];
  }
#ifdef FEMTOCR_GIT_SHA
  m.git_sha = FEMTOCR_GIT_SHA;
#else
  m.git_sha = "unknown";
#endif
#if defined(__unix__) || defined(__APPLE__)
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    m.hostname = host;
  } else {
    m.hostname = "unknown";
  }
#else
  m.hostname = "unknown";
#endif
  m.started_at = wall_clock_iso8601();
  return m;
}

void write_metrics_json(std::ostream& os, const MetricsManifest& manifest) {
  using metrics_detail::json_number;
  using metrics_detail::json_string;
  const MetricsSnapshot snap = metrics().snapshot();
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);

  os << "{\n";
  metrics_detail::write_manifest(os, manifest, "metrics_enabled",
                                 metrics_enabled());

  os << "  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i > 0 ? ",\n    " : "\n    ");
    json_string(os, snap.counters[i].first);
    os << ": " << snap.counters[i].second;
  }
  os << (snap.counters.empty() ? "},\n" : "\n  },\n");

  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    json_string(os, name);
    os << ": {\"count\": " << h.count << ", \"sum\": ";
    json_number(os, h.sum);
    os << ", \"min\": ";
    json_number(os, h.min);
    os << ", \"max\": ";
    json_number(os, h.max);
    write_buckets(os, h.buckets);
  }
  os << (snap.histograms.empty() ? "},\n" : "\n  },\n");

  os << "  \"timers_ns\": {";
  for (std::size_t i = 0; i < snap.timers.size(); ++i) {
    const auto& [name, t] = snap.timers[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    json_string(os, name);
    os << ": {\"count\": " << t.count << ", \"total_ns\": " << t.total_ns
       << ", \"max_ns\": " << t.max_ns;
    write_buckets(os, t.buckets);
  }
  os << (snap.timers.empty() ? "}\n" : "\n  }\n");
  os << "}\n";
  os.precision(old_precision);
}

bool write_metrics_file(const std::string& path,
                        const MetricsManifest& manifest) {
  return metrics_detail::write_json_file(path, "metrics", write_metrics_json,
                                         manifest);
}

bool write_metrics_if_requested(const Args& args, int argc,
                                const char* const* argv) {
  const std::string path = args.get("metrics-out", std::string());
  if (path.empty()) return false;
  return write_metrics_file(path, make_metrics_manifest(argc, argv));
}

}  // namespace femtocr::util
