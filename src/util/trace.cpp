#include "util/trace.h"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string_view>

#include "util/thread_annotations.h"
#include "util/timer.h"

namespace femtocr::util {

namespace trace_detail {

std::atomic<int> g_enabled{-1};

bool enabled_slow() {
  // The default is OFF: recording a span costs a ring store per scope, so
  // tracing is strictly opt-in (--trace-out or the environment).
  return metrics_detail::resolve_switch(g_enabled, "FEMTOCR_TRACE",
                                        /*fallback=*/false);
}

namespace {

/// Newest-events-win ring capacity per thread. FEMTOCR_TRACE_BUFFER
/// overrides (events per thread, clamped); the default comfortably holds a
/// smoke-sized run on a single worker so thread-count invariance checks
/// never see drops.
constexpr std::size_t kDefaultRingCapacity = 1 << 16;
constexpr std::size_t kMinRingCapacity = 1 << 12;
constexpr std::size_t kMaxRingCapacity = 1 << 22;

/// Bounds on the postmortem pools: captures are meant for a human reading
/// one bad slot, not for bulk export.
constexpr std::size_t kMaxAnomalyCaptures = 16;
constexpr std::size_t kMaxSlowSlots = 8;
constexpr std::size_t kMaxCapturedEventsPerSlot = 512;
constexpr std::size_t kMaxPendingNotes = 16;

std::size_t ring_capacity_from_env() {
  std::size_t cap = kDefaultRingCapacity;
  if (const char* env = std::getenv("FEMTOCR_TRACE_BUFFER")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      cap = static_cast<std::size_t>(v);
    }
  }
  return std::clamp(cap, kMinRingCapacity, kMaxRingCapacity);
}

}  // namespace

/// One completed span, written in place at destructor time.
struct TraceEvent {
  const char* name = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint32_t num_args = 0;
  Scope::Arg args[kMaxSpanArgs];
};

/// Single-writer span ring plus the owning thread's span-stack depth and
/// pending anomaly notes. Written only by the owning thread; read by the
/// exporting thread while the pool is quiescent (the replication pool's
/// join provides the happens-before edge, same as the metrics fold).
struct ThreadRing {
  ThreadRing(std::uint32_t id, std::size_t cap) : tid(id), events(cap) {}

  const std::uint32_t tid;
  std::vector<TraceEvent> events;  ///< fixed capacity, events.size() slots
  std::uint64_t head = 0;          ///< events ever pushed; slot = head % cap
  std::uint32_t depth = 0;         ///< current span nesting depth
  std::vector<const char*> notes;  ///< pending anomaly tags for this slot

  std::size_t capacity() const { return events.size(); }
  /// Sequence number of the oldest event still resident.
  std::uint64_t resident_begin() const {
    return head > events.size() ? head - events.size() : 0;
  }
};

namespace {

/// One frozen slot: identity, trigger tags, and the span subtree.
struct CapturedSlot {
  std::uint64_t run = 0;
  std::uint64_t slot = 0;
  std::int64_t latency_ns = 0;
  std::vector<const char*> triggers;
  std::vector<TraceEvent> events;
};

struct TraceRegistry {
  // Guards registration and the recorder pools only — ring event writes
  // stay lock-free on the owning thread.
  mutable Mutex mutex;
  std::vector<std::unique_ptr<ThreadRing>> rings FEMTOCR_GUARDED_BY(mutex);
  std::size_t ring_capacity FEMTOCR_GUARDED_BY(mutex) = 0;
  std::vector<CapturedSlot> anomalies FEMTOCR_GUARDED_BY(mutex);
  std::uint64_t anomalies_total FEMTOCR_GUARDED_BY(mutex) = 0;
  std::vector<CapturedSlot> slow_slots FEMTOCR_GUARDED_BY(mutex);
};

TraceRegistry& registry() {
  static TraceRegistry r;
  return r;
}

/// The calling thread's ring, created and registered on first use.
ThreadRing* this_thread_ring() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) {
    TraceRegistry& reg = registry();
    MutexLock lock(reg.mutex);
    if (reg.ring_capacity == 0) reg.ring_capacity = ring_capacity_from_env();
    const auto tid = static_cast<std::uint32_t>(reg.rings.size());
    reg.rings.push_back(std::make_unique<ThreadRing>(tid, reg.ring_capacity));
    ring = reg.rings.back().get();
  }
  return ring;
}

}  // namespace

}  // namespace trace_detail

void set_trace_enabled(bool on) {
  trace_detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool trace_env_disabled() {
  return metrics_detail::env_switch("FEMTOCR_TRACE") == 0;
}

// ------------------------------------------------------------------ scope ----

void Scope::open() {
  open_ = true;
  if (trace_enabled()) {
    ring_ = trace_detail::this_thread_ring();
    ++ring_->depth;
  }
  begin_ns_ = monotonic_now_ns();
}

std::int64_t Scope::close() {
  const std::int64_t ns = monotonic_now_ns() - begin_ns_;
  open_ = false;
  timer_.record_ns(ns);  // a no-op with metrics off
  if (ring_ == nullptr) return ns;
  trace_detail::ThreadRing& r = *ring_;
  ring_ = nullptr;
  trace_detail::TraceEvent& e = r.events[r.head % r.capacity()];
  e.name = timer_.name();
  e.begin_ns = begin_ns_;
  e.dur_ns = ns;
  e.tid = r.tid;
  e.depth = --r.depth;  // scopes nest strictly: the depth it opened at
  e.num_args = num_args_;
  std::copy_n(args_, num_args_, e.args);
  ++r.head;
  return ns;
}

// -------------------------------------------------------- flight recorder ----

void trace_note_anomaly(const char* tag) {
  if (!trace_enabled()) return;
  trace_detail::ThreadRing* r = trace_detail::this_thread_ring();
  if (r->notes.size() < trace_detail::kMaxPendingNotes) r->notes.push_back(tag);
}

std::uint64_t trace_slot_mark() {
  if (!trace_enabled()) return 0;
  return trace_detail::this_thread_ring()->head;
}

void trace_flight_record_slot(const SlotPostmortemContext& ctx,
                              std::uint64_t mark) {
  if (!trace_enabled()) return;
  trace_detail::ThreadRing* r = trace_detail::this_thread_ring();

  // Consume the pending notes, deduplicating while preserving first-seen
  // order (fault sites may fire the same tag once per user).
  std::vector<const char*> triggers;
  triggers.swap(r->notes);
  auto last = triggers.begin();
  for (auto it = triggers.begin(); it != triggers.end(); ++it) {
    if (std::find_if(triggers.begin(), last, [&](const char* seen) {
          return std::string_view(seen) == std::string_view(*it);
        }) == last) {
      *last++ = *it;
    }
  }
  triggers.erase(last, triggers.end());

  const bool anomalous = !triggers.empty();
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  const bool want_slow =
      reg.slow_slots.size() < trace_detail::kMaxSlowSlots ||
      std::any_of(reg.slow_slots.begin(), reg.slow_slots.end(),
                  [&](const trace_detail::CapturedSlot& s) {
                    return ctx.latency_ns > s.latency_ns;
                  });
  if (!anomalous && !want_slow) return;

  // Freeze this slot's span subtree: everything recorded since `mark`
  // that the ring still holds, newest-biased when the slot overflowed the
  // per-capture bound.
  trace_detail::CapturedSlot cap;
  cap.run = ctx.run;
  cap.slot = ctx.slot;
  cap.latency_ns = ctx.latency_ns;
  cap.triggers = triggers;
  std::uint64_t lo = std::max(mark, r->resident_begin());
  if (r->head - lo > trace_detail::kMaxCapturedEventsPerSlot) {
    lo = r->head - trace_detail::kMaxCapturedEventsPerSlot;
  }
  cap.events.reserve(static_cast<std::size_t>(r->head - lo));
  for (std::uint64_t seq = lo; seq < r->head; ++seq) {
    cap.events.push_back(r->events[seq % r->capacity()]);
  }

  if (anomalous) {
    ++reg.anomalies_total;
    if (reg.anomalies.size() < trace_detail::kMaxAnomalyCaptures) {
      reg.anomalies.push_back(cap);
    }
  }
  if (reg.slow_slots.size() < trace_detail::kMaxSlowSlots) {
    reg.slow_slots.push_back(std::move(cap));
  } else {
    auto slowest_min = std::min_element(
        reg.slow_slots.begin(), reg.slow_slots.end(),
        [](const trace_detail::CapturedSlot& a,
           const trace_detail::CapturedSlot& b) {
          return a.latency_ns < b.latency_ns;
        });
    if (ctx.latency_ns > slowest_min->latency_ns) {
      *slowest_min = std::move(cap);
    }
  }
}

std::size_t trace_anomaly_captures() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  return reg.anomalies.size();
}

std::uint64_t trace_anomalies_total() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  return reg.anomalies_total;
}

// ------------------------------------------------------- snapshot / export ---

namespace {

/// The one fold over the rings, under the registry lock: per-name counts
/// and drops, with every resident event (tid order) also handed to `visit`.
template <typename Visit>
TraceCounts fold_rings(trace_detail::TraceRegistry& reg, Visit&& visit)
    FEMTOCR_REQUIRES(reg.mutex) {
  std::map<std::string, std::uint64_t> by_name;
  TraceCounts out;
  for (const auto& ring : reg.rings) {
    out.dropped += ring->resident_begin();
    for (std::uint64_t seq = ring->resident_begin(); seq < ring->head; ++seq) {
      const trace_detail::TraceEvent& e = ring->events[seq % ring->capacity()];
      ++by_name[e.name];
      visit(e);
    }
  }
  out.per_name.assign(by_name.begin(), by_name.end());
  return out;
}

}  // namespace

TraceCounts trace_counts() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  return fold_rings(reg, [](const trace_detail::TraceEvent&) {});
}

void reset_trace() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    ring->head = 0;
    ring->notes.clear();
  }
  reg.anomalies.clear();
  reg.anomalies_total = 0;
  reg.slow_slots.clear();
}

namespace {

using metrics_detail::json_number;
using metrics_detail::json_string;

/// Chrome wants microseconds; emit rebased nanoseconds as "us.nnn" in
/// fixed-point so no float formatting can lose a nanosecond.
void json_us(std::ostream& os, std::int64_t ns) {
  if (ns < 0) ns = 0;
  os << (ns / 1000) << '.' << std::setw(3) << std::setfill('0') << (ns % 1000)
     << std::setfill(' ');
}

void write_event(std::ostream& os, const trace_detail::TraceEvent& e,
                 std::int64_t t0, bool chrome_shape) {
  os << "{\"name\": ";
  json_string(os, e.name);
  os << (chrome_shape ? ", \"ph\": \"X\", \"ts\": " : ", \"ts\": ");
  json_us(os, e.begin_ns - t0);
  os << ", \"dur\": ";
  json_us(os, e.dur_ns);
  os << (chrome_shape ? ", \"pid\": 1, \"tid\": " : ", \"tid\": ") << e.tid;
  os << ", \"args\": {\"depth\": " << e.depth;
  for (std::uint32_t a = 0; a < e.num_args; ++a) {
    os << ", ";
    json_string(os, e.args[a].key);
    os << ": ";
    json_number(os, e.args[a].value);
  }
  os << "}}";
}

void write_captured_slot(std::ostream& os, const trace_detail::CapturedSlot& c,
                         std::int64_t t0) {
  os << "{\"run\": " << c.run << ", \"slot\": " << c.slot
     << ", \"latency_ns\": " << c.latency_ns << ", \"triggers\": [";
  for (std::size_t i = 0; i < c.triggers.size(); ++i) {
    if (i > 0) os << ", ";
    json_string(os, c.triggers[i]);
  }
  os << "], \"events\": [";
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (i > 0) os << ", ";
    write_event(os, c.events[i], t0, /*chrome_shape=*/false);
  }
  os << "]}";
}

}  // namespace

void write_trace_json(std::ostream& os, const MetricsManifest& manifest) {
  // Snapshot under the registry lock: resident events per ring (tid
  // order), per-name counts, drop totals and both recorder pools.
  std::vector<trace_detail::TraceEvent> events;
  std::vector<trace_detail::CapturedSlot> anomalies;
  std::vector<trace_detail::CapturedSlot> slow_slots;
  TraceCounts counts;
  std::uint64_t anomalies_total = 0;
  {
    trace_detail::TraceRegistry& reg = trace_detail::registry();
    MutexLock lock(reg.mutex);
    counts = fold_rings(reg, [&](const trace_detail::TraceEvent& e) {
      events.push_back(e);
    });
    anomalies = reg.anomalies;
    slow_slots = reg.slow_slots;
    anomalies_total = reg.anomalies_total;
  }
  std::sort(slow_slots.begin(), slow_slots.end(),
            [](const trace_detail::CapturedSlot& a,
               const trace_detail::CapturedSlot& b) {
              return a.latency_ns > b.latency_ns;
            });

  // Rebase timestamps to the earliest event so viewers start near zero.
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto& e : events) t0 = std::min(t0, e.begin_ns);
  for (const auto* pool : {&anomalies, &slow_slots}) {
    for (const auto& c : *pool) {
      for (const auto& e : c.events) t0 = std::min(t0, e.begin_ns);
    }
  }
  if (t0 == std::numeric_limits<std::int64_t>::max()) t0 = 0;

  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    os << (i > 0 ? ",\n " : "\n ");
    write_event(os, events[i], t0, /*chrome_shape=*/true);
  }
  os << (events.empty() ? "],\n" : "\n],\n");
  os << "\"displayTimeUnit\": \"ns\",\n";

  os << "\"femtocr\": {\n";
  metrics_detail::write_manifest(os, manifest, "trace_enabled",
                                 trace_enabled());

  os << "  \"span_counts\": {";
  for (std::size_t i = 0; i < counts.per_name.size(); ++i) {
    os << (i > 0 ? ",\n    " : "\n    ");
    json_string(os, counts.per_name[i].first);
    os << ": " << counts.per_name[i].second;
  }
  os << (counts.per_name.empty() ? "},\n" : "\n  },\n");
  os << "  \"dropped_events\": " << counts.dropped << ",\n";

  os << "  \"flight_recorder\": {\n";
  os << "    \"anomalies_total\": " << anomalies_total << ",\n";
  os << "    \"anomalies\": [";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    os << (i > 0 ? ",\n     " : "\n     ");
    write_captured_slot(os, anomalies[i], t0);
  }
  os << (anomalies.empty() ? "],\n" : "\n    ],\n");
  os << "    \"slow_slots\": [";
  for (std::size_t i = 0; i < slow_slots.size(); ++i) {
    os << (i > 0 ? ",\n     " : "\n     ");
    write_captured_slot(os, slow_slots[i], t0);
  }
  os << (slow_slots.empty() ? "]\n" : "\n    ]\n");
  os << "  }\n}\n}\n";
  os.precision(old_precision);
}

bool write_trace_file(const std::string& path,
                      const MetricsManifest& manifest) {
  return metrics_detail::write_json_file(path, "trace", write_trace_json,
                                         manifest);
}

}  // namespace femtocr::util
