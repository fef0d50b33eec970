// Seeded fixture: a raw clock read inside util/trace.cpp — the span layer,
// which is NOT exempt. The self-test pins no-raw-chrono-clock at ONE here:
// util/timer.* is the only sanctioned raw-clock site, and the span layer
// takes its timestamps through util::monotonic_now_ns() like everyone else.
#include <chrono>

namespace femtocr::util {

long fixture_span_clock_read() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace femtocr::util
