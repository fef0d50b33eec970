// Per-slot execution traces.
//
// Attach a TraceRecorder to a Simulator to capture, for every slot, the
// spectrum outcome (available set size, G_t, collisions), the allocator's
// objective and bound, and each user's assignment, share, realized PSNR
// increment and state. Used for debugging allocation behaviour, for the
// examples' walk-throughs, and dumpable as CSV for external analysis.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace femtocr::sim {

struct UserSlotTrace {
  bool use_mbs = false;
  double rho = 0.0;        ///< share on the chosen base station
  double increment = 0.0;  ///< realized PSNR delivery this slot (dB)
  double psnr_after = 0.0; ///< W after the slot (dB)
};

struct SlotTraceEntry {
  std::size_t slot = 0;
  std::size_t gop = 0;
  std::size_t available = 0;       ///< |A(t)|
  double expected_channels = 0.0;  ///< G_t
  std::size_t collisions = 0;      ///< accessed channels that were busy
  double objective = 0.0;          ///< allocator's Q for the slot
  double upper_bound = 0.0;        ///< Eq. 23 bound (== Q when exact)
  /// Connected components of the slot's interference graph — the shard
  /// count of the per-component solve (core/shard.h). The Simulator's
  /// coverage graph never changes, so the count is constant over its run.
  /// Not part of the CSV schema (write_csv is unchanged).
  std::size_t components = 0;
  std::vector<UserSlotTrace> users;
};

class TraceRecorder {
 public:
  void record(SlotTraceEntry entry) { entries_.push_back(std::move(entry)); }

  const std::vector<SlotTraceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// One CSV row per (slot, user): slot, gop, |A|, G_t, collisions, Q,
  /// bound, user, bs, rho, increment, psnr.
  void write_csv(std::ostream& os) const;

 private:
  std::vector<SlotTraceEntry> entries_;
};

}  // namespace femtocr::sim
