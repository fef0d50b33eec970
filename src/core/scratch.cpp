#include "core/scratch.h"

#include <bit>

namespace femtocr::core {

SlotScratch& slot_scratch() {
  // One arena per thread: parallel_for workers are long-lived (the global
  // pool never shrinks), so the high-water-mark buffers amortize across
  // every slot a worker ever touches.
  thread_local SlotScratch scratch;
  return scratch;
}

void SolveTable::reset() {
  if (slots.empty()) {
    slots.resize(slot_count);
    pool.resize(pool_size);
  }
  ++generation;
  if (generation == 0) {  // wrapped: retag so no stale slot matches
    for (Slot& slot : slots) slot.generation = 0;
    generation = 1;
  }
  records = 0;
  used = 0;
}

double* SolveTable::insert(std::size_t s, std::uint32_t resource,
                           std::uint64_t g_bits, std::uint64_t mask,
                           std::size_t count) {
  double* rec = pool.data() + used;
  rec[0] = std::bit_cast<double>(mask);
  rec[1] = std::bit_cast<double>(g_bits);
  rec[2] = std::bit_cast<double>((std::uint64_t{resource} << 32) | count);
  slots[s] = {static_cast<std::uint32_t>(used), generation};
  used += kKeyWords + count;
  ++records;
  return rec + kKeyWords;
}

MemoScope::MemoScope()
    : memo_(slot_scratch().memo), outer_(!memo_.scoped) {
  if (outer_) {
    memo_.table.reset();
    memo_.scoped = true;
  }
}

MemoScope::~MemoScope() {
  if (outer_) memo_.scoped = false;
}

}  // namespace femtocr::core
