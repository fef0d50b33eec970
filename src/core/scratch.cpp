#include "core/scratch.h"

namespace femtocr::core {

SlotScratch& slot_scratch() {
  // One arena per thread: parallel_for workers are long-lived (the global
  // pool never shrinks), so the high-water-mark buffers amortize across
  // every slot a worker ever touches.
  thread_local SlotScratch scratch;
  return scratch;
}

void WaterfillMemo::clear() {
  if (entries.empty()) {
    entries.resize(kSlots);
    values.resize(kValues);
  }
  ++generation;
  if (generation == 0) {  // wrapped: retag so no stale entry matches
    for (Entry& e : entries) e.generation = 0;
    generation = 1;
  }
  live = 0;
  used = 0;
}

MemoScope::MemoScope() : memo_(slot_scratch().memo), outer_(!memo_.scoped) {
  if (outer_) {
    memo_.clear();
    memo_.scoped = true;
  }
}

MemoScope::~MemoScope() {
  if (outer_) memo_.scoped = false;
}

}  // namespace femtocr::core
