#include "core/scratch.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

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
  put_key(rec, resource, g_bits, mask, count);
  slots[s] = {static_cast<std::uint32_t>(used), generation};
  used += kKeyWords + count;
  ++records;
  return rec + kKeyWords;
}

void SolveTable::put_key(double* rec, std::uint32_t resource,
                         std::uint64_t g_bits, std::uint64_t mask,
                         std::size_t count) {
  rec[0] = std::bit_cast<double>(mask);
  rec[1] = std::bit_cast<double>(g_bits);
  rec[2] = std::bit_cast<double>((std::uint64_t{resource} << 32) | count);
}

MemoScope::MemoScope(MemoTier* tier, std::size_t slice)
    : memo_(slot_scratch().memo), outer_(!memo_.scoped) {
  FEMTOCR_DCHECK(outer_ || tier == nullptr,
                 "a tier-bound memo scope must be the thread's outermost");
  if (outer_) {
    memo_.table.reset();
    memo_.scoped = true;
    memo_.tier = tier;
    memo_.slice = slice;
  }
}

MemoScope::~MemoScope() {
  if (outer_) {
    memo_.scoped = false;
    memo_.tier = nullptr;
  }
}

void MemoTier::open(std::size_t tasks) {
  const std::size_t share = table.records < kMaxRecords
                                ? (table.pool_size - table.used) / tasks
                                : 0;
  slices.resize(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    Slice& s = slices[t];
    s.begin = table.used + t * share;
    s.end = s.begin + share;
    s.next = s.begin;
    s.refused = 0;
  }
}

void MemoTier::stage(std::size_t s, std::uint32_t resource,
                     std::uint64_t g_bits, std::uint64_t mask,
                     const double* values, std::size_t count) {
  Slice& slice = slices[s];
  if (slice.end - slice.next < SolveTable::kKeyWords + count) {
    ++slice.refused;
    return;
  }
  double* rec = table.pool.data() + slice.next;
  SolveTable::put_key(rec, resource, g_bits, mask, count);
  std::copy(values, values + count, rec + SolveTable::kKeyWords);
  slice.next += SolveTable::kKeyWords + count;
}

std::size_t MemoTier::merge() {
  std::size_t refused = 0;
  for (const Slice& s : slices) {
    refused += s.refused;
    for (std::size_t at = s.begin; at < s.next;) {
      const double* rec = table.pool.data() + at;
      const auto mask = std::bit_cast<std::uint64_t>(rec[0]);
      const auto g_bits = std::bit_cast<std::uint64_t>(rec[1]);
      const auto size_bits = std::bit_cast<std::uint64_t>(rec[2]);
      const auto resource = static_cast<std::uint32_t>(size_bits >> 32);
      const std::size_t count = size_bits & 0xFFFFFFFFU;
      const std::size_t slot = table.probe(resource, g_bits, mask);
      if (table.values(slot) == nullptr) {
        if (!table.fits(count)) {
          ++refused;
        } else {
          // Records only move down: a slice starts at or past `used`.
          double* values = table.insert(slot, resource, g_bits, mask, count);
          if (values != rec + SolveTable::kKeyWords) {
            std::copy(rec + SolveTable::kKeyWords,
                      rec + SolveTable::kKeyWords + count, values);
          }
        }
      }
      at += SolveTable::kKeyWords + count;
    }
  }
  return refused;
}

}  // namespace femtocr::core
