#include "core/scratch.h"

#include <algorithm>
#include <bit>

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

void MemoTier::reset() {
  if (index.empty()) {
    index.resize(kSlots);
    pool.resize(kPool);
  } else {
    std::fill(index.begin(), index.end(), 0U);
  }
  records = 0;
  used = 0;
}

void MemoTier::open(std::size_t tasks) {
  const std::size_t share =
      records < kMaxRecords ? (kPool - used) / tasks : 0;
  slices.resize(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    Slice& s = slices[t];
    s.begin = used + t * share;
    s.end = s.begin + share;
    s.next = s.begin;
    s.refused = 0;
  }
}

std::size_t MemoTier::probe(std::uint32_t resource, std::uint64_t g_bits,
                            std::uint64_t mask) const {
  constexpr std::size_t kMask = kSlots - 1;
  for (std::size_t s = memo_hash(resource, g_bits, mask) & kMask;;
       s = (s + 1) & kMask) {
    if (index[s] == 0) return s;
    const double* key = pool.data() + (index[s] - 1);
    if (std::bit_cast<std::uint64_t>(key[0]) == mask &&
        std::bit_cast<std::uint64_t>(key[1]) == g_bits &&
        std::bit_cast<std::uint64_t>(key[2]) >> 32 == resource) {
      return s;
    }
  }
}

const double* MemoTier::find(std::uint32_t resource, std::uint64_t g_bits,
                             std::uint64_t mask) const {
  const std::uint32_t at = index[probe(resource, g_bits, mask)];
  return at == 0 ? nullptr : pool.data() + (at - 1) + kKeyWords;
}

void MemoTier::stage(std::size_t s, std::uint32_t resource,
                     std::uint64_t g_bits, std::uint64_t mask,
                     const double* terms, std::size_t n) {
  Slice& slice = slices[s];
  if (slice.end - slice.next < kKeyWords + n) {
    ++slice.refused;
    return;
  }
  double* rec = pool.data() + slice.next;
  rec[0] = std::bit_cast<double>(mask);
  rec[1] = std::bit_cast<double>(g_bits);
  rec[2] = std::bit_cast<double>((std::uint64_t{resource} << 32) | n);
  std::copy(terms, terms + n, rec + kKeyWords);
  slice.next += kKeyWords + n;
}

std::size_t MemoTier::merge() {
  std::size_t refused = 0;
  for (const Slice& s : slices) {
    refused += s.refused;
    for (std::size_t at = s.begin; at < s.next;) {
      const double* rec = pool.data() + at;
      const auto mask = std::bit_cast<std::uint64_t>(rec[0]);
      const auto g_bits = std::bit_cast<std::uint64_t>(rec[1]);
      const auto size_bits = std::bit_cast<std::uint64_t>(rec[2]);
      const auto resource = static_cast<std::uint32_t>(size_bits >> 32);
      const std::size_t len = kKeyWords + (size_bits & 0xFFFFFFFFU);
      const std::size_t slot = probe(resource, g_bits, mask);
      if (index[slot] == 0) {
        if (records == kMaxRecords) {
          ++refused;
        } else {
          // Records only move down: a slice starts at or past `used`.
          if (at != used) std::copy(rec, rec + len, pool.data() + used);
          index[slot] = static_cast<std::uint32_t>(used + 1);
          used += len;
          ++records;
        }
      }
      at += len;
    }
  }
  return refused;
}

TierScope::TierScope(MemoTier& tier, std::size_t slice)
    : memo_(slot_scratch().memo),
      prev_tier_(memo_.tier),
      prev_slice_(memo_.slice) {
  memo_.tier = &tier;
  memo_.slice = slice;
}

TierScope::~TierScope() {
  memo_.tier = prev_tier_;
  memo_.slice = prev_slice_;
}

}  // namespace femtocr::core
