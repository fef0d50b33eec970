// Reusable per-thread scratch arena for the per-slot solve hot paths.
//
// The dual-decomposition iteration (solve_dual), the water-filling
// evaluator (waterfill_shares / evaluate_assignment) and the Table III
// greedy all used to heap-allocate their working vectors on every call —
// for the greedy that means thousands of allocations per slot, inside the
// innermost loops. SlotScratch keeps one high-water-mark buffer set per
// thread instead: a routine grabs slot_scratch(), `assign()`s the field
// group it owns, and leaves the capacity behind for the next call.
//
// Ownership rules (also documented in docs/DEVELOPING.md, "Performance
// model & scratch-arena rules"):
//
//   * Each field group is owned by exactly one routine while that routine
//     is on the stack: `dual` by solve_dual, `resource` by the water-level
//     solve, `assign` by the water-filling climb and evaluators, `memo` by
//     the per-resource gather-and-solve, `greedy` by greedy_allocate. The
//     groups are disjoint, so the natural nesting (greedy -> climb ->
//     resource) never aliases.
//   * slot_scratch() is thread-local. Workers inside util::parallel_for
//     (the sharded components, the replications) each see their own
//     arena, so they need no locking.
//   * Scratch never survives a call as *data* — only as capacity. No
//     routine may read a field it did not fill in the same invocation.
//   * The one exception is `memo`, and it is bounded by a scope: the memo
//     holds data only within one MemoScope and is reset at every scope
//     start. A greedy_allocate call is one scope, its final allocation
//     included; every climb or evaluation outside one is its own scope. So
//     a record never outlives the context it was solved for, and since the
//     greedy call runs on one thread, the memo's hit pattern, hence every
//     counter, is a function of the work alone.
//   * A record holds a resource solve's objective terms and water level,
//     never its shares, which are a function of the level.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/subproblem.h"
#include "core/waterfill.h"

namespace femtocr::core {

/// solve_dual's working set: price vectors, per-resource share sums, and
/// the per-solve SoA user tables hoisted out of the subgradient loop.
struct DualScratch {
  std::vector<double> lambda;  ///< current prices [lambda_0..lambda_N]
  std::vector<double> next;    ///< next prices (subgradient update target)
  std::vector<double> sums;    ///< per-resource share sums, index 0 = MBS
  // Per-user tables, fixed for the whole solve (the expected channel count
  // g is constant within one solve_dual call):
  std::vector<double> eff_rate_fbs;  ///< R_{i,j} G_i per user
  std::vector<double> pr_fbs;        ///< W_j / (R_{i,j} G_i), valid if usable
  std::vector<double> log_hi_mbs;    ///< log(W_j + R_{0,j}) — rho at the cap
  std::vector<double> log_hi_fbs;    ///< log(W_j + R_{i,j} G_i)
  // Clamp-case Lagrangian tables: at rho == 0 the user's value is
  // S log W + (1-S) log W with a +0.0 price term, and at rho == kRhoCap
  // the price term is exactly lambda — so both ends of the clamp need no
  // log and no multiply in the subgradient loop (see solve_user_cached).
  std::vector<double> val0_mbs;      ///< S_0j log W_j + loss_mbs, rho == 0
  std::vector<double> val0_fbs;      ///< S_ij log W_j + loss_fbs, rho == 0
  std::vector<double> cap_mbs;       ///< S_0j log_hi_mbs + loss_mbs, rho at cap
  std::vector<double> cap_fbs;       ///< S_ij log_hi_fbs + loss_fbs, rho at cap
  // Division screens: S < lambda * lo proves the share clamps at 0 and
  // S > lambda * hi proves it clamps at kRhoCap, each with a 1e-12
  // relative guard band; only the band in between pays the division.
  std::vector<double> lo_mbs;        ///< pr_mbs * (1 - guard)
  std::vector<double> hi_mbs;        ///< (pr_mbs + kRhoCap) * (1 + guard)
  std::vector<double> lo_fbs;        ///< pr_fbs * (1 - guard)
  std::vector<double> hi_fbs;        ///< (pr_fbs + kRhoCap) * (1 + guard)
  // SoA copies of the UserState fields every iteration touches: the AoS
  // walk costs one cache line per user, these three arrays stay in L1.
  std::vector<double> s_mbs;         ///< success_mbs per user
  std::vector<double> s_fbs;         ///< success_fbs per user
  std::vector<double> psnr;          ///< W_j per user
  std::vector<double> rate_mbs;      ///< R_{0,j} per user
  std::vector<std::uint32_t> fbsi;   ///< home FBS index per user
  std::vector<unsigned char> can_fbs;  ///< FBS branch usable (R G > 0, S > 0)
  // Index-addressed per-user outputs of one best-response pass (SoA so the
  // pass stores 17 bytes per user, not a padded struct).
  std::vector<double> choice_rho_mbs;
  std::vector<double> choice_rho_fbs;
  std::vector<unsigned char> choice_use_mbs;
  // Best-iterate tracking (graceful degradation): the best-scoring sampled
  // price vector, plus the budget-projection sums the periodic primal
  // recovery needs — hoisted here so scoring an iterate allocates nothing.
  std::vector<double> best_lambda;
  std::vector<double> rescale_sum_fbs;    ///< per-FBS share sums
  std::vector<double> rescale_scale_fbs;  ///< per-FBS projection factors
};

/// The water-level solve's working set: the per-member price offsets
/// W_j / R_j hoisted out of the level solve, plus the breakpoint event
/// tables of the analytic solver (core/waterfill.cpp). Each usable member
/// contributes up to two events — the level where its share leaves the cap
/// and the level where it turns off — swept in descending-level order.
struct ResourceScratch {
  /// One event's sort key: its water level and its build index.
  struct Event {
    double level = 0.0;
    std::uint32_t index = 0;
  };
  std::vector<double> pr;            ///< W / rate per member (usable only)
  std::vector<unsigned char> usable; ///< rate > 0 && success > 0
  std::vector<Event> ev_order;       ///< keys, sorted level desc, index asc
  std::vector<double> ev_ds;         ///< ΔS crossing the event downward
  std::vector<double> ev_dpr;        ///< Δ(W/rate) crossing downward
  std::vector<double> ev_dcap;       ///< Δ(capped-member count), 0 or 1
};

/// The climb's and the evaluators' working set: one resource's members at
/// a time, the per-resource member masks and the per-user objective terms
/// of the accepted assignment, and the per-user terms of the trial one.
/// The climb's weak-duality bound (core/waterfill.cpp) keeps, for the
/// accepted assignment, the price each resource's shares were taken at and
/// the resource's slack term, and each user's keep value on its resource
/// and offer on its other one. An offer is taken lazily: offer[j] holds
/// for the prices [offer_low[j], offer_high[j]] of the other resource
/// (none before it is taken), and it is re-taken only once that price
/// leaves them. It is first taken as a log-free upper estimate, which
/// exceeds the exact offer by at most offer_gap[j], and made exact
/// (offer_gap[j] = 0) only when needed. The fbs_* tables hold each user's
/// operands on its FBS at the climb's expected channel counts, taken once
/// per climb.
struct AssignScratch {
  std::vector<std::size_t> members;  ///< one resource's members, ascending
  std::vector<double> successes;     ///< their success probabilities
  std::vector<double> rho;           ///< their shares, the level solve's
  std::vector<double> term;          ///< their objective terms
  std::vector<double> check_term;    ///< memo-hit re-solve (DCHECK builds)
  std::vector<std::uint64_t> masks;  ///< member mask per resource, accepted
  std::vector<double> terms;         ///< per-user terms, accepted assignment
  std::vector<double> trial_terms;   ///< per-user terms, trial assignment
  std::vector<unsigned char> use_mbs;  ///< assignment (bit-twiddle-free)
  std::vector<double> prices;        ///< μ_r per resource, accepted
  std::vector<double> slack;         ///< slack term per resource, accepted
  std::vector<double> keep;          ///< h_j = t_j − μ ρ_j per user
  std::vector<double> offer;         ///< φ_j on the other resource per user
  std::vector<double> offer_gap;     ///< offer[j] − φ_j is at most this
  std::vector<double> offer_low;     ///< the prices offer[j] holds for
  std::vector<double> offer_high;
  std::vector<double> fbs_pr;        ///< W / (g R) per user
  std::vector<double> fbs_hi;        ///< S g R / W per user
  std::vector<unsigned char> fbs_usable;  ///< g R > 0 && S > 0 per user
};

/// The resource solves of one memo scope, keyed by the resource index
/// (0 = MBS, i + 1 = FBS i), the bit pattern of g_i (FBSs only) and the
/// member set as a 64-bit mask. A record is its key — the
/// member mask, the bits of g_i and the resource index in the high half of
/// a word whose low half is the value count, each word's bits held in a
/// double — followed by its values: the members' n objective terms in
/// member order, then the resource's water level. Shares are not kept: by
/// Eq. 14 they are a function of the level, taken once where an allocation
/// is returned. Records sit back to back in a bump-allocated pool, indexed
/// by open addressing with linear probing over 8-byte slots (a record
/// offset and a generation), never more than half full. reset() empties
/// the table in O(1) by bumping `generation`: a slot is live iff its
/// generation matches (O(slots) once per 2^32 resets, when it wraps). The
/// storage is taken on the first reset.
struct SolveTable {
  static constexpr std::size_t kKeyWords = 3;
  struct Slot {
    std::uint32_t offset = 0;      ///< the record's first key word
    std::uint32_t generation = 0;  ///< live iff == SolveTable::generation
  };
  SolveTable(std::size_t slots_in, std::size_t pool_in)
      : slot_count(slots_in), pool_size(pool_in) {}

  std::size_t slot_count;  ///< a power of two
  std::size_t pool_size;   ///< doubles
  std::vector<Slot> slots;
  std::vector<double> pool;
  std::uint32_t generation = 0;
  std::size_t records = 0;  ///< live records
  std::size_t used = 0;     ///< the live records' doubles, from offset 0

  /// Empties the table (allocating it on first use).
  void reset();
  /// Whether a record of `count` values fits: the index holds fewer than
  /// slot_count / 2 records and the pool has room past `used`.
  bool fits(std::size_t count) const {
    return records < slot_count / 2 && used + kKeyWords + count <= pool_size;
  }
  /// The slot holding the key, or the free slot where it belongs.
  std::size_t probe(std::uint32_t resource, std::uint64_t g_bits,
                    std::uint64_t mask) const {
    const std::size_t wrap = slot_count - 1;
    for (std::size_t s = hash(resource, g_bits, mask) & wrap;;
         s = (s + 1) & wrap) {
      if (slots[s].generation != generation) return s;
      const double* key = pool.data() + slots[s].offset;
      if (std::bit_cast<std::uint64_t>(key[0]) == mask &&
          std::bit_cast<std::uint64_t>(key[1]) == g_bits &&
          std::bit_cast<std::uint64_t>(key[2]) >> 32 == resource) {
        return s;
      }
    }
  }
  /// The values of the record in slot `s`, or null when `s` is free.
  const double* values(std::size_t s) const {
    return slots[s].generation == generation
               ? pool.data() + slots[s].offset + kKeyWords
               : nullptr;
  }
  /// The values of the key's record, or null.
  const double* find(std::uint32_t resource, std::uint64_t g_bits,
                     std::uint64_t mask) const {
    return values(probe(resource, g_bits, mask));
  }
  /// Appends a record of `count` values for the key at `used` and indexes
  /// it in `s`, the free slot probe() gave for the key; returns its values
  /// for the caller to fill. The record must fit.
  double* insert(std::size_t s, std::uint32_t resource, std::uint64_t g_bits,
                 std::uint64_t mask, std::size_t count);
  /// splitmix64's finalizer over the mixed key fields.
  static std::uint64_t hash(std::uint32_t resource, std::uint64_t g_bits,
                            std::uint64_t mask) {
    std::uint64_t h = mask ^ (g_bits * 0x9E3779B97F4A7C15ULL) ^
                      (std::uint64_t{resource} * 0xC2B2AE3D27D4EB4FULL);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return h ^ (h >> 31);
  }
};

/// The water-fill memo: every resource solved in the current scope (see
/// the file comment), in a SolveTable of 1,024 slots and a 10,240-double
/// pool (88 KB per thread, taken on the first scope). When the table
/// reaches 512 records or the pool is full, the next solve empties it
/// first. A greedy call keeps its solves across its rounds here; the city
/// grid's large components fill the pool and empty it several times a
/// call, and sizing it per component is the ROADMAP's Downtown item.
struct WaterfillMemo {
  static constexpr std::size_t kSlots = 1024;    ///< power of two
  static constexpr std::size_t kValues = 10240;  ///< doubles
  SolveTable table{kSlots, kValues};
  bool scoped = false;  ///< a MemoScope is open on this thread
};

/// greedy_allocate's working set: the candidate list, one round's distinct
/// candidates in climb order, the trial vector, the assignments and exit
/// prices of the current climb, of the round's best and of each FBS's best,
/// the prices carried from the previous winner, and a duality-bound table
/// at each of the three price vectors a candidate is bounded at.
struct GreedyScratch {
  /// A round's distinct candidate: its trial g_i and its bound D + m at
  /// the carried prices.
  struct Trial {
    double g = 0.0;
    double bound = 0.0;
    std::size_t candidate = 0;
  };
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  std::vector<Trial> order;        ///< the round's climb order
  std::vector<double> gt;          ///< accumulated expected channel counts
  std::vector<double> trial;       ///< a candidate's trial G vector
  std::vector<bool> use_mbs;       ///< the current climb's assignment
  std::vector<double> prices;      ///< the current climb's exit prices
  /// The round's best climb's assignment and exit prices; after the last
  /// round, the allocation's assignment.
  std::vector<bool> best_use_mbs;
  std::vector<double> best_prices;
  std::vector<double> carried;     ///< the previous winner's exit prices
  std::vector<double> fbs_best;    ///< per FBS: its best Q this round
  std::vector<std::size_t> fbs_best_candidate;  ///< and that candidate
  std::vector<double> fbs_prices;  ///< per FBS: that climb's exit prices
  DualBoundTable at_carried;       ///< D at the carried prices
  DualBoundTable at_best;          ///< D at the round's best's prices
  DualBoundTable at_fbs;           ///< D at one FBS's best's prices
};

/// The per-thread arena. Field groups are owned per the file comment.
struct SlotScratch {
  DualScratch dual;
  ResourceScratch resource;
  AssignScratch assign;
  WaterfillMemo memo;
  GreedyScratch greedy;
};

/// The calling thread's scratch arena (thread-local, grown on demand,
/// never shrunk). See the ownership rules in the file comment.
SlotScratch& slot_scratch();

/// Opens a memo scope on the calling thread: clears the memo and keeps its
/// records until the scope closes. A scope opened while another is open on
/// the same thread is a no-op, so a climb inside a greedy call shares the
/// call's memo while a climb on its own gets a fresh one. Every entry point
/// that solves resources opens one.
class MemoScope {
 public:
  MemoScope();
  ~MemoScope();
  MemoScope(const MemoScope&) = delete;
  MemoScope& operator=(const MemoScope&) = delete;

 private:
  WaterfillMemo& memo_;
  bool outer_;
};

}  // namespace femtocr::core
