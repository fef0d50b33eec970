// femtocr:inner-loop-tu — the greedy allocator evaluates Q(c) hundreds of
// times per slot through these paths; beyond first-use scratch growth they
// must not heap-allocate (tools/lint no-hot-loop-alloc).
#include "core/waterfill.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "util/check.h"
#include "util/mathx.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

namespace {

constexpr double kLevelLo = 1e-12;  ///< "almost zero" price probe
/// What a resource's shares may overspend its budget by at the level
/// solve's exit.
constexpr double kBudgetGuard = 1e-9;
/// A climb keeps a move iff it gains more than this.
constexpr double kMinGain = 1e-12;
/// A price no offer is taken at: an offer's validity range starts here
/// until it is taken.
constexpr double kNever = std::numeric_limits<double>::infinity();

/// A member's share at the positive water level `lambda`, bit-identical to
/// a best_share call with the same operands: lambda is positive, so
/// best_share's free-resource branch cannot trigger, and the clamp below is
/// its remaining path verbatim. The level solve and the climb's duality
/// bound both take their shares here.
double level_share(double success, double pr, bool usable, double lambda) {
  return usable ? util::clamp(success / lambda - pr, 0.0, kRhoCap) : 0.0;
}

/// Sum-of-shares at a fixed positive water level.
double shares_at_level(const double* successes, const double* pr,
                       const unsigned char* usable, std::size_t n,
                       double lambda, double* rho_out) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double r = level_share(successes[k], pr[k], usable[k] != 0, lambda);
    rho_out[k] = r;
    sum += r;
  }
  return sum;
}

/// The price a resource's shares were taken at: its water level, or
/// kLevelLo where the level solve returned 0. Its slack branch takes the
/// shares at kLevelLo; a resource nobody can use has zero shares at any
/// price, and an empty one has none.
double price_of(double level) { return level > 0.0 ? level : kLevelLo; }

/// User j's Eq. 14 operands on one resource: its success probability S,
/// price offset pr = W / (g R) and usable gate (g R > 0 and S > 0).
struct Operands {
  double success;
  double pr;
  bool usable;
};

/// User j's operands on the MBS, from the cache.
Operands mbs_operands(const UserState& u, const SlotCache& cache,
                      std::size_t j) {
  return {u.success_mbs, cache.pr_mbs[j], cache.can_mbs[j] != 0};
}

/// User j's operands on its FBS, whose expected channel count is g.
Operands fbs_operands(const UserState& u, double g) {
  const double rate = u.rate_fbs * g;
  const bool ok = rate > 0.0 && u.success_fbs > 0.0;
  return {u.success_fbs, ok ? u.psnr / rate : 0.0, ok};
}

/// The price at and above which user j takes no share: S g R / W on its
/// FBS, whose expected channel count is g, and the cached S R / W on the
/// MBS; 0 where the rate is 0.
double top_price(const UserState& u, const SlotCache& cache, std::size_t j,
                 bool mbs, double g) {
  if (mbs) return cache.hi_mbs[j];
  const double rate = u.rate_fbs * g;
  return rate > 0.0 ? u.success_fbs * rate / u.psnr : 0.0;
}

/// User j's summand of slot_objective at share rho, on the MBS or on its
/// FBS with expected channel count g (1 on the MBS). The operand grouping
/// is mbs_term's / fbs_term's: the log argument is W + rho * g * R, in that
/// multiplication order (rho * 1.0 is rho bitwise). The log collapses to
/// the cached log W on the zero-share branch (W + 0 * x == W bitwise), and
/// the loss branch comes from the cache.
double member_term(const UserState& u, const SlotCache& cache, std::size_t j,
                   bool mbs, double g, double rho) {
  const double rate = mbs ? u.rate_mbs : u.rate_fbs;
  const double a =
      rho <= 0.0 ? cache.log_psnr[j] : std::log(u.psnr + rho * g * rate);
  return mbs ? u.success_mbs * a + cache.loss_mbs[j]
             : u.success_fbs * a + cache.loss_fbs[j];
}

/// User j's Lagrangian maximum over its share on one resource at the price
/// mu: f_j(ρ°) − μ ρ° at the Eq. 14 share ρ° = level_share(op, μ), which
/// maximizes it, with f_j from member_term. One log, none when ρ° = 0.
double lagrangian_max(const UserState& u, const SlotCache& cache,
                      std::size_t j, bool mbs, double g, const Operands& op,
                      double mu) {
  const double rho = level_share(op.success, op.pr, op.usable, mu);
  return member_term(u, cache, j, mbs, g, rho) - mu * rho;
}

/// What a resource's shares may sum to in a duality bound over K users:
/// 1 + 1e-9 + κ, κ = 4 (K + 4) ε. The 1e-9 is water-filling's exit guard;
/// κ covers the rounding of the share sums (docs/DEVELOPING.md, "The
/// climb's duality bound").
double guarded_budget(std::size_t num_users) {
  return 1.0 + kBudgetGuard +
         4.0 * static_cast<double>(num_users + 4) *
             std::numeric_limits<double>::epsilon();
}

/// Analytic water-level core shared by the public entry point and the
/// per-resource solve. `pr[k]` must equal W_k / rate_k for usable members
/// and `usable[k]` the rate > 0 && success > 0 gate, both hoisted out of
/// the solve; `hi` is the max usable S R / W; `budget` in [0, 1] is what
/// the shares may sum to (1 in the slot solve). `count` feeds the
/// core.waterfill.level_solves / breakpoint.* counters; the DCHECK re-solve
/// of a memo hit passes false, so checking never moves them.
///
/// The share profile rho_k(λ) = clamp(S_k/λ − pr_k, 0, cap) makes the
/// budget g(λ) = Σ rho_k(λ) piecewise-hyperbolic in λ with two breakpoints
/// per member: λ_on = S/pr (the share turns on below it) and
/// λ_cap = S/(pr + cap) (the share saturates below it). Between
/// breakpoints g(λ) = A/λ − B + C·cap with A = Σ_active S, B = Σ_active pr
/// and C the capped count, so the binding level solves g(λ*) = budget in
/// closed form: λ* = A / (budget + B − C·cap). One descending sweep over
/// the sorted events finds the interval containing the crossing; a single
/// Newton polish (an exact reclassification at the candidate, then the
/// closed form again) removes the streaming-prefix rounding. Where that
/// level still overspends the guard, an exact search over the bracket's
/// doubles finishes it (below).
double waterfill_level(const double* successes, const double* pr,
                       const unsigned char* usable, std::size_t n, double hi,
                       double budget, double* rho_out, ResourceScratch& rs,
                       bool count) {
  static util::Counter& c_level_solves =
      util::metrics().counter("core.waterfill.level_solves");
  static util::Counter& c_bp_solves =
      util::metrics().counter("core.waterfill.breakpoint.solves");
  static util::Counter& c_bp_events =
      util::metrics().counter("core.waterfill.breakpoint.events");
  static util::Counter& c_bp_polish =
      util::metrics().counter("core.waterfill.breakpoint.polish_moved");
  static util::Counter& c_bp_fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");

  std::fill(rho_out, rho_out + n, 0.0);
  if (n == 0) return 0.0;
  if (count) c_level_solves.add();

  if (hi <= 0.0) {  // nobody can use this resource
    shares_at_level(successes, pr, usable, n, 1.0, rho_out);
    return 0.0;
  }

  if (shares_at_level(successes, pr, usable, n, kLevelLo, rho_out) <=
      budget) {
    // Budget slack even at (almost) zero price: caps bind, lambda* = 0.
    return 0.0;
  }

  // Build the event tables (SoA, scratch-backed): members with pr > 0 add
  // a turn-on event at S/pr and a cap event at S/(pr + cap); a pr == 0
  // member is active at every finite level, so it folds into the initial
  // prefix state and only adds its cap event.
  if (count) c_bp_solves.add();
  rs.ev_order.resize(2 * n);
  rs.ev_ds.resize(2 * n);
  rs.ev_dpr.resize(2 * n);
  rs.ev_dcap.resize(2 * n);
  std::size_t m = 0;
  double A = 0.0;  // Σ S over active members of the current interval
  double B = 0.0;  // Σ pr over active members
  double C = 0.0;  // capped-member count
  for (std::size_t k = 0; k < n; ++k) {
    if (usable[k] == 0) continue;
    const double s = successes[k];
    const double p = pr[k];
    if (p > 0.0) {
      // turn-on: crossing downward activates k
      rs.ev_order[m] = {s / p, static_cast<std::uint32_t>(m)};
      rs.ev_ds[m] = s;
      rs.ev_dpr[m] = p;
      rs.ev_dcap[m] = 0.0;
      ++m;
    } else {
      A += s;  // active at every finite level
    }
    // cap: downward saturates k
    rs.ev_order[m] = {s / (p + kRhoCap), static_cast<std::uint32_t>(m)};
    rs.ev_ds[m] = -s;
    rs.ev_dpr[m] = -p;
    rs.ev_dcap[m] = 1.0;
    ++m;
  }
  if (count) c_bp_events.add(m);
  std::sort(rs.ev_order.begin(), rs.ev_order.begin() + m,
            [](const ResourceScratch::Event& a,
               const ResourceScratch::Event& b) {
              if (a.level != b.level) return a.level > b.level;
              return a.index < b.index;  // deterministic tie order
            });

  // Descending sweep: in each interval (bot, top] the closed-form
  // candidate is accepted iff it lands inside the interval. g is
  // continuous, non-increasing, and g(kLevelLo) > budget was established
  // above — but not strictly decreasing: with the cap equal to the whole
  // budget, one saturated member makes g ≡ 1 across a flat region whose
  // every boundary interval accepts. The canonical level is the LOWEST
  // accepted candidate (the infimum of {λ : g(λ) <= 1}), which is the
  // point the tests' reference bisection converges to; candidates only
  // shrink as the sweep descends, so the last acceptance wins. The
  // candidate below the region can round just above its interval's top and
  // be rejected; the sweep then keeps the region's upper end. Every level
  // of the region is a multiplier of the same shares (up to rounding), so
  // the returned level, not the allocation, differs from the bisection's
  // (tests/test_waterfill_breakpoint.cpp pins such a case). That end is
  // kept: the level is the climb's price, so snapping it to the infimum
  // would move the pruning counters without moving an output bit.
  double level = -1.0;
  double top = std::numeric_limits<double>::infinity();
  std::size_t e = 0;
  while (true) {
    const double bot = e < m ? rs.ev_order[e].level : kLevelLo;
    if (A > 0.0) {
      const double denom = budget + B - C * kRhoCap;
      if (denom > 0.0) {
        const double cand = A / denom;
        if (cand >= bot && cand <= top) level = cand;
      }
    }
    if (e >= m) break;
    const std::uint32_t ev = rs.ev_order[e].index;
    A += rs.ev_ds[ev];
    B += rs.ev_dpr[ev];
    C += rs.ev_dcap[ev];
    top = bot;
    ++e;
  }

  if (level > 0.0) {
    // Newton polish: reclassify every member exactly at the candidate and
    // re-apply the closed form, purging the sweep's streaming-sum rounding.
    // Within the correct interval this is one exact Newton step on the
    // hyperbolic piece; crossing into a neighboring piece is harmless
    // because g is continuous at breakpoints.
    double pa = 0.0;
    double pb = 0.0;
    double pc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (usable[k] == 0) continue;
      const double r = successes[k] / level - pr[k];
      if (r >= kRhoCap) {
        pc += 1.0;
      } else if (r > 0.0) {
        pa += successes[k];
        pb += pr[k];
      }
    }
    const double denom = budget + pb - pc * kRhoCap;
    if (pa > 0.0 && denom > 0.0) {
      const double polished = pa / denom;
      if (std::isfinite(polished) && polished > 0.0) {
        if (count && polished != level) c_bp_polish.add();
        level = polished;
      }
    }
  }

  double sum = level > 0.0
                   ? shares_at_level(successes, pr, usable, n, level, rho_out)
                   : 2.0;  // force the fallback
  if (!(sum <= budget + kBudgetGuard)) {
    // Numerical corner: when the price offsets W/R dwarf the level, the
    // share S/λ − W/R cancels catastrophically and the closed-form level
    // can overspend the budget by more than the guard. It does happen —
    // a 3-member resource with W/R ≈ 5.4e7 and S ≈ 0.9 (level ≈ 1.8e-8)
    // overspends by 7.5e-9. An FBS whose expected channel count g is tiny
    // (its channels are believed busy) has such offsets, and the churn
    // workload meets them (docs/OBSERVABILITY.md). Finish exactly instead:
    // the float share sum is nonincreasing in λ (correctly rounded
    // division and subtraction, clamping and fixed-order addition are all
    // monotone) and positive doubles order like their bit patterns, so
    // halving the bit range of the bracket [kLevelLo, hi], keeping the
    // side whose shares fit, ends on the smallest double whose shares sum
    // to at most the budget, in at most 63 share sums. The counter and the
    // tag keep the name of the bisection this replaced: perfbench reads it.
    if (count) {
      c_bp_fallback.add();
      util::trace_note_anomaly("core.waterfill.breakpoint.bisect_fallback");
    }
    auto lo = std::bit_cast<std::uint64_t>(kLevelLo);
    auto up = std::bit_cast<std::uint64_t>(hi);
    while (lo + 1 < up) {
      const std::uint64_t mid = lo + (up - lo) / 2;
      if (shares_at_level(successes, pr, usable, n, std::bit_cast<double>(mid),
                          rho_out) > budget) {
        lo = mid;
      } else {
        up = mid;
      }
    }
    level = std::bit_cast<double>(up);
    sum = shares_at_level(successes, pr, usable, n, level, rho_out);
  }
  // KKT exit contracts: a finite positive water level and a primal point
  // inside the budget.
  FEMTOCR_CHECK_FINITE(level, "water-filling level must be finite");
  FEMTOCR_DCHECK_LE(sum, budget + kBudgetGuard,
                    "water-filled shares exceed the budget");
  FEMTOCR_DCHECK_GE(level, 0.0, "water-filling price must be nonnegative");
  return level;
}

/// core.waterfill.evaluations: one per assignment whose objective is
/// evaluated — a climb's start and each of its trials, each exhaustive
/// mask, each materialised allocation. A climb tallies its own and adds
/// them once, at its exit.
void count_evaluations(std::uint64_t n) {
  static util::Counter& c_evals =
      util::metrics().counter("core.waterfill.evaluations");
  c_evals.add(n);
}

/// Water-fills the members of resource r (0 = MBS, i + 1 = FBS i) listed in
/// sc.assign.members, writes their shares to `rho` and their objective
/// terms (member_term) to `term`, and returns the resource's water level.
/// A sum of terms in user order is bit-identical to slot_objective of the
/// materialised allocation (the equivalence tests pin this).
double solve_members(const SlotContext& ctx, const SlotCache& cache,
                     const std::vector<double>& gt_per_fbs, std::size_t r,
                     SlotScratch& sc, double* rho, double* term, bool count) {
  AssignScratch& as = sc.assign;
  ResourceScratch& rs = sc.resource;
  const std::size_t n = as.members.size();
  as.successes.resize(n);
  rs.pr.resize(n);
  rs.usable.resize(n);
  const double g = r == 0 ? 1.0 : gt_per_fbs[r - 1];
  double hi = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = as.members[k];
    const UserState& u = ctx.users[j];
    const Operands op =
        r == 0 ? mbs_operands(u, cache, j) : fbs_operands(u, g);
    as.successes[k] = op.success;
    rs.pr[k] = op.pr;
    rs.usable[k] = op.usable ? 1 : 0;
    hi = std::max(hi, top_price(u, cache, j, r == 0, g));
  }
  const double level =
      waterfill_level(as.successes.data(), rs.pr.data(), rs.usable.data(), n,
                      hi, 1.0, rho, rs, count);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = as.members[k];
    term[k] = member_term(ctx.users[j], cache, j, r == 0, g, rho[k]);
  }
  return level;
}

/// The memo slot holding (resource, g_bits, mask), or the empty slot where
/// it belongs. The table is never more than half full, so the linear probe
/// terminates.
WaterfillMemo::Entry& memo_probe(WaterfillMemo& memo, std::uint32_t resource,
                                 std::uint64_t g_bits, std::uint64_t mask) {
  constexpr std::size_t kMask = WaterfillMemo::kSlots - 1;
  for (std::size_t s = memo_hash(resource, g_bits, mask) & kMask;;
       s = (s + 1) & kMask) {
    WaterfillMemo::Entry& e = memo.entries[s];
    if (e.generation != memo.generation) return e;
    if (e.mask == mask && e.g_bits == g_bits && e.resource == resource) {
      return e;
    }
  }
}

/// Bit p of a member mask, or 0 past the 64 bits a mask holds (such a
/// resource is unkeyed, and its mask is never read).
std::uint64_t mask_bit(std::size_t p) {
  return p < 64 ? std::uint64_t{1} << p : 0;
}

/// Whether resource r (0 = MBS, i + 1 = FBS i) is memoised: its possible
/// members — every user for the MBS, FBS i's own for FBS i — fit a mask.
bool keyed(const SlotCache& cache, std::size_t r) {
  return (r == 0 ? cache.num_users : cache.users_by_fbs[r - 1].size()) <= 64;
}

/// The user behind bit b of resource r's member mask: bit j is user j on
/// the MBS, bit p is the p-th user of FBS i on FBS i.
std::size_t member_user(const SlotCache& cache, std::size_t r, int b) {
  const auto p = static_cast<std::size_t>(b);
  return r == 0 ? p : cache.users_by_fbs[r - 1][p];
}

/// Every resource's member mask under `use_mbs`.
void assignment_masks(const SlotContext& ctx, const SlotCache& cache,
                      const unsigned char* use_mbs,
                      std::vector<std::uint64_t>& masks) {
  masks.assign(cache.num_fbs + 1, 0);
  for (std::size_t j = 0; j < cache.num_users; ++j) {
    if (use_mbs[j] != 0) {
      masks[0] |= mask_bit(j);
    } else {
      masks[ctx.users[j].fbs + 1] |= mask_bit(cache.fbs_position[j]);
    }
  }
}

/// Gathers the members of keyed resource r's mask into sc.assign.members,
/// ascending.
void gather_mask(const SlotCache& cache, std::size_t r, std::uint64_t mask,
                 AssignScratch& as) {
  as.members.clear();
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    as.members.push_back(member_user(cache, r, std::countr_zero(m)));
  }
}

/// Gathers the members of resource r under `use_mbs` into
/// sc.assign.members, ascending.
void gather_assignment(const SlotCache& cache, const unsigned char* use_mbs,
                       std::size_t r, AssignScratch& as) {
  as.members.clear();
  if (r == 0) {
    for (std::size_t j = 0; j < cache.num_users; ++j) {
      if (use_mbs[j] != 0) as.members.push_back(j);
    }
  } else {
    for (const std::size_t j : cache.users_by_fbs[r - 1]) {
      if (use_mbs[j] == 0) as.members.push_back(j);
    }
  }
}

#if FEMTOCR_DCHECK_IS_ON()
/// A hit must be exactly the solve it replaces: re-solves keyed resource
/// r's `mask` uncounted and compares its terms and level, and its shares
/// unless `rho` is null, bitwise.
void check_hit(const SlotContext& ctx, const SlotCache& cache,
               const std::vector<double>& gt_per_fbs, std::size_t r,
               std::uint64_t mask, std::size_t n, SlotScratch& sc,
               const double* rho, const double* terms, double level) {
  AssignScratch& as = sc.assign;
  gather_mask(cache, r, mask, as);
  as.check_rho.resize(n);
  as.check_term.resize(n);
  const double fresh = solve_members(ctx, cache, gt_per_fbs, r, sc,
                                     as.check_rho.data(),
                                     as.check_term.data(), false);
  FEMTOCR_DCHECK(std::bit_cast<std::uint64_t>(level) ==
                     std::bit_cast<std::uint64_t>(fresh),
                 "water-fill memo or tier hit differs from a fresh solve");
  for (std::size_t k = 0; k < n; ++k) {
    FEMTOCR_DCHECK(std::bit_cast<std::uint64_t>(terms[k]) ==
                           std::bit_cast<std::uint64_t>(as.check_term[k]) &&
                       (rho == nullptr ||
                        std::bit_cast<std::uint64_t>(rho[k]) ==
                            std::bit_cast<std::uint64_t>(as.check_rho[k])),
                   "water-fill memo or tier hit differs from a fresh solve");
  }
}
#endif

/// A keyed resource's solve: its members' shares and objective terms, in
/// member order, and its water level. `rho` is null when the terms came
/// from a greedy call's tier, which keeps no shares.
struct MemberValues {
  const double* rho;
  const double* terms;
  double level;
};

/// Keyed resource r with the nonempty member mask `mask`, found in the
/// memo when this scope already solved the same (r, g_r, member set);
/// otherwise, when the caller needs no `shares` and the thread is bound to
/// a greedy call's tier (TierScope), found there; otherwise water-filled
/// now straight into the memo's pool, and staged in the bound tier's slice.
/// A memo entry's values are the n shares, the n terms and the level; a
/// tier record's are the n terms and the level. The member count n comes
/// with the entry, the record or the miss's gather, never from counting
/// the mask's bits.
MemberValues memo_solve(const SlotContext& ctx, const SlotCache& cache,
                        const std::vector<double>& gt_per_fbs, std::size_t r,
                        std::uint64_t mask, bool shares, SlotScratch& sc) {
  WaterfillMemo& memo = sc.memo;
  FEMTOCR_DCHECK(memo.scoped, "resource solve outside a memo scope");
  const auto resource = static_cast<std::uint32_t>(r);
  const std::uint64_t g_bits =
      r == 0 ? 0 : std::bit_cast<std::uint64_t>(gt_per_fbs[r - 1]);
  WaterfillMemo::Entry* entry = &memo_probe(memo, resource, g_bits, mask);
  if (entry->generation == memo.generation) {
    const double* v = memo.values.data() + entry->offset;
    const std::size_t n = entry->members;
#if FEMTOCR_DCHECK_IS_ON()
    check_hit(ctx, cache, gt_per_fbs, r, mask, n, sc, v, v + n, v[2 * n]);
#endif
    return {v, v + n, v[2 * n]};
  }
  MemoTier* tier = shares ? nullptr : memo.tier;
  if (tier != nullptr) {
    const double* terms = tier->find(resource, g_bits, mask);
    if (terms != nullptr) {
      const std::size_t n = MemoTier::value_count(terms) - 1;
#if FEMTOCR_DCHECK_IS_ON()
      check_hit(ctx, cache, gt_per_fbs, r, mask, n, sc, nullptr, terms,
                terms[n]);
#endif
      return {nullptr, terms, terms[n]};
    }
  }

  gather_mask(cache, r, mask, sc.assign);
  const std::size_t n = sc.assign.members.size();
  if (memo.live + 1 > WaterfillMemo::kMaxLive ||
      memo.used + 2 * n + 1 > WaterfillMemo::kValues) {
    memo.clear();
    entry = &memo_probe(memo, resource, g_bits, mask);
  }
  double* v = memo.values.data() + memo.used;
  v[2 * n] = solve_members(ctx, cache, gt_per_fbs, r, sc, v, v + n, true);
  entry->mask = mask;
  entry->g_bits = g_bits;
  entry->resource = resource;
  entry->generation = memo.generation;
  entry->offset = static_cast<std::uint32_t>(memo.used);
  entry->members = static_cast<std::uint32_t>(n);
  memo.used += 2 * n + 1;
  ++memo.live;
  if (tier != nullptr) {
    tier->stage(memo.slice, resource, g_bits, mask, v + n, n + 1);
  }
  return {v, v + n, v[2 * n]};
}

/// The one resource solve behind the climb, evaluate_assignment and the
/// exhaustive reference. Water-fills resource r under `use_mbs`, whose
/// member mask for r is `mask`, writes each member j's share to
/// rho_out[j] and its objective term to term_out[j] (either may be null),
/// and returns the water level (0 for a resource without members).
/// A keyed resource goes through the memo, and behind it, for the climb's
/// terms-only solves, the greedy call's tier; it then walks the mask's
/// bits, so a hit is one probe and a scatter; a resource with more than 64
/// possible members gathers its members from `use_mbs` and always solves.
double solve_resource(const SlotContext& ctx, const SlotCache& cache,
                      const std::vector<double>& gt_per_fbs,
                      const unsigned char* use_mbs, std::size_t r,
                      std::uint64_t mask, SlotScratch& sc, double* rho_out,
                      double* term_out) {
  AssignScratch& as = sc.assign;
  if (!keyed(cache, r)) {
    gather_assignment(cache, use_mbs, r, as);
    const std::size_t n = as.members.size();
    if (n == 0) return 0.0;
    as.rho.resize(n);
    as.term.resize(n);
    const double level = solve_members(ctx, cache, gt_per_fbs, r, sc,
                                       as.rho.data(), as.term.data(), true);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t j = as.members[k];
      if (rho_out != nullptr) rho_out[j] = as.rho[k];
      if (term_out != nullptr) term_out[j] = as.term[k];
    }
    return level;
  }
#if FEMTOCR_DCHECK_IS_ON()
  // The climb carries masks across moves; they must be the assignment's.
  gather_assignment(cache, use_mbs, r, as);
  std::uint64_t fresh = 0;
  for (const std::size_t j : as.members) {
    fresh |= mask_bit(r == 0 ? j : cache.fbs_position[j]);
  }
  FEMTOCR_DCHECK(fresh == mask, "member mask differs from the assignment");
#endif
  if (mask == 0) return 0.0;
  const MemberValues values =
      memo_solve(ctx, cache, gt_per_fbs, r, mask, rho_out != nullptr, sc);
  std::size_t k = 0;
  for (std::uint64_t m = mask; m != 0; m &= m - 1, ++k) {
    const std::size_t j = member_user(cache, r, std::countr_zero(m));
    if (rho_out != nullptr) rho_out[j] = values.rho[k];
    if (term_out != nullptr) term_out[j] = values.terms[k];
  }
  return values.level;
}

/// The objective of an assignment from its per-user terms: summed in user
/// index order, like slot_objective, hence bitwise equal to it.
double sum_terms(const std::vector<double>& terms, std::size_t num_users) {
  double q = 0.0;
  for (std::size_t j = 0; j < num_users; ++j) q += terms[j];
  FEMTOCR_DCHECK_FINITE(q, "water-filled slot objective must be finite");
  return q;
}

/// Objective of a whole assignment with member masks `masks`: every
/// resource solved, every user's term written to `terms` and, unless
/// `levels` is null, every resource's water level to levels[r].
double full_objective(const SlotContext& ctx, const SlotCache& cache,
                      const std::vector<double>& gt_per_fbs,
                      const unsigned char* use_mbs,
                      const std::vector<std::uint64_t>& masks, SlotScratch& sc,
                      std::vector<double>& terms, double* levels) {
  for (std::size_t r = 0; r <= cache.num_fbs; ++r) {
    const double level = solve_resource(ctx, cache, gt_per_fbs, use_mbs, r,
                                        masks[r], sc, nullptr, terms.data());
    if (levels != nullptr) levels[r] = level;
  }
  return sum_terms(terms, cache.num_users);
}

/// Water-fills every resource for a fixed assignment and returns the
/// completed allocation (objective included). The objective goes through
/// slot_objective — the uncached reference expression — which agrees
/// bitwise with the climb's sum of terms.
SlotAllocation evaluate_assignment(const SlotContext& ctx,
                                   const SlotCache& cache,
                                   const std::vector<double>& gt_per_fbs,
                                   const unsigned char* use_mbs) {
  count_evaluations(1);
  const MemoScope scope;
  SlotScratch& sc = slot_scratch();
  assignment_masks(ctx, cache, use_mbs, sc.assign.masks);
  SlotAllocation alloc = SlotAllocation::zeros(ctx);
  for (std::size_t r = 0; r <= cache.num_fbs; ++r) {
    double* rho = r == 0 ? alloc.rho_mbs.data() : alloc.rho_fbs.data();
    solve_resource(ctx, cache, gt_per_fbs, use_mbs, r, sc.assign.masks[r], sc,
                   rho, nullptr);
  }
  for (std::size_t j = 0; j < cache.num_users; ++j) {
    alloc.use_mbs[j] = use_mbs[j] != 0;
  }
  alloc.expected_channels = gt_per_fbs;
  alloc.objective = slot_objective(ctx, alloc);
  alloc.upper_bound = alloc.objective;
  FEMTOCR_DCHECK_FINITE(alloc.objective,
                        "water-filled slot objective must be finite");
  return alloc;
}

/// The climb's weak-duality bound on what a move can gain; the proof and
/// its rounding margin are in docs/DEVELOPING.md ("The climb's duality
/// bound"). Resource r's shares in the accepted assignment A were taken at
/// the price μ_r = price_of(λ_r). User j, with share ρ_j and term t_j on
/// its resource c, keeps h_j = t_j − μ_c ρ_j there and is offered φ_j, the
/// maximum of f_j(ρ) − μ_o ρ over [0, 1] on its other resource o. A move
/// of the users M that touches the resources T gains at most
///   B = Σ_{j∈M} (φ_j − h_j) + Σ_{r∈T} μ_r (1 + 1e-9 + κ − Σ_{k∈A_r} ρ_k),
/// so one with B + margin < kMinGain is one the climb would reject.
///
/// A check is O(1). An accepted move re-takes the keep values and slack
/// terms of the resources it touched. An offer is taken when it is next
/// needed after its price moved, first as a log-free upper estimate, and
/// exactly only when that can decide the check.
class DualityBound {
 public:
  /// Sets the bound up for the accepted assignment `um`, whose terms are
  /// as.terms and whose resources' water levels are as.prices (turned into
  /// prices here).
  DualityBound(const SlotContext& ctx, const SlotCache& cache,
               const std::vector<double>& gt_per_fbs,
               const std::vector<unsigned char>& um, AssignScratch& as);

  /// Whether moving user j, and user k too unless k == K, provably gains
  /// no more than kMinGain. fj and fk are their FBSs' resource indices
  /// (fk == fj for a flip).
  bool rules_out(std::size_t j, std::size_t k, std::size_t fj,
                 std::size_t fk);

  /// Takes in an accepted move of j (and k): um and as.terms already hold
  /// it, and l0, lj and lk are the new water levels of the MBS, fj and fk.
  void accept(std::size_t j, std::size_t k, std::size_t fj, std::size_t fk,
              double l0, double lj, double lk);

 private:
  /// User j's share operands on resource r.
  Operands operands(std::size_t j, std::size_t r) const;
  /// Re-takes the keep values of resource r's members and r's slack term.
  void refresh(std::size_t r);
  /// φ_j − h_j, or an upper bound on it while j's offer is an estimate;
  /// re-takes j's offer estimate first if its price has moved.
  double gain(std::size_t j);
  /// Replaces j's offer estimate by the exact offer (one log).
  void tighten(std::size_t j);

  const SlotContext& ctx_;
  const SlotCache& cache_;
  const std::vector<double>& gt_;
  const std::vector<unsigned char>& um_;
  AssignScratch& as_;
  std::size_t num_users_;
  double budget_;  ///< 1 + 1e-9 + κ
  double margin_;
};

DualityBound::DualityBound(const SlotContext& ctx, const SlotCache& cache,
                           const std::vector<double>& gt_per_fbs,
                           const std::vector<unsigned char>& um,
                           AssignScratch& as)
    : ctx_(ctx),
      cache_(cache),
      gt_(gt_per_fbs),
      um_(um),
      as_(as),
      num_users_(cache.num_users) {
  // Each user's operands on its FBS at the climb's g, and the scale Λ: on
  // either resource and at any share, user j's term, keep and offer are at
  // most |log W_j| + S g R / W_j in magnitude.
  as.fbs_pr.resize(num_users_);
  as.fbs_hi.resize(num_users_);
  as.fbs_usable.resize(num_users_);
  double scale = 1.0;
  for (std::size_t j = 0; j < num_users_; ++j) {
    const UserState& u = ctx.users[j];
    const double g = gt_per_fbs[u.fbs];
    const Operands op = fbs_operands(u, g);
    as.fbs_pr[j] = op.pr;
    as.fbs_usable[j] = op.usable ? 1 : 0;
    as.fbs_hi[j] = top_price(u, cache, j, false, g);
    scale += std::fabs(cache.log_psnr[j]) +
             std::max(cache.hi_mbs[j], as.fbs_hi[j]);
  }
  const double unit = static_cast<double>(num_users_ + 4) *
                      std::numeric_limits<double>::epsilon();
  budget_ = guarded_budget(num_users_);
  margin_ = 16.0 * unit * scale;
  for (double& price : as.prices) price = price_of(price);
  as.keep.resize(num_users_);
  as.offer.resize(num_users_);
  as.offer_gap.resize(num_users_);
  as.offer_low.assign(num_users_, kNever);
  as.offer_high.resize(num_users_);
  as.slack.resize(cache.num_fbs + 1);
  for (std::size_t r = 0; r <= cache.num_fbs; ++r) refresh(r);
}

Operands DualityBound::operands(std::size_t j, std::size_t r) const {
  if (r == 0) return mbs_operands(ctx_.users[j], cache_, j);
  return {ctx_.users[j].success_fbs, as_.fbs_pr[j], as_.fbs_usable[j] != 0};
}

void DualityBound::refresh(std::size_t r) {
  const double mu = as_.prices[r];
  double sum = 0.0;
  const auto keep = [&](std::size_t j) {
    const Operands op = operands(j, r);
    const double rho = level_share(op.success, op.pr, op.usable, mu);
    as_.keep[j] = as_.terms[j] - mu * rho;
    sum += rho;
  };
  if (r == 0) {
    for (std::size_t j = 0; j < num_users_; ++j) {
      if (um_[j] != 0) keep(j);
    }
  } else {
    for (const std::size_t j : cache_.users_by_fbs[r - 1]) {
      if (um_[j] == 0) keep(j);
    }
  }
  as_.slack[r] = mu * (budget_ - sum);
}

double DualityBound::gain(std::size_t j) {
  const UserState& u = ctx_.users[j];
  const bool to_mbs = um_[j] == 0;
  const std::size_t o = to_mbs ? 0 : u.fbs + 1;
  const double mu = as_.prices[o];
  if (!(as_.offer_low[j] <= mu && mu <= as_.offer_high[j])) {
    // The log-free estimate t(0) + ρ (hi − μ) is at least φ_j, because
    // log(W + x) <= log W + x / W. It exceeds φ_j by at most
    // S (ρ x)² / 2 = (ρ hi)² / (2 S), with x = g R / W and hi = S x. A zero
    // share stays zero at every higher price, where the offer stays t(0)
    // bit for bit.
    const Operands op = operands(j, o);
    const double rho = level_share(op.success, op.pr, op.usable, mu);
    const double g = to_mbs ? 1.0 : gt_[u.fbs];
    const double hi = to_mbs ? cache_.hi_mbs[j] : as_.fbs_hi[j];
    as_.offer[j] =
        member_term(u, cache_, j, to_mbs, g, 0.0) + rho * (hi - mu);
    as_.offer_gap[j] =
        rho > 0.0 ? (rho * hi) * (rho * hi) / (2.0 * op.success) : 0.0;
    as_.offer_low[j] = mu;
    as_.offer_high[j] = rho > 0.0 ? mu : kNever;
  }
  return as_.offer[j] - as_.keep[j];
}

void DualityBound::tighten(std::size_t j) {
  if (!(as_.offer_gap[j] > 0.0)) return;
  const UserState& u = ctx_.users[j];
  const bool to_mbs = um_[j] == 0;
  const double mu = as_.offer_low[j];  // == offer_high[j]: the share is > 0
  const double g = to_mbs ? 1.0 : gt_[u.fbs];
  as_.offer[j] = lagrangian_max(u, cache_, j, to_mbs, g,
                                operands(j, to_mbs ? 0 : u.fbs + 1), mu);
  as_.offer_gap[j] = 0.0;
}

bool DualityBound::rules_out(std::size_t j, std::size_t k, std::size_t fj,
                             std::size_t fk) {
  const bool pair = k < num_users_;
  const auto bound = [&] {
    double b = gain(j) + as_.slack[0] + as_.slack[fj];
    if (pair) {
      b += gain(k);
      if (fk != fj) b += as_.slack[fk];
    }
    return b;
  };
  const double estimate = bound();
  if (estimate + margin_ < kMinGain) return true;
  // Exact offers lower the bound by at most the estimates' gaps: take them
  // only where that can rule the move out.
  const double gap = as_.offer_gap[j] + (pair ? as_.offer_gap[k] : 0.0);
  if (!(gap > 0.0) || !(estimate - gap < kMinGain)) return false;
  tighten(j);
  if (pair) tighten(k);
  return bound() + margin_ < kMinGain;
}

void DualityBound::accept(std::size_t j, std::size_t k, std::size_t fj,
                          std::size_t fk, double l0, double lj, double lk) {
  as_.prices[0] = price_of(l0);
  as_.prices[fj] = price_of(lj);
  refresh(0);
  refresh(fj);
  if (fk != fj) {
    as_.prices[fk] = price_of(lk);
    refresh(fk);
  }
  as_.offer_low[j] = kNever;  // j's other resource is now another
  if (k < num_users_) as_.offer_low[k] = kNever;
}

#if FEMTOCR_DCHECK_IS_ON()
/// A pruned move must be one the climb would reject: applies the move of j
/// (and k unless k == K) to `um`, re-solves the resources it touches
/// uncounted and outside both the memo and the tier, checks that the trial
/// objective does not gain more than kMinGain over `best`, and undoes the
/// move.
void check_pruned(const SlotContext& ctx, const SlotCache& cache,
                  const std::vector<double>& gt_per_fbs,
                  std::vector<unsigned char>& um, std::size_t j, std::size_t k,
                  std::size_t fj, std::size_t fk, SlotScratch& sc,
                  double best) {
  AssignScratch& as = sc.assign;
  const std::size_t K = cache.num_users;
  um[j] ^= 1U;
  if (k < K) um[k] ^= 1U;
  std::copy(as.terms.begin(), as.terms.end(), as.trial_terms.begin());
  const std::size_t touched[] = {0, fj, fk};
  for (std::size_t t = 0; t < (fk != fj ? 3 : 2); ++t) {
    gather_assignment(cache, um.data(), touched[t], as);
    const std::size_t n = as.members.size();
    as.check_rho.resize(n);
    as.check_term.resize(n);
    solve_members(ctx, cache, gt_per_fbs, touched[t], sc, as.check_rho.data(),
                  as.check_term.data(), false);
    for (std::size_t m = 0; m < n; ++m) {
      as.trial_terms[as.members[m]] = as.check_term[m];
    }
  }
  const double cand = sum_terms(as.trial_terms, K);
  FEMTOCR_DCHECK(!(cand > best + kMinGain),
                 "the duality bound pruned a climb move that gains");
  um[j] ^= 1U;
  if (k < K) um[k] ^= 1U;
}
#endif

/// Hill climbing over base-station reassignments, with the inner
/// water-filling solved exactly for every trial assignment: single-user
/// flips first, then pair swaps (user j to the MBS while user k moves off
/// it), which escape the local optima single flips get stuck in when the
/// slot budgets are tight. Each accepted move strictly increases the
/// exactly-evaluated objective, so the search terminates; simultaneous
/// best-response would oscillate between all-on-MBS and all-on-FBS
/// assignments and miss mixed optima. Agreement with brute-force
/// assignment enumeration is pinned by tests. Leaves the best assignment
/// in `um` and returns its objective.
///
/// A trial costs only what it changes: the climb keeps the per-user terms,
/// the per-resource member masks and the water levels of the accepted
/// assignment, and a move toggles the moved users' bits and re-solves just
/// the resources it touches — the MBS and the home FBS of each moved user
/// — before re-summing the terms in user order, bitwise what a full
/// evaluation gives. A move the duality bound rules out is not tried at
/// all: it counts in core.waterfill.climb.pruned instead of
/// core.waterfill.evaluations, and under FEMTOCR_DCHECK it is
/// re-solved and checked to be one the climb rejects. Both counters are
/// tallied locally and added once, at the climb's exit. A climb that hits
/// the sweep cap counts core.waterfill.climb.sweep_cap_exits.
double hill_climb(const SlotContext& ctx, const SlotCache& cache,
                  const std::vector<double>& gt_per_fbs,
                  std::vector<unsigned char>& um) {
  static util::Counter& c_sweep_cap =
      util::metrics().counter("core.waterfill.climb.sweep_cap_exits");
  static util::Counter& c_pruned =
      util::metrics().counter("core.waterfill.climb.pruned");
  const MemoScope scope;
  SlotScratch& sc = slot_scratch();
  AssignScratch& as = sc.assign;
  const std::size_t K = cache.num_users;
  // Initial assignment: whole-slot comparison per user.
  um.resize(K);
  for (std::size_t j = 0; j < K; ++j) {
    const UserState& u = ctx.users[j];
    const double g = gt_per_fbs[u.fbs];
    um[j] = mbs_term(u, 1.0) > fbs_term(u, 1.0, g) ? 1 : 0;
  }
  as.terms.resize(K);
  as.trial_terms.resize(K);
  std::vector<std::uint64_t>& masks = as.masks;
  assignment_masks(ctx, cache, um.data(), masks);
  as.prices.resize(cache.num_fbs + 1);
  double best = full_objective(ctx, cache, gt_per_fbs, um.data(), masks, sc,
                               as.terms, as.prices.data());
  DualityBound bound(ctx, cache, gt_per_fbs, um, as);
  std::uint64_t evaluations = 1;  // the start
  std::uint64_t pruned = 0;

  constexpr std::size_t kMaxSweeps = 64;
  // Flips user j, and user k too unless k == K; keeps the move iff it
  // gains more than kMinGain. A user's bit is its index on the MBS and its
  // group position on its FBS.
  const auto try_move = [&](std::size_t j, std::size_t k) {
    const std::size_t fj = ctx.users[j].fbs + 1;
    const std::size_t fk = k < K ? ctx.users[k].fbs + 1 : fj;
    if (bound.rules_out(j, k, fj, fk)) {
      ++pruned;
#if FEMTOCR_DCHECK_IS_ON()
      check_pruned(ctx, cache, gt_per_fbs, um, j, k, fj, fk, sc, best);
#endif
      return false;
    }
    ++evaluations;
    std::uint64_t mbs = masks[0] ^ mask_bit(j);
    std::uint64_t mj = masks[fj] ^ mask_bit(cache.fbs_position[j]);
    std::uint64_t mk = 0;
    um[j] ^= 1U;
    if (k < K) {
      um[k] ^= 1U;
      mbs ^= mask_bit(k);
      if (fk == fj) {
        mj ^= mask_bit(cache.fbs_position[k]);
      } else {
        mk = masks[fk] ^ mask_bit(cache.fbs_position[k]);
      }
    }
    std::copy(as.terms.begin(), as.terms.end(), as.trial_terms.begin());
    double* trial = as.trial_terms.data();
    const double l0 = solve_resource(ctx, cache, gt_per_fbs, um.data(), 0,
                                     mbs, sc, nullptr, trial);
    const double lj = solve_resource(ctx, cache, gt_per_fbs, um.data(), fj,
                                     mj, sc, nullptr, trial);
    const double lk =
        fk != fj ? solve_resource(ctx, cache, gt_per_fbs, um.data(), fk, mk,
                                  sc, nullptr, trial)
                 : 0.0;
    const double cand = sum_terms(as.trial_terms, K);
    if (cand > best + kMinGain) {
      best = cand;
      as.terms.swap(as.trial_terms);
      masks[0] = mbs;
      masks[fj] = mj;
      if (fk != fj) masks[fk] = mk;
      bound.accept(j, k, fj, fk, l0, lj, lk);
      return true;
    }
    um[j] ^= 1U;
    if (k < K) um[k] ^= 1U;
    return false;
  };
  bool converged = false;
  for (std::size_t sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    bool improved = false;
    for (std::size_t j = 0; j < K; ++j) {
      if (try_move(j, K)) improved = true;
    }
    for (std::size_t j = 0; j < K; ++j) {
      for (std::size_t k = j + 1; k < K; ++k) {
        if (um[j] == um[k]) continue;  // swap changes nothing new
        if (try_move(j, k)) improved = true;
      }
    }
    converged = !improved;
  }
  if (!converged) c_sweep_cap.add();
  count_evaluations(evaluations);
  c_pruned.add(pruned);
  return best;
}

void check_cache_matches(const SlotContext& ctx, const SlotCache& cache,
                         const std::vector<double>& gt_per_fbs) {
  FEMTOCR_CHECK(
      cache.num_users == ctx.users.size() && cache.num_fbs == ctx.num_fbs,
      "slot cache does not match the context");
  FEMTOCR_CHECK(gt_per_fbs.size() == ctx.num_fbs,
                "need one expected channel count per FBS");
}

}  // namespace

double waterfill_shares(const std::vector<double>& psnr,
                        const std::vector<double>& rates,
                        const std::vector<double>& successes, double budget,
                        std::vector<double>& rho_out) {
  FEMTOCR_CHECK(psnr.size() == rates.size() && psnr.size() == successes.size(),
                "state, rate and success lists must align");
  FEMTOCR_CHECK(budget >= 0.0 && budget <= 1.0, "budget must lie in [0, 1]");
  const std::size_t n = psnr.size();
#if FEMTOCR_DCHECK_IS_ON()
  for (std::size_t k = 0; k < n; ++k) {
    FEMTOCR_DCHECK(psnr[k] > 0.0, "PSNR state must be positive");
    FEMTOCR_DCHECK_PROB(successes[k], "success probability out of range");
    FEMTOCR_DCHECK_GE(rates[k], 0.0, "effective rate must be nonnegative");
    FEMTOCR_DCHECK_FINITE(rates[k], "effective rate must be finite");
  }
#endif
  // Hoist the price offsets W/R, the usable gate and the price upper bound
  // (above max_k S_k R_k / W_k every share is zero) into the scratch arena.
  ResourceScratch& rs = slot_scratch().resource;
  rs.pr.resize(n);
  rs.usable.resize(n);
  double hi = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const bool ok = rates[k] > 0.0 && successes[k] > 0.0;
    rs.usable[k] = ok ? 1 : 0;
    rs.pr[k] = ok ? psnr[k] / rates[k] : 0.0;
    if (rates[k] > 0.0) hi = std::max(hi, successes[k] * rates[k] / psnr[k]);
  }
  rho_out.resize(n);
  return waterfill_level(successes.data(), rs.pr.data(), rs.usable.data(), n,
                         hi, budget, rho_out.data(), rs, true);
}

SlotAllocation waterfill_evaluate(const SlotContext& ctx,
                                  const SlotCache& cache,
                                  const std::vector<double>& gt_per_fbs,
                                  const std::vector<bool>& use_mbs) {
  check_cache_matches(ctx, cache, gt_per_fbs);
  FEMTOCR_CHECK(use_mbs.size() == ctx.users.size(),
                "need one assignment flag per user");
  std::vector<unsigned char>& um = slot_scratch().assign.use_mbs;
  um.resize(use_mbs.size());
  for (std::size_t j = 0; j < use_mbs.size(); ++j) {
    um[j] = use_mbs[j] ? 1 : 0;
  }
  return evaluate_assignment(ctx, cache, gt_per_fbs, um.data());
}

SlotAllocation waterfill_solve(const SlotContext& ctx, const SlotCache& cache,
                               const std::vector<double>& gt_per_fbs) {
  static util::Counter& c_solves =
      util::metrics().counter("core.waterfill.solves");
  static util::TimerStat& t_solve =
      util::metrics().timer("core.waterfill.solve");
  const util::Scope scope(t_solve);
  c_solves.add();

  check_cache_matches(ctx, cache, gt_per_fbs);
  // One memo scope for the climb and the materialisation of its winner,
  // whose resources the climb has already solved.
  const MemoScope memo;
  std::vector<unsigned char>& um = slot_scratch().assign.use_mbs;
  hill_climb(ctx, cache, gt_per_fbs, um);
  // Re-waterfilling the winning assignment is deterministic, so the
  // materialized allocation (and its slot_objective) is bit-identical to
  // the best trial the climb kept.
  return evaluate_assignment(ctx, cache, gt_per_fbs, um.data());
}

double waterfill_solve_objective(const SlotContext& ctx,
                                 const SlotCache& cache,
                                 const std::vector<double>& gt_per_fbs,
                                 std::vector<bool>& use_mbs,
                                 std::vector<double>& prices) {
  static util::Counter& c_solves =
      util::metrics().counter("core.waterfill.solves");
  static util::TimerStat& t_solve =
      util::metrics().timer("core.waterfill.solve");
  const util::Scope scope(t_solve);
  c_solves.add();

  check_cache_matches(ctx, cache, gt_per_fbs);
  AssignScratch& as = slot_scratch().assign;
  const double q = hill_climb(ctx, cache, gt_per_fbs, as.use_mbs);
  use_mbs.resize(as.use_mbs.size());
  for (std::size_t j = 0; j < as.use_mbs.size(); ++j) {
    use_mbs[j] = as.use_mbs[j] != 0;
  }
  prices.assign(as.prices.begin(), as.prices.end());
  return q;
}

SlotDualBound waterfill_dual_bound(const SlotContext& ctx,
                                   const SlotCache& cache,
                                   const std::vector<double>& gt_per_fbs,
                                   const std::vector<double>& prices) {
  FEMTOCR_DCHECK(prices.size() == cache.num_fbs + 1,
                 "need one price per resource");
  const std::size_t K = cache.num_users;
  const double budget = guarded_budget(K);
  double priced = 0.0;  // Σ_r μ_r (1 + 1e-9 + κ)
  for (const double mu : prices) {
    FEMTOCR_DCHECK_GE(mu, 0.0, "a resource price must be nonnegative");
    priced += mu * budget;
  }
  // Σ_j max(v_j^MBS, v_j^FBS), and the scale Λ + 1 of the margin: user
  // j's terms, and its Lagrangian maxima, are at most
  // |log W_j| + max S g R / W_j in magnitude.
  double users = 0.0;
  double scale = 1.0;
  for (std::size_t j = 0; j < K; ++j) {
    const UserState& u = ctx.users[j];
    const double g = gt_per_fbs[u.fbs];
    const double on_mbs = lagrangian_max(u, cache, j, true, 1.0,
                                         mbs_operands(u, cache, j), prices[0]);
    const double on_fbs = lagrangian_max(u, cache, j, false, g,
                                         fbs_operands(u, g), prices[u.fbs + 1]);
    users += std::max(on_mbs, on_fbs);
    scale += std::fabs(cache.log_psnr[j]) +
             std::max(cache.hi_mbs[j], top_price(u, cache, j, false, g));
  }
  const double unit = static_cast<double>(K + cache.num_fbs + 4) *
                      std::numeric_limits<double>::epsilon();
  return {priced + users, 16.0 * unit * (scale + priced)};
}

SlotAllocation waterfill_solve_exhaustive(
    const SlotContext& ctx, const SlotCache& cache,
    const std::vector<double>& gt_per_fbs) {
  check_cache_matches(ctx, cache, gt_per_fbs);
  const std::size_t K = ctx.users.size();
  FEMTOCR_CHECK(K <= 16, "exhaustive assignment limited to 16 users");
  const MemoScope scope;
  SlotScratch& sc = slot_scratch();
  std::vector<unsigned char>& um = sc.assign.use_mbs;
  um.resize(K);
  sc.assign.terms.resize(K);
  double best_q = -1e300;
  std::size_t best_mask = 0;
  bool found = false;
  for (std::size_t mask = 0; mask < (std::size_t{1} << K); ++mask) {
    for (std::size_t j = 0; j < K; ++j) {
      um[j] = (mask >> j) & 1U;
    }
    assignment_masks(ctx, cache, um.data(), sc.assign.masks);
    count_evaluations(1);
    const double q =
        full_objective(ctx, cache, gt_per_fbs, um.data(), sc.assign.masks, sc,
                       sc.assign.terms, nullptr);
    if (q > best_q) {
      best_q = q;
      best_mask = mask;
      found = true;
    }
  }
  if (!found) {  // unreachable for a valid context; keep the old sentinel
    SlotAllocation best;
    best.objective = -1e300;
    return best;
  }
  for (std::size_t j = 0; j < K; ++j) {
    um[j] = (best_mask >> j) & 1U;
  }
  return evaluate_assignment(ctx, cache, gt_per_fbs, um.data());
}

}  // namespace femtocr::core
