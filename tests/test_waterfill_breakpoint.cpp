// Equivalence suite for the analytic breakpoint water-level solver:
// waterfill_shares (sorted breakpoints + closed form + Newton polish, and
// an exact search over the bracket's doubles where that overspends)
// against test::waterfill_shares_reference (the pre-breakpoint 100-step
// bisection, kept verbatim as the oracle). Over random cells — at the slot
// budget 1 and at a random budget in (0, 1) — and the degenerate edges,
// the two levels must agree to <= 1e-9 relative error and the share
// vectors to the propagated tolerance; where the exact search runs, they
// must agree bit for bit. Whatever the level, the shares are the level's:
// Eq. 14 taken at the level, or at 1e-12 where it is 0, bit for bit, both
// from waterfill_shares and in a slot allocation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "core/waterfill.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

constexpr double kLevelTol = 1e-9;  ///< relative level tolerance (the pin)
// Share error propagated from the level error: |drho/dlambda| = S/lambda^2,
// so |drho| <= (pr + cap) * kLevelTol ~ 1e-7 at the library's operating
// point (W/R <= ~100). One order of margin on top.
constexpr double kShareTol = 1e-6;

/// One resource's members: state W, effective rate R, success S.
struct ResourceLists {
  std::vector<double> psnr;
  std::vector<double> rates;
  std::vector<double> successes;
};

/// The MBS-side lists of a random context (every user, W_j / R_0j / S_0j).
ResourceLists mbs_lists(const test::ContextFixture& f) {
  ResourceLists r;
  for (const UserState& u : f.ctx.users) {
    r.psnr.push_back(u.psnr);
    r.rates.push_back(u.rate_mbs);
    r.successes.push_back(u.success_mbs);
  }
  return r;
}

/// The bit patterns of a share vector, so that EXPECT_EQ compares bits.
std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// The shares a level solve returns are Eq. 14 at its level, or at 1e-12
/// (the price its slack branch takes them at) where the level is 0, bit
/// for bit: the shares are a function of the level alone.
void expect_shares_at_level(const ResourceLists& r, double level,
                            const std::vector<double>& rho) {
  std::vector<double> at_level;
  test::shares_at_level(r.psnr, r.rates, r.successes,
                        level > 0.0 ? level : 1e-12, at_level);
  EXPECT_EQ(bits(rho), bits(at_level)) << "level " << level;
}

void expect_equivalent(const ResourceLists& r, double budget = 1.0) {
  std::vector<double> rho_bp, rho_ref;
  const double lvl_bp =
      waterfill_shares(r.psnr, r.rates, r.successes, budget, rho_bp);
  expect_shares_at_level(r, lvl_bp, rho_bp);
  const double lvl_ref = test::waterfill_shares_reference(
      r.psnr, r.rates, r.successes, budget, rho_ref);
  EXPECT_NEAR(lvl_bp, lvl_ref, kLevelTol * std::max(1.0, std::abs(lvl_ref)))
      << "budget " << budget;
  ASSERT_EQ(rho_bp.size(), rho_ref.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < rho_bp.size(); ++k) {
    EXPECT_NEAR(rho_bp[k], rho_ref[k], kShareTol)
        << "share " << k << ", budget " << budget;
    EXPECT_GE(rho_bp[k], 0.0);
    EXPECT_LE(rho_bp[k], kRhoCap);
    sum += rho_bp[k];
  }
  EXPECT_LE(sum, budget + 1e-9);
}

TEST(WaterfillBreakpoint, MatchesBisectionOverFiftyRandomCells) {
  util::Rng rng(8101);
  util::Rng budget_rng(8102);  // its own stream: the cells stay as drawn
  for (int cell = 0; cell < 50; ++cell) {
    const std::size_t users = 1 + rng.index(40);
    auto f = test::random_context(rng, users, 1, 2);
    expect_equivalent(mbs_lists(f));
    expect_equivalent(mbs_lists(f), budget_rng.uniform(0.0, 1.0));
  }
}

TEST(WaterfillBreakpoint, MatchesBisectionOnFbsSideRates) {
  // FBS-side operands (R_ij scaled by an expected channel count) push the
  // breakpoints into a different range than the MBS lists above.
  util::Rng rng(8111);
  util::Rng budget_rng(8112);  // its own stream: the cells stay as drawn
  for (int cell = 0; cell < 50; ++cell) {
    const std::size_t users = 1 + rng.index(24);
    auto f = test::random_context(rng, users, 1, 2);
    const double g = rng.uniform(0.5, 6.0);
    ResourceLists r;
    for (const UserState& u : f.ctx.users) {
      r.psnr.push_back(u.psnr);
      r.rates.push_back(u.rate_fbs * g);
      r.successes.push_back(u.success_fbs);
    }
    expect_equivalent(r);
    expect_equivalent(r, budget_rng.uniform(0.0, 1.0));
  }
}

TEST(WaterfillBreakpoint, SingleUserEdge) {
  // One user takes the cap and the budget never binds: level 0 from both
  // solvers, share exactly at the clamp.
  util::Rng rng(8121);
  auto f = test::random_context(rng, 1, 1, 2);
  ResourceLists r = mbs_lists(f);
  std::vector<double> rho_bp, rho_ref;
  const double lvl_bp =
      waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho_bp);
  const double lvl_ref = test::waterfill_shares_reference(
      r.psnr, r.rates, r.successes, 1.0, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, lvl_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, 0.0);
  EXPECT_DOUBLE_EQ(rho_bp[0], rho_ref[0]);
  EXPECT_DOUBLE_EQ(rho_bp[0], kRhoCap);
  expect_shares_at_level(r, lvl_bp, rho_bp);
}

TEST(WaterfillBreakpoint, AllClampedEdge) {
  // Every usable member saturates at an almost-zero price (budget slack):
  // both solvers must take the early lambda* = 0 exit with identical
  // clamped shares. A single usable member among unusable ones is the
  // canonical all-clamped cell.
  util::Rng rng(8131);
  auto f = test::random_context(rng, 4, 1, 2);
  ResourceLists r = mbs_lists(f);
  for (std::size_t k = 1; k < r.rates.size(); ++k) r.rates[k] = 0.0;
  std::vector<double> rho_bp, rho_ref;
  const double lvl_bp =
      waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho_bp);
  const double lvl_ref = test::waterfill_shares_reference(
      r.psnr, r.rates, r.successes, 1.0, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, 0.0);
  EXPECT_DOUBLE_EQ(lvl_ref, 0.0);
  for (std::size_t k = 0; k < rho_bp.size(); ++k) {
    EXPECT_DOUBLE_EQ(rho_bp[k], rho_ref[k]);
    EXPECT_DOUBLE_EQ(rho_bp[k], k == 0 ? kRhoCap : 0.0);
  }
  expect_shares_at_level(r, lvl_bp, rho_bp);
}

TEST(WaterfillBreakpoint, ZeroBudgetEdge) {
  // Nobody usable (all rates zero): the "hi <= 0" exit, level 0 and all
  // shares 0 from both solvers, bitwise.
  util::Rng rng(8141);
  auto f = test::random_context(rng, 5, 1, 2);
  ResourceLists r = mbs_lists(f);
  for (double& rate : r.rates) rate = 0.0;
  std::vector<double> rho_bp, rho_ref;
  const double lvl_bp =
      waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho_bp);
  const double lvl_ref = test::waterfill_shares_reference(
      r.psnr, r.rates, r.successes, 1.0, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, 0.0);
  EXPECT_DOUBLE_EQ(lvl_ref, 0.0);
  for (std::size_t k = 0; k < rho_bp.size(); ++k) {
    EXPECT_DOUBLE_EQ(rho_bp[k], 0.0);
    EXPECT_DOUBLE_EQ(rho_ref[k], 0.0);
  }
  expect_shares_at_level(r, lvl_bp, rho_bp);
}

TEST(WaterfillBreakpoint, CappedNeighborInterval) {
  // A dominant member saturates while a weak one stays interior, so the
  // binding interval has a nonzero capped count C and the closed form
  // exercises its C * cap denominator term.
  util::Rng rng(8151);
  auto f = test::random_context(rng, 2, 1, 2);
  f.ctx.users[0].psnr = 28.0;
  f.ctx.users[0].rate_mbs = 0.7;     // strong: caps early
  f.ctx.users[0].success_mbs = 0.98;
  f.ctx.users[1].psnr = 42.0;
  f.ctx.users[1].rate_mbs = 0.45;    // weak: interior share
  f.ctx.users[1].success_mbs = 0.60;
  expect_equivalent(mbs_lists(f));
}

TEST(WaterfillBreakpoint, FlatRegionSharesMatchAtAnyOfItsLevels) {
  // With the cap equal to the budget, a strong member saturated while the
  // weak one is still off makes g ≡ 1 over [lo, hi]: lo is the weak
  // member's turn-on S/pr, hi the strong member's saturation S/(pr + cap).
  // Every level in between is a KKT multiplier with the same shares. The
  // bisection converges to lo. In this cell the sweep's candidate on the
  // piece below the region, S/((1 + pr) - cap), rounds just above lo and
  // is rejected, so the sweep returns hi. The shares still agree bitwise.
  ResourceLists r;
  r.psnr = {0x1.1334488550051p+5, 0x1.182d42d27e569p+5};
  r.rates = {0x1.0484650a63e43p+0, 0x1.2063960b7b854p+0};
  r.successes = {0x1.f2cb1be28715p-1, 0x1.8d7c1723420f7p-1};
  const double lo = r.successes[1] / (r.psnr[1] / r.rates[1]);
  const double hi = r.successes[0] / (r.psnr[0] / r.rates[0] + kRhoCap);
  ASSERT_LT(lo, hi);
  std::vector<double> rho_bp, rho_ref;
  const double lvl_bp =
      waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho_bp);
  const double lvl_ref = test::waterfill_shares_reference(
      r.psnr, r.rates, r.successes, 1.0, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_ref, lo);
  EXPECT_GE(lvl_bp, lo);
  EXPECT_LE(lvl_bp, hi);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(rho_bp[k], rho_ref[k]) << "share " << k;
  }
  EXPECT_EQ(rho_bp[0], kRhoCap);
  EXPECT_EQ(rho_bp[1], 0.0);
  expect_shares_at_level(r, lvl_bp, rho_bp);
}

TEST(WaterfillBreakpoint, FallbackFiresWhenPriceOffsetsDwarfTheLevel) {
  // Three members with W/R ≈ 5.3e7 and S ≈ 0.90–0.96: the binding level is
  // ≈ 1.7e-8, so each share S/λ − W/R is a difference of two numbers near
  // 5.3e7, and the closed-form level overspends the budget past the 1e-9
  // guard. Such offsets come from an FBS whose expected channel count is
  // tiny, which the churn workload meets. The fallback must fire, keep the
  // shares inside the budget, and land on the reference level and shares
  // bit for bit.
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  ResourceLists r;
  r.psnr = {0x1.ee66f55d1c72dp+4, 0x1.0f165a0ac46bp+5, 0x1.0dfdc1c92a0ffp+5};
  r.rates = {0x1.3a02fa0b64ee1p-21, 0x1.4ff58e05cbe12p-21,
             0x1.53675e4313a22p-21};
  r.successes = {0x1.cd44591eacf96p-1, 0x1.ecdf649767056p-1,
                 0x1.cdc20a016381dp-1};
  util::Counter& c_fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");
  const std::uint64_t before = c_fallback.total();
  std::vector<double> rho, rho_ref;
  const double lvl = waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho);
  const std::uint64_t fired = c_fallback.total() - before;
  util::set_metrics_enabled(prev_enabled);
  EXPECT_EQ(fired, 1u);

  const double lvl_ref = test::waterfill_shares_reference(
      r.psnr, r.rates, r.successes, 1.0, rho_ref);
  EXPECT_GT(lvl, 1e-8);
  EXPECT_EQ(lvl, lvl_ref);
  EXPECT_EQ(rho, rho_ref);
  expect_shares_at_level(r, lvl, rho);
  double sum = 0.0;
  for (const double share : rho) {
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, kRhoCap);
    sum += share;
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
}

TEST(WaterfillBreakpoint, FallbackLevelIsTheSmallestFittingDouble) {
  // One-resource cells in the regime the churn workload meets: an FBS
  // whose expected channel count g is tiny, so W/R is 10^6-10^9 and about
  // one cell in twenty overspends the guard at the closed-form level. The
  // share sum is nonincreasing in the level (each share is a correctly
  // rounded, clamped difference, added in a fixed order), so there is a
  // smallest double whose shares fit the budget. On every cell where the
  // fallback fires, the level must be that double, bit for bit the
  // reference's, with the reference's shares.
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  util::Counter& c_fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");
  util::Rng rng(8191);
  int fallbacks = 0;
  for (int cell = 0; cell < 1000; ++cell) {
    const std::size_t n = 2 + rng.index(5);
    const double g = std::pow(10.0, rng.uniform(-8.0, -5.0));
    ResourceLists r;
    for (std::size_t k = 0; k < n; ++k) {
      r.psnr.push_back(rng.uniform(28.0, 42.0));
      r.rates.push_back(g * rng.uniform(0.45, 0.7));
      r.successes.push_back(rng.uniform(0.55, 0.98));
    }
    const std::uint64_t before = c_fallback.total();
    std::vector<double> rho, rho_ref, rho_below;
    const double lvl = waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho);
    if (c_fallback.total() == before) continue;
    ++fallbacks;
    const double lvl_ref = test::waterfill_shares_reference(
        r.psnr, r.rates, r.successes, 1.0, rho_ref);
    EXPECT_EQ(lvl, lvl_ref) << "cell " << cell;
    EXPECT_EQ(rho, rho_ref) << "cell " << cell;
    double sum = 0.0;
    for (const double share : rho) sum += share;
    EXPECT_LE(sum, 1.0) << "cell " << cell;
    EXPECT_GT(test::shares_at_level(r.psnr, r.rates, r.successes,
                                    std::nextafter(lvl, 0.0), rho_below),
              1.0)
        << "cell " << cell;
  }
  util::set_metrics_enabled(prev_enabled);
  EXPECT_GE(fallbacks, 20);
}

TEST(WaterfillBreakpoint, NoBisectionFallbackOnRandomCells) {
  // The analytic path must stand on its own over the tested distributions:
  // the bisection fallback is insurance, not a crutch.
  util::Rng rng(8161);
  util::Counter& c_fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");
  const std::uint64_t before = c_fallback.total();
  for (int cell = 0; cell < 50; ++cell) {
    const std::size_t users = 1 + rng.index(40);
    auto f = test::random_context(rng, users, 1, 2);
    std::vector<double> rho;
    ResourceLists r = mbs_lists(f);
    waterfill_shares(r.psnr, r.rates, r.successes, 1.0, rho);
  }
  EXPECT_EQ(c_fallback.total(), before);
}

TEST(WaterfillBreakpoint, BudgetThatCoversEveryCapLeavesThePriceAtZero) {
  // The budget enters the slack test: a lone member takes a binding share
  // equal to any budget below its cap, and at the budget equal to its cap
  // it sits at the cap with the price at zero, in both solvers.
  util::Rng rng(8171);
  auto f = test::random_context(rng, 1, 1, 2);
  const ResourceLists r = mbs_lists(f);
  std::vector<double> rho, rho_ref;
  const double binding =
      waterfill_shares(r.psnr, r.rates, r.successes, 0.5, rho);
  EXPECT_GT(binding, 0.0);
  EXPECT_NEAR(rho[0], 0.5, 1e-9);
  expect_shares_at_level(r, binding, rho);
  expect_equivalent(r, 0.5);
  const double slack =
      waterfill_shares(r.psnr, r.rates, r.successes, kRhoCap, rho);
  EXPECT_DOUBLE_EQ(slack, 0.0);
  expect_shares_at_level(r, slack, rho);
  EXPECT_DOUBLE_EQ(test::waterfill_shares_reference(r.psnr, r.rates,
                                                    r.successes, kRhoCap,
                                                    rho_ref),
                   0.0);
  EXPECT_DOUBLE_EQ(rho[0], kRhoCap);
  EXPECT_DOUBLE_EQ(rho_ref[0], kRhoCap);
}

TEST(WaterfillBreakpoint, SlotSharesAreTheLevelSolvesShares) {
  // A slot allocation's shares are those of a level solve on each
  // resource's members, bit for bit: Eq. 14 at the resource's level, or
  // at 1e-12 where the level is 0; a user takes no share on the resource
  // it is not assigned to. Every other cell gives FBS 0 the expected
  // channel count 1e-12, whose price offsets W / (g R) exceed S * 1e12:
  // its level is 0 and its members' shares are 0 there, not the cap.
  util::Rng rng(8201);
  int slack_below_cap = 0;
  for (int cell = 0; cell < 40; ++cell) {
    const std::size_t fbss = 1 + rng.index(3);
    const std::size_t users = fbss + rng.index(12);
    const auto f = test::random_context(rng, users, fbss, 2);
    std::vector<double> gt;
    for (std::size_t i = 0; i < fbss; ++i) {
      gt.push_back(i == 0 && cell % 2 == 0 ? 1e-12 : rng.uniform(0.0, 3.0));
    }
    std::vector<bool> assignment;
    for (std::size_t j = 0; j < users; ++j) {
      assignment.push_back(rng.uniform(0.0, 1.0) < 0.5);
    }
    SlotCache cache;
    cache.build(f.ctx);
    for (const SlotAllocation& a :
         {waterfill_evaluate(f.ctx, cache, gt, assignment),
          waterfill_solve(f.ctx, cache, gt)}) {
      for (std::size_t r = 0; r <= fbss; ++r) {
        ResourceLists lists;
        std::vector<double> got;
        for (std::size_t j = 0; j < users; ++j) {
          const UserState& u = f.ctx.users[j];
          if (a.use_mbs[j] != (r == 0) || (r > 0 && u.fbs + 1 != r)) {
            continue;
          }
          lists.psnr.push_back(u.psnr);
          lists.rates.push_back(r == 0 ? u.rate_mbs : u.rate_fbs * gt[r - 1]);
          lists.successes.push_back(r == 0 ? u.success_mbs : u.success_fbs);
          got.push_back(r == 0 ? a.rho_mbs[j] : a.rho_fbs[j]);
        }
        std::vector<double> rho;
        const double level = waterfill_shares(lists.psnr, lists.rates,
                                              lists.successes, 1.0, rho);
        expect_shares_at_level(lists, level, rho);
        EXPECT_EQ(bits(got), bits(rho)) << "cell " << cell << ", resource "
                                        << r;
        if (!(level > 0.0) && !rho.empty() && rho[0] < kRhoCap) {
          ++slack_below_cap;
        }
      }
      for (std::size_t j = 0; j < users; ++j) {
        const double other = a.use_mbs[j] ? a.rho_fbs[j] : a.rho_mbs[j];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(other), 0u)
            << "cell " << cell << ", user " << j;
      }
    }
  }
  EXPECT_GT(slack_below_cap, 0);
}

TEST(WaterfillBreakpoint, RejectsMisalignedListsAndOutOfRangeBudgets) {
  util::Rng rng(8181);
  auto f = test::random_context(rng, 3, 1, 2);
  const ResourceLists r = mbs_lists(f);
  std::vector<double> rho;
  const std::vector<double> short_list(r.psnr.begin(), r.psnr.end() - 1);
  EXPECT_THROW(waterfill_shares(short_list, r.rates, r.successes, 1.0, rho),
               std::logic_error);
  EXPECT_THROW(waterfill_shares(r.psnr, short_list, r.successes, 1.0, rho),
               std::logic_error);
  EXPECT_THROW(waterfill_shares(r.psnr, r.rates, short_list, 1.0, rho),
               std::logic_error);
  for (const double budget : {-1e-12, 1.0 + 1e-12, std::nan("")}) {
    EXPECT_THROW(waterfill_shares(r.psnr, r.rates, r.successes, budget, rho),
                 std::logic_error)
        << budget;
  }
  EXPECT_NO_THROW(waterfill_shares(r.psnr, r.rates, r.successes, 0.0, rho));
}

}  // namespace
}  // namespace femtocr::core
