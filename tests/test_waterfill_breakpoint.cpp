// Equivalence suite for the analytic breakpoint water-level solver:
// waterfill_resource (sorted breakpoints + closed form + Newton polish)
// against waterfill_resource_reference (the pre-breakpoint 100-step
// bisection, kept verbatim as the oracle). Over random cells and the
// degenerate edges, the two levels must agree to <= 1e-9 relative error
// and the share vectors to the propagated tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

struct ResourceLists {
  std::vector<std::size_t> users;
  std::vector<double> rates;
  std::vector<double> successes;
};

/// The MBS-side lists of a random context (every user, R_0j / S_0j).
ResourceLists mbs_lists(const test::ContextFixture& f) {
  ResourceLists r;
  for (std::size_t j = 0; j < f.ctx.users.size(); ++j) {
    r.users.push_back(j);
    r.rates.push_back(f.ctx.users[j].rate_mbs);
    r.successes.push_back(f.ctx.users[j].success_mbs);
  }
  return r;
}

void expect_equivalent(const SlotContext& ctx, const ResourceLists& r) {
  std::vector<double> rho_bp, rho_ref;
  const double lvl_bp =
      waterfill_resource(ctx, r.users, r.rates, r.successes, rho_bp);
  const double lvl_ref = waterfill_resource_reference(ctx, r.users, r.rates,
                                                      r.successes, rho_ref);
  EXPECT_NEAR(lvl_bp, lvl_ref, kLevelTol * std::max(1.0, std::abs(lvl_ref)));
  ASSERT_EQ(rho_bp.size(), rho_ref.size());
  double sum = 0.0;
  for (std::size_t k = 0; k < rho_bp.size(); ++k) {
    EXPECT_NEAR(rho_bp[k], rho_ref[k], kShareTol) << "share " << k;
    EXPECT_GE(rho_bp[k], 0.0);
    EXPECT_LE(rho_bp[k], kRhoCap);
    sum += rho_bp[k];
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
}

TEST(WaterfillBreakpoint, MatchesBisectionOverFiftyRandomCells) {
  util::Rng rng(8101);
  for (int cell = 0; cell < 50; ++cell) {
    const std::size_t users = 1 + rng.index(40);
    auto f = test::random_context(rng, users, 1, 2);
    expect_equivalent(f.ctx, mbs_lists(f));
  }
}

TEST(WaterfillBreakpoint, MatchesBisectionOnFbsSideRates) {
  // FBS-side operands (R_ij scaled by an expected channel count) push the
  // breakpoints into a different range than the MBS lists above.
  util::Rng rng(8111);
  for (int cell = 0; cell < 50; ++cell) {
    const std::size_t users = 1 + rng.index(24);
    auto f = test::random_context(rng, users, 1, 2);
    const double g = rng.uniform(0.5, 6.0);
    ResourceLists r;
    for (std::size_t j = 0; j < users; ++j) {
      r.users.push_back(j);
      r.rates.push_back(f.ctx.users[j].rate_fbs * g);
      r.successes.push_back(f.ctx.users[j].success_fbs);
    }
    expect_equivalent(f.ctx, r);
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
      waterfill_resource(f.ctx, r.users, r.rates, r.successes, rho_bp);
  const double lvl_ref = waterfill_resource_reference(f.ctx, r.users, r.rates,
                                                      r.successes, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, lvl_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, 0.0);
  EXPECT_DOUBLE_EQ(rho_bp[0], rho_ref[0]);
  EXPECT_DOUBLE_EQ(rho_bp[0], kRhoCap);
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
      waterfill_resource(f.ctx, r.users, r.rates, r.successes, rho_bp);
  const double lvl_ref = waterfill_resource_reference(f.ctx, r.users, r.rates,
                                                      r.successes, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, 0.0);
  EXPECT_DOUBLE_EQ(lvl_ref, 0.0);
  for (std::size_t k = 0; k < rho_bp.size(); ++k) {
    EXPECT_DOUBLE_EQ(rho_bp[k], rho_ref[k]);
    EXPECT_DOUBLE_EQ(rho_bp[k], k == 0 ? kRhoCap : 0.0);
  }
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
      waterfill_resource(f.ctx, r.users, r.rates, r.successes, rho_bp);
  const double lvl_ref = waterfill_resource_reference(f.ctx, r.users, r.rates,
                                                      r.successes, rho_ref);
  EXPECT_DOUBLE_EQ(lvl_bp, 0.0);
  EXPECT_DOUBLE_EQ(lvl_ref, 0.0);
  for (std::size_t k = 0; k < rho_bp.size(); ++k) {
    EXPECT_DOUBLE_EQ(rho_bp[k], 0.0);
    EXPECT_DOUBLE_EQ(rho_ref[k], 0.0);
  }
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
  expect_equivalent(f.ctx, mbs_lists(f));
}

TEST(WaterfillBreakpoint, FallbackFiresWhenPriceOffsetsDwarfTheLevel) {
  // Three members with W/R ≈ 5.3e7 and S ≈ 0.90–0.96: the binding level is
  // ≈ 1.7e-8, so each share S/λ − W/R is a difference of two numbers near
  // 5.3e7, and the closed-form level overspends the budget past the 1e-9
  // guard. Such offsets come from an FBS whose expected channel count is
  // tiny, which the churn workload meets thousands of times per run. The
  // fallback must fire, keep the shares inside the budget, and land on
  // the reference level.
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  SlotContext ctx;
  ResourceLists r;
  const double psnr[] = {0x1.ee66f55d1c72dp+4, 0x1.0f165a0ac46bp+5,
                         0x1.0dfdc1c92a0ffp+5};
  r.rates = {0x1.3a02fa0b64ee1p-21, 0x1.4ff58e05cbe12p-21,
             0x1.53675e4313a22p-21};
  r.successes = {0x1.cd44591eacf96p-1, 0x1.ecdf649767056p-1,
                 0x1.cdc20a016381dp-1};
  for (std::size_t k = 0; k < 3; ++k) {
    UserState u;
    u.psnr = psnr[k];
    ctx.users.push_back(u);
    r.users.push_back(k);
  }
  util::Counter& c_fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");
  const std::uint64_t before = c_fallback.total();
  std::vector<double> rho, rho_ref;
  const double lvl =
      waterfill_resource(ctx, r.users, r.rates, r.successes, rho);
  const std::uint64_t fired = c_fallback.total() - before;
  util::set_metrics_enabled(prev_enabled);
  EXPECT_EQ(fired, 1u);

  const double lvl_ref =
      waterfill_resource_reference(ctx, r.users, r.rates, r.successes, rho_ref);
  EXPECT_GT(lvl, 1e-8);
  EXPECT_NEAR(lvl, lvl_ref, kLevelTol * lvl_ref);
  double sum = 0.0;
  for (const double share : rho) {
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, kRhoCap);
    sum += share;
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
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
    waterfill_resource(f.ctx, r.users, r.rates, r.successes, rho);
  }
  EXPECT_EQ(c_fallback.total(), before);
}

}  // namespace
}  // namespace femtocr::core
