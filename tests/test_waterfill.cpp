// Tests for the exact water-filling solver: KKT conditions per resource,
// agreement with brute-force assignment enumeration on random instances,
// feasibility, the channel-free baseline objective, and a differential
// tier against a full-re-evaluation reference climb.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "core/subproblem.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace femtocr::core {
namespace {

TEST(WaterfillResource, EmptyResource) {
  std::vector<double> rho;
  EXPECT_DOUBLE_EQ(waterfill_shares({}, {}, {}, 1.0, rho), 0.0);
  EXPECT_TRUE(rho.empty());
}

TEST(WaterfillResource, BindsTheBudgetWhenContended) {
  util::Rng rng(403);
  auto f = test::random_context(rng, 4, 1, 3);
  std::vector<double> psnr, rates, successes;
  for (const UserState& u : f.ctx.users) {
    psnr.push_back(u.psnr);
    rates.push_back(u.rate_mbs);
    successes.push_back(u.success_mbs);
  }
  std::vector<double> rho;
  const double lambda = waterfill_shares(psnr, rates, successes, 1.0, rho);
  double sum = 0.0;
  for (double r : rho) {
    EXPECT_GE(r, 0.0);
    sum += r;
  }
  // Four users contending for one slot: the budget binds at a positive price.
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(lambda, 0.0);
}

TEST(WaterfillResource, KktStationarity) {
  // Positive shares must equalize marginal value S R/(W + rho R) = lambda;
  // zero shares must have marginal value <= lambda.
  util::Rng rng(407);
  for (int trial = 0; trial < 20; ++trial) {
    auto f = test::random_context(rng, 5, 1, 2);
    std::vector<double> psnr, rates, successes;
    for (const UserState& u : f.ctx.users) {
      psnr.push_back(u.psnr);
      rates.push_back(u.rate_fbs * 2.0);
      successes.push_back(u.success_fbs);
    }
    std::vector<double> rho;
    const double lambda = waterfill_shares(psnr, rates, successes, 1.0, rho);
    ASSERT_GT(lambda, 0.0);
    for (std::size_t k = 0; k < psnr.size(); ++k) {
      const double marginal =
          successes[k] * rates[k] / (psnr[k] + rho[k] * rates[k]);
      if (rho[k] > 1e-9 && rho[k] < kRhoCap - 1e-9) {
        EXPECT_NEAR(marginal, lambda, 1e-5 * lambda);
      } else if (rho[k] <= 1e-9) {
        EXPECT_LE(marginal, lambda * (1.0 + 1e-6));
      }
    }
  }
}

TEST(WaterfillResource, SingleUserTakesTheCap) {
  util::Rng rng(409);
  auto f = test::random_context(rng, 1, 1, 2);
  std::vector<double> rho;
  const UserState& u = f.ctx.users[0];
  const double lambda =
      waterfill_shares({u.psnr}, {u.rate_mbs}, {u.success_mbs}, 1.0, rho);
  // One user cannot exceed rho = 1 = the whole budget, so the budget is
  // slack at the cap and the price settles at zero.
  EXPECT_DOUBLE_EQ(rho[0], kRhoCap);
  EXPECT_DOUBLE_EQ(lambda, 0.0);
}

TEST(WaterfillSolve, FeasibleAndChannelAware) {
  util::Rng rng(411);
  for (int trial = 0; trial < 20; ++trial) {
    auto f = test::random_context(rng, 6, 2, 4);
    const std::vector<double> gt = {rng.uniform(0.0, 3.0),
                                    rng.uniform(0.0, 3.0)};
    const SlotAllocation a = waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
    EXPECT_TRUE(a.feasible(f.ctx));
    EXPECT_EQ(a.expected_channels, gt);
  }
}

TEST(WaterfillSolve, MatchesExhaustiveAssignment) {
  // The hill-climbing assignment search must find the brute-force optimum
  // on small instances (the inner problem is solved exactly either way).
  util::Rng rng(419);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t num_users = 2 + trial % 5;  // 2..6 users
    const std::size_t num_fbs = 1 + trial % 2;
    auto f = test::random_context(rng, num_users, num_fbs, 3);
    std::vector<double> gt;
    for (std::size_t i = 0; i < num_fbs; ++i) gt.push_back(rng.uniform(0.5, 3.0));
    const SlotAllocation fast =
        waterfill_solve(f.ctx, test::cache_for(f.ctx), gt);
    const SlotAllocation exact =
        waterfill_solve_exhaustive(f.ctx, test::cache_for(f.ctx), gt);
    EXPECT_NEAR(fast.objective, exact.objective, 1e-6)
        << "trial " << trial << ": hill climbing missed the optimum";
  }
}

TEST(WaterfillSolve, MonotoneInChannelCount) {
  // More expected channels can never decrease the optimal objective.
  util::Rng rng(421);
  auto f = test::random_context(rng, 4, 1, 3);
  double prev = waterfill_solve(f.ctx, test::cache_for(f.ctx), {0.0}).objective;
  for (double g = 0.5; g <= 4.0; g += 0.5) {
    const double cur =
        waterfill_solve(f.ctx, test::cache_for(f.ctx), {g}).objective;
    EXPECT_GE(cur, prev - 1e-9);
    prev = cur;
  }
}

TEST(WaterfillSolve, NoChannelsSendsEveryoneUsefulToMbs) {
  util::Rng rng(431);
  auto f = test::random_context(rng, 3, 1, 0);
  const SlotAllocation a =
      waterfill_solve(f.ctx, test::cache_for(f.ctx), {0.0});
  // With G = 0 the FBS branch strictly idles; the optimum puts at least one
  // user on the common channel and fills its slot.
  double sum_mbs = 0.0;
  for (double r : a.rho_mbs) sum_mbs += r;
  EXPECT_GT(sum_mbs, 0.99);
}

TEST(WaterfillSolve, ExhaustiveGuard) {
  util::Rng rng(439);
  auto f = test::random_context(rng, 17, 1, 1);
  EXPECT_THROW(waterfill_solve_exhaustive(f.ctx, test::cache_for(f.ctx), {1.0}),
               std::logic_error);
}

TEST(WaterfillSolve, RejectsMismatchedGtVector) {
  util::Rng rng(443);
  auto f = test::random_context(rng, 3, 2, 2);
  EXPECT_THROW(waterfill_solve(f.ctx, test::cache_for(f.ctx), {1.0}),
               std::logic_error);
}

// ------------------------------------------------- differential tier ----
//
// The library climb keeps per-user objective terms, re-solves only the
// resources a trial touches, memoises resource solves within a scope and
// skips the moves its weak-duality bound rules out, and stops once a sweep
// reaches the move it last accepted. The reference below re-evaluates
// every trial from scratch through the public waterfill_evaluate, with the
// same initial assignment, the same flip-then-swap order and the same
// acceptance rule, and sweeps until a whole sweep gains nothing. Objective
// and assignment must agree bitwise, and every trial the reference
// evaluates up to its next sweep's return to its last accepted move must
// be one the library either evaluates or prunes.

struct ReferenceClimb {
  std::vector<bool> use_mbs;
  double objective = 0.0;
  std::uint64_t evaluations = 0;  ///< the start and every trial
  /// The evaluations before the sweep after the last accepted move reaches
  /// that move again (all of them when none is accepted, or the climb hits
  /// the sweep cap).
  std::uint64_t to_last_accepted = 0;
};

ReferenceClimb reference_climb(const SlotContext& ctx, const SlotCache& cache,
                               const std::vector<double>& gt) {
  constexpr double kMinGain = 1e-12;
  constexpr int kMaxSweeps = 64;
  const std::size_t K = ctx.users.size();
  ReferenceClimb ref;
  std::vector<bool>& um = ref.use_mbs;
  for (const UserState& u : ctx.users) {
    um.push_back(mbs_term(u, 1.0) > fbs_term(u, 1.0, gt[u.fbs]));
  }
  const auto evaluate = [&] {
    ++ref.evaluations;
    return waterfill_evaluate(ctx, cache, gt, um).objective;
  };
  ref.objective = evaluate();
  std::size_t last_j = K;  // the move last accepted, none yet
  std::size_t last_k = K;
  bool reached = false;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool improved = false;
    // Flips j, and k too unless k == K; keeps the move iff it gains.
    const auto try_move = [&](std::size_t j, std::size_t k) {
      if (!reached && j == last_j && k == last_k) {
        reached = true;
        ref.to_last_accepted = ref.evaluations;
      }
      um[j] = !um[j];
      if (k < K) um[k] = !um[k];
      const double q = evaluate();
      if (q > ref.objective + kMinGain) {
        ref.objective = q;
        improved = true;
        last_j = j;
        last_k = k;
        return;
      }
      um[j] = !um[j];
      if (k < K) um[k] = !um[k];
    };
    for (std::size_t j = 0; j < K; ++j) try_move(j, K);
    for (std::size_t j = 0; j < K; ++j) {
      for (std::size_t k = j + 1; k < K; ++k) {
        if (um[j] != um[k]) try_move(j, k);
      }
    }
    if (!improved) break;
  }
  if (!reached) ref.to_last_accepted = ref.evaluations;
  return ref;
}

struct DifferentialCase {
  test::ContextFixture f;
  std::vector<double> gt;
};

constexpr int kDifferentialCases = 51;
constexpr int kFallbackCase = 50;

/// The case whose FBS 0 is the resource
/// WaterfillBreakpoint.FallbackFiresWhenPriceOffsetsDwarfTheLevel pins:
/// g = 2^-10 and three members with W/R ≈ 5.3e7, which cannot use the MBS,
/// so the climb takes FBS 0's level from the bisection fallback. A fourth
/// user of FBS 0 has a good MBS link, so moves that would bring it to
/// FBS 0 are pruned against the slack term of the fallback's shares. Four
/// regular users sit on FBS 1.
DifferentialCase fallback_case() {
  util::Rng rng(9051);
  DifferentialCase d{test::random_context(rng, 8, 2, 3), {0x1p-10, 1.7}};
  const double psnr[] = {0x1.ee66f55d1c72dp+4, 0x1.0f165a0ac46bp+5,
                         0x1.0dfdc1c92a0ffp+5};
  const double rates[] = {0x1.3a02fa0b64ee1p-21, 0x1.4ff58e05cbe12p-21,
                          0x1.53675e4313a22p-21};
  const double successes[] = {0x1.cd44591eacf96p-1, 0x1.ecdf649767056p-1,
                              0x1.cdc20a016381dp-1};
  for (std::size_t k = 0; k < 3; ++k) {
    UserState& u = d.f.ctx.users[2 * k];  // users 0, 2 and 4 are on FBS 0
    u.psnr = psnr[k];
    u.rate_fbs = rates[k] / d.gt[0];  // exact: g is a power of two
    u.success_fbs = successes[k];
    u.rate_mbs = 0.0;
  }
  return d;
}

/// Seeded adversarial context `c`. Cases 0 and 1 exceed 64 users (the MBS,
/// and in case 1 also the single FBS group, bypass the memo); case 2 is
/// large enough to fill the memo; case kFallbackCase is fallback_case();
/// the rest are small. Every seeded case mixes in zero rates, success
/// probabilities of exactly 0 and 1, and duplicated or zero expected
/// channel counts; FBSs outnumbering users, or every user on FBS 0, leave
/// groups empty.
DifferentialCase differential_case(int c) {
  if (c == kFallbackCase) return fallback_case();
  util::Rng rng(9001 + static_cast<std::uint64_t>(c));
  std::size_t users = 1 + rng.index(12);
  std::size_t fbss = 1 + rng.index(4);
  if (c == 0) {
    users = 70;
    fbss = 3;
  } else if (c == 1) {
    users = 66;
    fbss = 1;
  } else if (c == 2) {
    users = 60;
    fbss = 2;
  }
  DifferentialCase d{test::random_context(rng, users, fbss, 3), {}};
  for (UserState& u : d.f.ctx.users) {
    switch (rng.index(10)) {
      case 0: u.rate_mbs = 0.0; break;
      case 1: u.rate_fbs = 0.0; break;
      case 2: u.success_mbs = 0.0; break;
      case 3: u.success_fbs = 1.0; break;
      case 4:
        u.success_mbs = 1.0;
        u.success_fbs = 0.0;
        break;
      default: break;
    }
    if (c % 7 == 3) u.fbs = 0;
  }
  const double shared = d.f.ctx.posterior[0];
  for (std::size_t i = 0; i < fbss; ++i) {
    switch (c % 3) {
      case 0: d.gt.push_back(shared); break;  // one posterior everywhere
      case 1: d.gt.push_back(i % 2 == 0 ? shared : 0.0); break;
      default: d.gt.push_back(rng.uniform(0.0, 3.0)); break;
    }
  }
  return d;
}

TEST(WaterfillDifferential, ClimbMatchesFullReevaluationBitwise) {
  const bool prev_enabled = util::metrics_enabled();
  util::set_metrics_enabled(true);
  util::Counter& evaluations =
      util::metrics().counter("core.waterfill.evaluations");
  util::Counter& pruned =
      util::metrics().counter("core.waterfill.climb.pruned");
  util::Counter& fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");
  bool keyed_case_pruned = false;
  int stopped_early = 0;
  for (int c = 0; c < kDifferentialCases; ++c) {
    const DifferentialCase d = differential_case(c);
    SlotCache cache;
    cache.build(d.f.ctx);
    const ReferenceClimb ref = reference_climb(d.f.ctx, cache, d.gt);

    const std::uint32_t gen_before = slot_scratch().memo.table.generation;
    const SlotAllocation a = waterfill_solve(d.f.ctx, cache, d.gt);
    const std::uint32_t gen_after = slot_scratch().memo.table.generation;
    EXPECT_EQ(a.use_mbs, ref.use_mbs) << "case " << c;
    EXPECT_EQ(a.objective, ref.objective) << "case " << c;  // same bits
    const std::uint64_t evaluations_before = evaluations.total();
    const std::uint64_t pruned_before = pruned.total();
    const std::uint64_t fallback_before = fallback.total();
    std::vector<bool> climbed;
    std::vector<double> prices;
    EXPECT_EQ(
        waterfill_solve_objective(d.f.ctx, cache, d.gt, climbed, prices),
        ref.objective)
        << "case " << c;
    const std::uint64_t case_pruned = pruned.total() - pruned_before;
    // A pruned move is one the reference evaluates and rejects, and the
    // climb stops where the reference returns to its last accepted move.
    EXPECT_EQ(evaluations.total() - evaluations_before + case_pruned,
              ref.to_last_accepted)
        << "case " << c;
    if (ref.to_last_accepted < ref.evaluations) ++stopped_early;
    EXPECT_EQ(climbed, ref.use_mbs) << "case " << c;
    EXPECT_TRUE(a.feasible(d.f.ctx)) << "case " << c;
    // Weak duality at the climb's own exit prices bounds what it returned.
    ASSERT_EQ(prices.size(), d.gt.size() + 1) << "case " << c;
    DualBoundTable table;
    table.reset(d.f.ctx, cache, d.gt, prices);
    const SlotDualBound at_exit = table.at(d.f.ctx, cache, 0, d.gt[0]);
    EXPECT_LE(ref.objective, at_exit.value + at_exit.margin) << "case " << c;
    if (c == 2) {
      // One generation for the solve's own scope; any more are clears
      // forced by a full memo.
      EXPECT_GT(gen_after - gen_before, 1u) << "the memo never filled";
    }
    if (c == 0 || c == 1) {
      EXPECT_GT(case_pruned, 0u) << "unkeyed case " << c << " never pruned";
    } else if (case_pruned > 0) {
      keyed_case_pruned = true;
    }
    if (c == kFallbackCase) {
      EXPECT_GT(fallback.total() - fallback_before, 0u)
          << "the fallback case never reached the bisection fallback";
      EXPECT_GT(case_pruned, 0u) << "the fallback case never pruned";
    }
  }
  util::set_metrics_enabled(prev_enabled);
  EXPECT_TRUE(keyed_case_pruned) << "no keyed case pruned";
  EXPECT_GT(stopped_early, 0) << "no climb stopped at its last accepted move";
}

TEST(WaterfillDualBound, BoundsTheExhaustiveOptimumAtAnyPrices) {
  // Weak duality holds at every nonnegative price vector, not only at a
  // climb's exit prices: zero prices, prices below, near and above the
  // water levels, and one price per resource drawn independently.
  int checked = 0;
  for (int c = 3; c < kDifferentialCases; ++c) {
    const DifferentialCase d = differential_case(c);
    if (d.f.ctx.users.size() > 10) continue;
    SlotCache cache;
    cache.build(d.f.ctx);
    const double optimum =
        waterfill_solve_exhaustive(d.f.ctx, cache, d.gt).objective;
    util::Rng rng(9301 + static_cast<std::uint64_t>(c));
    for (int draw = 0; draw < 8; ++draw) {
      std::vector<double> prices;
      for (std::size_t r = 0; r <= d.gt.size(); ++r) {
        prices.push_back(draw == 0 ? 0.0 : std::exp(rng.uniform(-12.0, 3.0)));
      }
      DualBoundTable table;
      table.reset(d.f.ctx, cache, d.gt, prices);
      const SlotDualBound bound = table.at(d.f.ctx, cache, 0, d.gt[0]);
      EXPECT_LE(optimum, bound.value + bound.margin)
          << "case " << c << ", draw " << draw;
      EXPECT_GT(bound.margin, 0.0) << "case " << c;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(WaterfillDualBound, TableMatchesTheReferenceBoundBitwise) {
  // The table takes each user's Lagrangian maxima once per price vector and
  // re-takes only the users of the FBS whose count a trial changes, so its
  // value and margin must be the reference's, which takes every user from
  // scratch, bit for bit: on every seeded case, for every FBS, at zero
  // prices, at 1e-12 (a level of 0), at random prices and at a climb's
  // exit prices, and at several trial counts, zero and the base's included.
  int checked = 0;
  for (int c = 0; c < kDifferentialCases; ++c) {
    const DifferentialCase d = differential_case(c);
    SlotCache cache;
    cache.build(d.f.ctx);
    const std::size_t n = d.gt.size() + 1;
    std::vector<std::vector<double>> price_sets = {
        std::vector<double>(n, 0.0), std::vector<double>(n, 1e-12)};
    util::Rng rng(9401 + static_cast<std::uint64_t>(c));
    std::vector<double> drawn;
    for (std::size_t r = 0; r < n; ++r) {
      drawn.push_back(std::exp(rng.uniform(-12.0, 3.0)));
    }
    price_sets.push_back(drawn);
    std::vector<bool> use_mbs;
    std::vector<double> exit_prices;
    (void)waterfill_solve_objective(d.f.ctx, cache, d.gt, use_mbs,
                                    exit_prices);
    price_sets.push_back(exit_prices);
    DualBoundTable table;
    for (const std::vector<double>& prices : price_sets) {
      table.reset(d.f.ctx, cache, d.gt, prices);
      for (std::size_t i = 0; i < d.gt.size(); ++i) {
        for (const double g : {d.gt[i], 0.0, d.gt[i] + d.f.ctx.posterior[0],
                               rng.uniform(0.0, 4.0)}) {
          std::vector<double> trial = d.gt;
          trial[i] = g;
          const SlotDualBound want =
              test::waterfill_dual_bound_reference(d.f.ctx, cache, trial,
                                                   prices);
          const SlotDualBound got = table.at(d.f.ctx, cache, i, g);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
                    std::bit_cast<std::uint64_t>(want.value))
              << "case " << c << ", FBS " << i << ", g " << g;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.margin),
                    std::bit_cast<std::uint64_t>(want.margin))
              << "case " << c << ", FBS " << i << ", g " << g;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

#if FEMTOCR_DCHECK_IS_ON()
TEST(WaterfillDifferential, DcheckCatchesAMemoHitFromAnotherContext) {
  // Scope discipline is what keeps a memo entry inside its context. Hold
  // one scope across two same-shaped contexts (a misuse no library path
  // makes): the second solve hits entries of the first, and the DCHECK
  // re-solve of every hit must refuse them.
  util::Rng rng(9101);
  const auto a = test::random_context(rng, 6, 2, 3);
  const auto b = test::random_context(rng, 6, 2, 3);
  const std::vector<double> gt = {1.0, 2.0};
  SlotCache cache_a;
  cache_a.build(a.ctx);
  SlotCache cache_b;
  cache_b.build(b.ctx);
  const MemoScope scope;
  (void)waterfill_solve(a.ctx, cache_a, gt);
  EXPECT_THROW((void)waterfill_solve(b.ctx, cache_b, gt), std::logic_error);
}
#endif

}  // namespace
}  // namespace femtocr::core
