// Shared fixtures for core-layer tests: deterministic random problem
// instances (SlotContext) over configurable interference graphs.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "core/types.h"
#include "core/waterfill.h"
#include "net/interference_graph.h"
#include "util/mathx.h"
#include "util/rng.h"

namespace femtocr::test {

/// Owns the interference graph a SlotContext points at.
struct ContextFixture {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;
};

/// Builds a random but well-conditioned slot problem: `num_users` users
/// spread round-robin over `num_fbs` FBSs, PSNR states in [28, 42], success
/// probabilities in [0.55, 0.98], rate constants matching the library's
/// operating point (beta*B/T ~ 0.45-0.7), and `num_channels` available
/// channels with posteriors in [0.4, 1.0].
inline ContextFixture random_context(
    util::Rng& rng, std::size_t num_users, std::size_t num_fbs,
    std::size_t num_channels,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges = {}) {
  ContextFixture f;
  f.graph = std::make_unique<net::InterferenceGraph>(
      net::InterferenceGraph::from_edges(num_fbs, edges));
  f.ctx.num_fbs = num_fbs;
  f.ctx.graph = f.graph.get();
  f.ctx.sinr_threshold = 5.0;
  for (std::size_t m = 0; m < num_channels; ++m) {
    f.ctx.available.push_back(m);
    f.ctx.posterior.push_back(rng.uniform(0.4, 1.0));
  }
  for (std::size_t j = 0; j < num_users; ++j) {
    core::UserState u;
    u.psnr = rng.uniform(28.0, 42.0);
    u.success_mbs = rng.uniform(0.55, 0.98);
    u.success_fbs = rng.uniform(0.55, 0.98);
    u.rate_mbs = rng.uniform(0.45, 0.7);
    u.rate_fbs = rng.uniform(0.45, 0.7);
    u.fbs = j % num_fbs;
    u.sinr_mbs = rng.exponential(20.0);
    u.sinr_fbs = rng.exponential(40.0);
    f.ctx.users.push_back(u);
  }
  return f;
}

/// A slot cache built for `ctx`, for the solvers' cached entry points
/// (core/slot_cache.h). Building it validates the context, as the solvers
/// rely on; a temporary lives to the end of the call it is passed to.
inline core::SlotCache cache_for(const core::SlotContext& ctx) {
  core::SlotCache cache;
  cache.build(ctx);
  return cache;
}

/// One resource's Eq. 14 shares at the positive water level `lambda`,
/// rho_k = clamp(S_k / lambda - W_k / R_k, 0, cap), with the library's
/// operand expressions (a member with R_k = 0 or S_k = 0 takes none).
/// Writes them to `rho_out` and returns their sum in member order, as the
/// level solver adds them.
inline double shares_at_level(const std::vector<double>& psnr,
                              const std::vector<double>& rates,
                              const std::vector<double>& successes,
                              double lambda, std::vector<double>& rho_out) {
  rho_out.assign(psnr.size(), 0.0);
  double sum = 0.0;
  for (std::size_t k = 0; k < psnr.size(); ++k) {
    if (rates[k] > 0.0 && successes[k] > 0.0) {
      rho_out[k] = util::clamp(successes[k] / lambda - psnr[k] / rates[k],
                               0.0, core::kRhoCap);
    }
    sum += rho_out[k];
  }
  return sum;
}

/// The reference level solver, oracle of the water-level tests: the
/// 100-step bisection the analytic breakpoint sweep replaced, on
/// core::waterfill_shares's bracket [1e-12, max S R / W] and with its share
/// expressions (shares_at_level). Returns 0 where nobody can use the
/// resource or the budget is slack at the bracket's low end, else the
/// bisection's upper end, and writes the shares at that level. Checks no
/// arguments and counts nothing.
inline double waterfill_shares_reference(const std::vector<double>& psnr,
                                         const std::vector<double>& rates,
                                         const std::vector<double>& successes,
                                         double budget,
                                         std::vector<double>& rho_out) {
  double lo = 1e-12;
  double hi = 0.0;
  for (std::size_t k = 0; k < psnr.size(); ++k) {
    if (rates[k] > 0.0) hi = std::max(hi, successes[k] * rates[k] / psnr[k]);
  }
  rho_out.assign(psnr.size(), 0.0);
  if (hi <= 0.0 ||
      shares_at_level(psnr, rates, successes, lo, rho_out) <= budget) {
    return 0.0;
  }
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (shares_at_level(psnr, rates, successes, mid, rho_out) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  shares_at_level(psnr, rates, successes, hi, rho_out);
  return hi;
}

/// The reference duality bound, oracle of core::DualBoundTable: weak
/// duality's D at the expected channel counts `gt` and the resource prices
/// `prices` (index 0 = MBS, i + 1 = FBS i), and its rounding margin,
///   D = Σ_r μ_r (1 + 1e-9 + κ) + Σ_j max(v_j^MBS(μ_0), v_j^FBS(μ_i)),
///   m = 16 (K + N + 4) ε (Λ + P + 1),
/// with κ = 4 (K + 4) ε, P the first sum, and Λ = Σ_j |log W_j| +
/// max(S_0 R_0, S_i g_i R_i) / W_j. Every user is taken from scratch at
/// `gt`, with the library's share, term and log expressions, and both sums
/// run in user order (docs/DEVELOPING.md, "The greedy scan's duality
/// bound").
inline core::SlotDualBound waterfill_dual_bound_reference(
    const core::SlotContext& ctx, const core::SlotCache& cache,
    const std::vector<double>& gt, const std::vector<double>& prices) {
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const std::size_t K = cache.num_users;
  const double budget = 1.0 + 1e-9 + 4.0 * static_cast<double>(K + 4) * eps;
  double priced = 0.0;
  for (const double mu : prices) priced += mu * budget;
  // User j's Lagrangian maximum on one resource at the price mu: its term
  // at the Eq. 14 share, less mu times that share.
  const auto lagrangian_max = [&](std::size_t j, bool mbs, double g,
                                  double mu) {
    const core::UserState& u = ctx.users[j];
    double success = u.success_mbs;
    double pr = cache.pr_mbs[j];
    bool usable = cache.can_mbs[j] != 0;
    if (!mbs) {
      const double rate = u.rate_fbs * g;
      usable = rate > 0.0 && u.success_fbs > 0.0;
      success = u.success_fbs;
      pr = usable ? u.psnr / rate : 0.0;
    }
    const double rho =
        usable ? util::clamp(success / mu - pr, 0.0, core::kRhoCap) : 0.0;
    const double rate = mbs ? u.rate_mbs : u.rate_fbs;
    const double a =
        rho <= 0.0 ? cache.log_psnr[j] : std::log(u.psnr + rho * g * rate);
    const double term = mbs ? u.success_mbs * a + cache.loss_mbs[j]
                            : u.success_fbs * a + cache.loss_fbs[j];
    return term - mu * rho;
  };
  double users = 0.0;
  double scale = 1.0;
  for (std::size_t j = 0; j < K; ++j) {
    const core::UserState& u = ctx.users[j];
    const double g = gt[u.fbs];
    users += std::max(lagrangian_max(j, true, 1.0, prices[0]),
                      lagrangian_max(j, false, g, prices[u.fbs + 1]));
    const double rate = u.rate_fbs * g;
    const double top = rate > 0.0 ? u.success_fbs * rate / u.psnr : 0.0;
    scale += std::fabs(cache.log_psnr[j]) + std::max(cache.hi_mbs[j], top);
  }
  const double unit = static_cast<double>(K + cache.num_fbs + 4) * eps;
  return {priced + users, 16.0 * unit * (scale + priced)};
}

}  // namespace femtocr::test
