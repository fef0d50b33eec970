// femtocr:inner-loop-tu — Table III evaluates Q(c) for every surviving
// candidate pair each round; the scan runs through scratch buffers, with
// no per-candidate heap allocation.
#include "core/greedy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

GreedyResult greedy_allocate(const SlotContext& ctx, const SlotCache& cache) {
  static util::Counter& c_allocs =
      util::metrics().counter("core.greedy.allocations");
  static util::Counter& c_cand_evals =
      util::metrics().counter("core.greedy.candidate_evals");
  static util::Counter& c_cand_pruned =
      util::metrics().counter("core.greedy.candidates_pruned");
  static util::Histogram& h_gap =
      util::metrics().histogram("core.greedy.bound_gap");
  static util::TimerStat& t_alloc =
      util::metrics().timer("core.greedy.allocate");
  const util::Scope scope(t_alloc);
  c_allocs.add();

  // The cache's build() validated the context; re-check only what is not
  // covered by it.
  FEMTOCR_CHECK(
      cache.num_users == ctx.users.size() && cache.num_fbs == ctx.num_fbs,
      "slot cache does not match the context");
  for (const double p : ctx.posterior) {
    FEMTOCR_CHECK_PROB(p, "channel availability posterior out of range");
  }
  GreedyResult result;

  // One memo scope spans the call, its final allocation included, so every
  // climb of every round finds what the call already solved. It must start
  // empty for the counters to be a function of the work.
  FEMTOCR_DCHECK(!slot_scratch().memo.scoped,
                 "greedy_allocate's memo scope must be the thread's outermost");
  const MemoScope memo;

  // Candidate pairs (FBS, position into ctx.available), FBS-major. FBSs
  // without users are skipped: any channel given to them contributes
  // Delta = 0.
  GreedyScratch& gs = slot_scratch().greedy;
  gs.candidates.clear();
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) {
    if (cache.fbs_has_users[i] == 0) continue;
    for (std::size_t a = 0; a < ctx.available.size(); ++a) {
      gs.candidates.emplace_back(i, a);
    }
  }

  const std::size_t n_fbs = ctx.num_fbs;
  const std::size_t n_prices = n_fbs + 1;
  gs.gt.assign(n_fbs, 0.0);
  std::vector<std::vector<std::size_t>> channels(n_fbs);  // lint-allow: no-hot-loop-alloc (once per slot)
  // Q(c) of the current allocation, starting from the empty one. The rounds
  // compare only Q values, so the allocation is materialized once, after
  // the last round, from gs.best_use_mbs: the last winner's assignment, or
  // the empty-channel climb's. That climb's exit prices are round 1's
  // carried prices.
  double q = waterfill_solve_objective(ctx, cache, gs.gt, gs.best_use_mbs,
                                       gs.carried);
  result.q_empty = q;

  while (!gs.candidates.empty()) {
    // Table III step 3: argmax over remaining pairs of Q(c + e) - Q(c), the
    // first strict maximum in candidate order. Two candidates of one FBS
    // whose trial g_i has the same bits have the same trial vector, hence
    // the same Q, so the higher index cannot be that maximum: only the
    // lowest index of each (FBS, bits of g_i) is distinct.
    const std::size_t n_candidates = gs.candidates.size();
    c_cand_evals.add(n_candidates);
    gs.order.clear();
    for (std::size_t k = 0; k < n_candidates; ++k) {
      const auto [i, a] = gs.candidates[k];
      gs.order.push_back({gs.gt[i] + ctx.posterior[a], 0.0, k});
    }
    const auto fbs_of = [&](const GreedyScratch::Trial& t) {
      return gs.candidates[t.candidate].first;
    };
    std::sort(gs.order.begin(), gs.order.end(),
              [&](const auto& x, const auto& y) {
                if (fbs_of(x) != fbs_of(y)) return fbs_of(x) < fbs_of(y);
                if (x.g != y.g) return x.g > y.g;
                return x.candidate < y.candidate;
              });
    const auto repeats = [&](const auto& x, const auto& y) {
      return fbs_of(x) == fbs_of(y) && std::bit_cast<std::uint64_t>(x.g) ==
                                           std::bit_cast<std::uint64_t>(y.g);
    };
    gs.order.erase(std::unique(gs.order.begin(), gs.order.end(), repeats),
                   gs.order.end());

    // Weak duality at the exit prices of the previous winner's climb bounds
    // every distinct candidate before any climb (docs/DEVELOPING.md, "The
    // greedy scan's duality bound"). The scan climbs in descending bound,
    // ties in candidate order, and keeps the largest Q with ties to the
    // lowest index: the first strict maximum in candidate order.
    gs.at_carried.reset(ctx, cache, gs.gt, gs.carried);
    for (GreedyScratch::Trial& t : gs.order) {
      const SlotDualBound b = gs.at_carried.at(ctx, cache, fbs_of(t), t.g);
      t.bound = b.value + b.margin;
    }
    std::sort(gs.order.begin(), gs.order.end(),
              [](const auto& x, const auto& y) {
                if (x.bound != y.bound) return x.bound > y.bound;
                return x.candidate < y.candidate;
              });

    // The round's best so far, and each FBS's; a bound table is taken at a
    // best climb's prices when a candidate first needs it.
    const std::size_t none = n_candidates;
    double best_q = -std::numeric_limits<double>::infinity();
    std::size_t best = none;
    gs.fbs_best.assign(n_fbs, -std::numeric_limits<double>::infinity());
    gs.fbs_best_candidate.assign(n_fbs, none);
    gs.fbs_prices.resize(n_fbs * n_prices);
    std::size_t best_table = none;
    std::size_t fbs_table = none;
    std::size_t pruned = 0;
    gs.trial.assign(gs.gt.begin(), gs.gt.end());
    for (const GreedyScratch::Trial& t : gs.order) {
      const std::size_t i = fbs_of(t);
      // The candidate cannot win if its bound plus margin is below the best
      // Q so far at any of three prices: the carried ones, the best
      // climb's, and the best climb's on its FBS.
      double at_best = std::numeric_limits<double>::infinity();
      double at_fbs = std::numeric_limits<double>::infinity();
      if (best != none && !(t.bound < best_q)) {
        if (best_table != best) {
          gs.at_best.reset(ctx, cache, gs.gt, gs.best_prices);
          best_table = best;
        }
        const SlotDualBound b = gs.at_best.at(ctx, cache, i, t.g);
        at_best = b.value + b.margin;
        const std::size_t own = gs.fbs_best_candidate[i];
        if (!(at_best < best_q) && own != none && own != best) {
          if (fbs_table != own) {
            gs.at_fbs.reset(ctx, cache, gs.gt,
                            std::span<const double>(gs.fbs_prices)
                                .subspan(i * n_prices, n_prices));
            fbs_table = own;
          }
          const SlotDualBound bf = gs.at_fbs.at(ctx, cache, i, t.g);
          at_fbs = bf.value + bf.margin;
        }
      }
      gs.trial[i] = t.g;
      if (t.bound < best_q || at_best < best_q || at_fbs < best_q) {
        ++pruned;
#if FEMTOCR_DCHECK_IS_ON()
        FEMTOCR_DCHECK(
            waterfill_check_objective(ctx, cache, gs.trial) < best_q,
            "the greedy scan's duality bound pruned a candidate that wins");
#endif
        gs.trial[i] = gs.gt[i];
        continue;
      }
      const double cq = waterfill_solve_objective(ctx, cache, gs.trial,
                                                  gs.use_mbs, gs.prices);
      gs.trial[i] = gs.gt[i];
      FEMTOCR_DCHECK(cq <= t.bound && cq <= at_best && cq <= at_fbs,
                     "a climb beat the greedy scan's duality bound");
      if (cq > gs.fbs_best[i]) {
        gs.fbs_best[i] = cq;
        gs.fbs_best_candidate[i] = t.candidate;
        std::copy(gs.prices.begin(), gs.prices.end(),
                  gs.fbs_prices.begin() +
                      static_cast<std::ptrdiff_t>(i * n_prices));
      }
      if (cq > best_q || (cq == best_q && t.candidate < best)) {
        best_q = cq;
        best = t.candidate;
        gs.best_use_mbs.swap(gs.use_mbs);
        gs.best_prices.swap(gs.prices);
      }
    }
    c_cand_pruned.add(pruned);
    FEMTOCR_CHECK_FINITE(best_q, "candidate objective must be finite");

    const auto [bi, ba] = gs.candidates[best];
    GreedyStep step;
    step.fbs = bi;
    step.channel = ctx.available[ba];
    step.delta = best_q - q;
    step.degree = ctx.graph->degree(bi);
    result.steps.push_back(step);

    // The winner's trial g_i, gt_i + posterior, is the one its climb ran
    // at, and its exit prices bound the next round.
    gs.gt[bi] += ctx.posterior[ba];
    channels[bi].push_back(ctx.available[ba]);
    q = best_q;
    gs.carried.swap(gs.best_prices);

    // Table III steps 5–6: drop the chosen pair and every conflicting pair
    // R(i') x {m'}.
    const auto& nbrs = ctx.graph->neighbors(bi);
    std::erase_if(gs.candidates, [&](const auto& cand) {
      if (cand.second != ba) return false;
      if (cand.first == bi) return true;
      return std::find(nbrs.begin(), nbrs.end(), cand.first) != nbrs.end();
    });
  }

  // Materialize the last winner, or the empty-channel solve, from the
  // assignment its climb kept: re-solving its levels is deterministic, and
  // they are memo hits, so this is the bit-exact allocation behind q.
  SlotAllocation current = waterfill_evaluate(ctx, cache, gs.gt,
                                              gs.best_use_mbs);
  FEMTOCR_DCHECK(std::bit_cast<std::uint64_t>(current.objective) ==
                     std::bit_cast<std::uint64_t>(q),
                 "the materialized allocation differs from its climb");
  current.channels = std::move(channels);
  result.d_bar = delta_weighted_degree(result.steps);
  result.bound_tight =
      upper_bound_tight(current.objective, result.q_empty, result.d_bar);
  result.bound_dmax = upper_bound_dmax(current.objective, result.q_empty,
                                       ctx.graph->max_degree());
  current.upper_bound = result.bound_tight;
  current.objective_empty = result.q_empty;

  // Theorem 2 exit contracts, per slot. The greedy value sits between the
  // channel-free baseline and both upper bounds, and the Dbar-weighted
  // bound never exceeds the Dmax one (Dbar <= Dmax by construction); i.e.
  // Q_greedy - Q_empty >= (Q_ub - Q_empty) / (1 + Dmax) holds exactly.
  // The ordering slack scales with the operands: the log-sum objectives grow
  // with the scenario, so an absolute 1e-9 would misfire on large instances.
  const auto slack = [](double a, double b) {
    return 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
  };
  FEMTOCR_CHECK_FINITE(current.objective, "greedy objective must be finite");
  FEMTOCR_CHECK_GE(current.objective,
                   result.q_empty - slack(current.objective, result.q_empty),
                   "adding licensed channels must never hurt");
  FEMTOCR_CHECK_GE(result.bound_tight,
                   current.objective -
                       slack(result.bound_tight, current.objective),
                   "Eq. (23) bound must dominate the greedy value");
  FEMTOCR_CHECK_GE(result.bound_dmax,
                   result.bound_tight -
                       slack(result.bound_dmax, result.bound_tight),
                   "Dmax bound must dominate the Dbar bound");
  FEMTOCR_DCHECK_GE(result.d_bar, 0.0, "Dbar is a convex combination");
  FEMTOCR_DCHECK_LE(
      result.d_bar, static_cast<double>(ctx.graph->max_degree()) + 1e-12,
      "Dbar is a convex combination of degrees");

  // Eq. (23) bound gap for this slot (clamped: the contract above already
  // pinned it nonnegative up to rounding slack).
  h_gap.observe(std::max(0.0, result.bound_tight - current.objective));

  result.allocation = std::move(current);
  return result;
}

}  // namespace femtocr::core
