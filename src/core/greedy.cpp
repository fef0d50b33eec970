// femtocr:inner-loop-tu — Table III evaluates Q(c) for every surviving
// candidate pair each round; the scan runs through scratch buffers and
// parallel_for, with no per-candidate heap allocation.
#include "core/greedy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace femtocr::core {

GreedyResult greedy_allocate(const SlotContext& ctx, const SlotCache& cache) {
  static util::Counter& c_allocs =
      util::metrics().counter("core.greedy.allocations");
  static util::Counter& c_cand_evals =
      util::metrics().counter("core.greedy.candidate_evals");
  static util::Counter& c_tier_refused =
      util::metrics().counter("core.greedy.tier_refused");
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

  // Candidate pairs (FBS, position into ctx.available). FBSs without users
  // are skipped: any channel given to them contributes Delta = 0.
  GreedyScratch& gs = slot_scratch().greedy;
  gs.candidates.clear();
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) {
    if (cache.fbs_has_users[i] == 0) continue;
    for (std::size_t a = 0; a < ctx.available.size(); ++a) {
      gs.candidates.emplace_back(i, a);
    }
  }

  gs.gt.assign(ctx.num_fbs, 0.0);
  std::vector<std::vector<std::size_t>> channels(ctx.num_fbs);  // lint-allow: no-hot-loop-alloc (once per slot)
  // The current allocation's assignment and objective Q(c): the rounds
  // compare only Q values, so the allocation is materialized once, after
  // the last round. The assignment lives here, not in the thread's
  // GreedyScratch, whose per-thread fields a scan task run inline on this
  // thread overwrites.
  std::vector<bool> use_mbs;  // lint-allow: no-hot-loop-alloc (once per slot)
  double q = 0.0;

  // The call's memo tier (core/scratch.h) starts empty and is seeded with
  // the empty-channel solve, so round 1's tasks find its resources.
  gs.tier.table.reset();
  gs.tier.open(1);
  {
    const MemoScope memo(&gs.tier, 0);
    q = waterfill_solve_objective(ctx, cache, gs.gt, use_mbs, gs.prices);
  }
  c_tier_refused.add(gs.tier.merge());
  result.q_empty = q;

  while (!gs.candidates.empty()) {
    // Table III step 3: argmax over remaining pairs of Q(c + e) - Q(c).
    // Candidate solves are independent given the shared read-only cache, so
    // they fan out across the pool in scan tasks: the contiguous run of one
    // FBS's candidates (the list is FBS-major), solved in order under one
    // water-fill memo scope. Those climbs differ only in that FBS's g, so
    // they share most resource solves; the scope starts empty, so the work
    // — and every counter — does not depend on which worker runs the task.
    // A task climbs its candidates in descending trial g, ties in candidate
    // order, and keeps the largest Q with ties to the lowest candidate
    // index: the first strict maximum of the candidate-order scan. A
    // candidate whose trial g the one before it had has the same trial
    // vector, hence the same Q, and a higher index: the task skips it.
    // Before each later climb, weak duality at the exit prices of the
    // task's best climb so far bounds the candidate's Q; one whose bound
    // plus its rounding margin is below the best cannot win and is not
    // climbed (docs/DEVELOPING.md, "The greedy scan's duality bound"). Each
    // task keeps its best and that climb's assignment in its own slot of
    // gs.best (with its own thread-local scratch), and the fold below takes
    // the first strict maximum over the tasks in task order — the same
    // first strict maximum in candidate order the sequential scan produced.
    // Behind each task's memo sits the call's tier, frozen for the round: it
    // holds what the earlier rounds solved (only the winner's g changed
    // since), and each task stages its own solves in its slice, merged in
    // task order after the round.
    const std::size_t n_candidates = gs.candidates.size();
    c_cand_evals.add(n_candidates);
    gs.tasks.clear();
    for (std::size_t k = 0; k < n_candidates; ++k) {
      if (k == 0 || gs.candidates[k].first != gs.candidates[k - 1].first) {
        gs.tasks.push_back(k);
      }
    }
    gs.tasks.push_back(n_candidates);
    const std::size_t n_tasks = gs.tasks.size() - 1;
    gs.best.resize(n_tasks);
    gs.tier.open(n_tasks);
    util::parallel_for(n_tasks, [&](std::size_t t) {
      const MemoScope memo(&gs.tier, t);
      GreedyScratch& ws = slot_scratch().greedy;
      GreedyScratch::TaskBest& best = gs.best[t];
      best.objective = -std::numeric_limits<double>::infinity();
      best.candidate = gs.tasks[t];
      best.pruned = 0;
      const std::size_t i = gs.candidates[gs.tasks[t]].first;
      ws.order.clear();
      for (std::size_t k = gs.tasks[t]; k < gs.tasks[t + 1]; ++k) {
        ws.order.emplace_back(gs.gt[i] + ctx.posterior[gs.candidates[k].second],
                              k);
      }
      std::sort(ws.order.begin(), ws.order.end(),
                [](const auto& x, const auto& y) {
                  if (x.first != y.first) return x.first > y.first;
                  return x.second < y.second;
                });
      ws.trial.assign(gs.gt.begin(), gs.gt.end());
      for (std::size_t o = 0; o < ws.order.size(); ++o) {
        const auto [g, k] = ws.order[o];
        if (o > 0 && std::bit_cast<std::uint64_t>(g) ==
                         std::bit_cast<std::uint64_t>(ws.order[o - 1].first)) {
          continue;
        }
        ws.trial[i] = g;
        SlotDualBound bound;
        if (o > 0) {
          bound = waterfill_dual_bound(ctx, cache, ws.trial, ws.best_prices);
          if (bound.value + bound.margin < best.objective) {
            ++best.pruned;
            continue;
          }
        }
        const double q = waterfill_solve_objective(ctx, cache, ws.trial,
                                                   ws.use_mbs, ws.prices);
        FEMTOCR_DCHECK(o == 0 || q <= bound.value + bound.margin,
                       "a climb beat the greedy scan's duality bound");
        if (q > best.objective || (q == best.objective && k < best.candidate)) {
          best.objective = q;
          best.candidate = k;
          best.use_mbs = ws.use_mbs;
          ws.best_prices.swap(ws.prices);
        }
      }
    });
    c_tier_refused.add(gs.tier.merge());

    std::size_t win = 0;
    std::size_t pruned = gs.best[0].pruned;
    for (std::size_t t = 1; t < n_tasks; ++t) {
      if (gs.best[t].objective > gs.best[win].objective) win = t;
      pruned += gs.best[t].pruned;
    }
    c_cand_pruned.add(pruned);
    GreedyScratch::TaskBest& best = gs.best[win];
    FEMTOCR_CHECK_FINITE(best.objective, "candidate objective must be finite");

    const auto [bi, ba] = gs.candidates[best.candidate];
    GreedyStep step;
    step.fbs = bi;
    step.channel = ctx.available[ba];
    step.delta = best.objective - q;
    step.degree = ctx.graph->degree(bi);
    result.steps.push_back(step);

    // The winner's trial g_i, gt_i + posterior, is the one its climb ran at.
    gs.gt[bi] += ctx.posterior[ba];
    channels[bi].push_back(ctx.available[ba]);
    q = best.objective;
    use_mbs.swap(best.use_mbs);

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
  // assignment its climb kept: re-solving its levels is deterministic, so
  // this is the bit-exact allocation behind q.
  SlotAllocation current = waterfill_evaluate(ctx, cache, gs.gt, use_mbs);
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
