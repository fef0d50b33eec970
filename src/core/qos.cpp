#include "core/qos.h"

#include <algorithm>
#include <cmath>

#include "core/objective.h"
#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "core/waterfill.h"
#include "util/check.h"
#include "util/mathx.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

QosPlan qos_solve(const SlotContext& ctx, const std::vector<double>& gt_per_fbs,
                  const std::vector<double>& min_psnr,
                  std::size_t slots_remaining) {
  static util::TimerStat& t_solve = util::metrics().timer("core.qos.solve");
  const util::Scope scope(t_solve);
  SlotCache cache;
  cache.build(ctx);  // validates the context
  FEMTOCR_CHECK(min_psnr.size() == ctx.users.size(),
                "need one quality floor per user");
  FEMTOCR_CHECK(slots_remaining > 0, "need at least the current slot");

  QosPlan plan;
  // Assignment from the unconstrained optimum.
  SlotAllocation base = waterfill_solve(ctx, cache, gt_per_fbs);

  // Per-user floor share on the assigned base station: spread the deficit
  // over the remaining slots and convert to a share via the expected
  // delivery rate S * R_eff. If the assigned base station cannot carry the
  // per-slot demand even with the whole slot while the other side is
  // faster, the floor overrides the log-sum-optimal attachment — a floor
  // that is unreachable on the cheap link is worthless.
  const std::size_t K = ctx.users.size();
  plan.floor_shares.assign(K, 0.0);
  for (std::size_t j = 0; j < K; ++j) {
    const UserState& u = ctx.users[j];
    const double deficit = util::pos(min_psnr[j] - u.psnr);
    if (deficit <= 0.0) continue;
    const double per_slot = deficit / static_cast<double>(slots_remaining);
    const double rate_mbs = u.success_mbs * u.rate_mbs;
    const double rate_fbs = u.success_fbs * u.rate_fbs * gt_per_fbs[u.fbs];
    double expected_rate = base.use_mbs[j] ? rate_mbs : rate_fbs;
    const double other_rate = base.use_mbs[j] ? rate_fbs : rate_mbs;
    if (per_slot > expected_rate && other_rate > expected_rate) {
      base.use_mbs[j] = !base.use_mbs[j];
      expected_rate = other_rate;
    }
    if (expected_rate <= 0.0) {
      // Cannot make progress on either resource; the floor is unmeetable
      // this slot (plan stays best-effort).
      plan.floors_met = false;
      continue;
    }
    if (per_slot > expected_rate) plan.floors_met = false;  // capped at 1
    plan.floor_shares[j] = std::min(per_slot / expected_rate, kRhoCap);
  }

  // Scale floors down where a slot budget is exceeded (best effort).
  double floor_mbs = 0.0;
  std::vector<double> floor_fbs(ctx.num_fbs, 0.0);
  for (std::size_t j = 0; j < K; ++j) {
    (base.use_mbs[j] ? floor_mbs : floor_fbs[ctx.users[j].fbs]) +=
        plan.floor_shares[j];
  }
  auto scale_if_needed = [&](double total, auto member_of) {
    if (total <= 1.0) return;
    plan.floors_met = false;
    for (std::size_t j = 0; j < K; ++j) {
      if (member_of(j)) plan.floor_shares[j] /= total;
    }
  };
  scale_if_needed(floor_mbs, [&](std::size_t j) { return base.use_mbs[j]; });
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) {
    scale_if_needed(floor_fbs[i], [&](std::size_t j) {
      return !base.use_mbs[j] && ctx.users[j].fbs == i;
    });
  }

  // Allocate the residual budget proportionally fair, per resource.
  SlotAllocation alloc = SlotAllocation::zeros(ctx);
  alloc.use_mbs = base.use_mbs;
  alloc.expected_channels = gt_per_fbs;
  alloc.channels = base.channels;

  // The residual budget above the floors: maximize
  // sum_j S_j log(W_j + (floor_j + rho'_j) R_j) with sum rho' <= budget,
  // which is plain water-filling from the floor-advanced states.
  auto fill_resource = [&](bool mbs_side, std::size_t fbs_index) {
    std::vector<std::size_t> users;
    std::vector<double> advanced, rates, successes, floors;
    double floor_total = 0.0;
    for (std::size_t j = 0; j < K; ++j) {
      const UserState& u = ctx.users[j];
      const bool member = mbs_side ? base.use_mbs[j]
                                   : (!base.use_mbs[j] && u.fbs == fbs_index);
      if (!member) continue;
      const double rate =
          mbs_side ? u.rate_mbs : u.rate_fbs * gt_per_fbs[fbs_index];
      users.push_back(j);
      advanced.push_back(u.psnr + plan.floor_shares[j] * rate);
      rates.push_back(rate);
      successes.push_back(mbs_side ? u.success_mbs : u.success_fbs);
      floors.push_back(plan.floor_shares[j]);
      floor_total += plan.floor_shares[j];
    }
    const double budget = 1.0 - floor_total;
    std::vector<double> extra(users.size(), 0.0);
    if (!users.empty() && budget > 0.0) {
      waterfill_shares(advanced, rates, successes, budget, extra);
    }
    for (std::size_t k = 0; k < users.size(); ++k) {
      const double share =
          std::min(floors[k] + extra[k], kRhoCap);
      (mbs_side ? alloc.rho_mbs[users[k]] : alloc.rho_fbs[users[k]]) = share;
    }
  };
  fill_resource(true, 0);
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) fill_resource(false, i);

  alloc.objective = slot_objective(ctx, alloc);
  alloc.upper_bound = alloc.objective;
  alloc.objective_empty = alloc.objective;
  plan.allocation = std::move(alloc);
  return plan;
}

QosProposedScheme::QosProposedScheme(double min_psnr,
                                     std::size_t gop_deadline)
    : uniform_floor_(min_psnr), gop_deadline_(gop_deadline) {
  FEMTOCR_CHECK(gop_deadline_ > 0, "GOP deadline must be positive");
}

QosProposedScheme::QosProposedScheme(std::vector<double> min_psnr,
                                     std::size_t gop_deadline)
    : min_psnr_(std::move(min_psnr)), gop_deadline_(gop_deadline) {
  FEMTOCR_CHECK(gop_deadline_ > 0, "GOP deadline must be positive");
  FEMTOCR_CHECK(!min_psnr_.empty(), "per-user floors must not be empty");
}

SlotAllocation QosProposedScheme::allocate(const SlotContext& ctx) {
  const std::size_t offset = slot_ % gop_deadline_;
  const std::size_t remaining = gop_deadline_ - offset;
  ++slot_;

  // Channel side as in the proposed scheme: full reuse when non-
  // interfering, greedy otherwise (reuse ProposedScheme for it, then
  // re-solve the shares with floors).
  ProposedScheme inner;
  const SlotAllocation channels = inner.allocate(ctx);

  const std::vector<double> floors =
      min_psnr_.empty() ? std::vector<double>(ctx.users.size(), uniform_floor_)
                        : min_psnr_;
  QosPlan plan =
      qos_solve(ctx, channels.expected_channels, floors, remaining);
  if (!plan.floors_met) ++scaled_;
  plan.allocation.channels = channels.channels;
  plan.allocation.upper_bound = channels.upper_bound;
  plan.allocation.objective_empty = channels.objective_empty;
  return plan.allocation;
}

}  // namespace femtocr::core
