#include "core/protocol.h"

#include <utility>

#include "core/objective.h"
#include "core/subproblem.h"
#include "util/check.h"
#include "util/trace.h"

namespace femtocr::core::protocol {

UserAgent::UserAgent(std::size_t id, UserState state, double expected_channels)
    : id_(id), state_(state), expected_channels_(expected_channels) {
  FEMTOCR_CHECK(expected_channels >= 0.0,
                "expected channel count must be nonnegative");
}

ShareReport UserAgent::on_broadcast(const PriceBroadcast& prices) const {
  FEMTOCR_CHECK(state_.fbs + 1 < prices.lambda.size(),
                "price broadcast does not cover this user's FBS");
  const UserChoice c = solve_user(state_, prices.lambda[0],
                                  prices.lambda[state_.fbs + 1],
                                  expected_channels_);
  ShareReport report;
  report.user = id_;
  report.use_mbs = c.use_mbs;
  report.rho_mbs = c.rho_mbs;
  report.rho_fbs = c.rho_fbs;
  return report;
}

MbsAgent::MbsAgent(std::size_t num_fbs, DualOptions options)
    : options_(std::move(options)),
      lambda_(num_fbs + 1, options_.initial_lambda) {
  if (options_.warm_start) {
    FEMTOCR_CHECK(options_.warm_start->size() == lambda_.size(),
                  "warm start must provide one price per resource");
    lambda_ = *options_.warm_start;
  }
}

PriceBroadcast MbsAgent::initial_broadcast() const {
  return {0, lambda_};
}

PriceBroadcast MbsAgent::on_reports(const std::vector<ShareReport>& reports,
                                    const std::vector<std::size_t>& user_fbs) {
  FEMTOCR_CHECK(reports.size() == user_fbs.size(),
                "need the FBS association of every reporting user");
  sums_.assign(lambda_.size(), 0.0);
  for (std::size_t k = 0; k < reports.size(); ++k) {
    sums_[0] += reports[k].rho_mbs;
    sums_[user_fbs[k] + 1] += reports[k].rho_fbs;
  }
  next_.resize(lambda_.size());
  const double movement =
      price_step(lambda_, sums_, options_.step_size, next_);
  std::swap(lambda_, next_);
  ++iteration_;
  if (movement <= options_.tolerance) converged_ = true;
  return {iteration_, lambda_};
}

ProtocolResult run_protocol(const SlotContext& ctx,
                            const std::vector<double>& gt_per_fbs,
                            const DualOptions& options) {
  static util::TimerStat& t_run = util::metrics().timer("core.protocol.run");
  util::Scope scope(t_run);
  ctx.validate();
  FEMTOCR_CHECK(gt_per_fbs.size() == ctx.num_fbs,
                "need one expected channel count per FBS");

  // Stand up the nodes. Each user agent holds only its own state.
  std::vector<UserAgent> users;
  std::vector<std::size_t> user_fbs;
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    users.emplace_back(j, ctx.users[j], gt_per_fbs[ctx.users[j].fbs]);
    user_fbs.push_back(ctx.users[j].fbs);
  }
  MbsAgent mbs(ctx.num_fbs, options);

  ProtocolResult result;
  PriceBroadcast prices = mbs.initial_broadcast();
  ++result.downlink_broadcasts;
  std::vector<ShareReport> reports(users.size());
  for (std::size_t round = 0; round < options.max_iterations; ++round) {
    for (std::size_t j = 0; j < users.size(); ++j) {
      reports[j] = users[j].on_broadcast(prices);
      ++result.uplink_messages;
    }
    prices = mbs.on_reports(reports, user_fbs);
    ++result.downlink_broadcasts;
    ++result.rounds;
    if (mbs.converged()) break;
  }
  result.converged = mbs.converged();

  // Primal recovery at the final prices (one more local solve per user),
  // then projection onto the slot budgets.
  SlotAllocation alloc = SlotAllocation::zeros(ctx);
  alloc.expected_channels = gt_per_fbs;
  for (std::size_t j = 0; j < users.size(); ++j) {
    const ShareReport r = users[j].on_broadcast(prices);
    alloc.use_mbs[j] = r.use_mbs;
    alloc.rho_mbs[j] = r.rho_mbs;
    alloc.rho_fbs[j] = r.rho_fbs;
  }
  project_to_budgets(ctx, alloc);
  alloc.objective = slot_objective(ctx, alloc);
  alloc.upper_bound = alloc.objective;
  alloc.dual_iterations = result.rounds;
  result.allocation = std::move(alloc);
  result.lambda = std::move(prices.lambda);
  scope.arg("rounds", static_cast<double>(result.rounds));
  scope.arg("converged", result.converged ? 1.0 : 0.0);
  scope.arg("uplink_messages", static_cast<double>(result.uplink_messages));
  return result;
}

}  // namespace femtocr::core::protocol
