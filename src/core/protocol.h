// Message-level simulation of the distributed algorithm
// (paper Section IV-A.3).
//
// The paper's algorithm is a protocol, not just math: during the sensing
// phase, each CR user solves its local subproblem (Table I steps 3-8) for
// the current prices and *transmits its shares to the MBS*; the MBS updates
// the dual prices (Eq. 16) and *broadcasts them*; repeat until convergence.
// This module runs that exchange with explicit message objects and per-node
// state — no node touches another's private state — so the distributed
// claim is demonstrated rather than assumed, and the signaling overhead
// (messages, broadcast bytes) can be measured. It is a message transport
// over solve_dual's arithmetic: users answer through solve_user, the MBS
// updates prices with solve_dual's price_step, and the final recovery uses
// the same project_to_budgets, so a converged exchange reproduces the
// in-process solve bit for bit (pinned by tests).
#pragma once

#include <cstddef>
#include <vector>

#include "core/dual_solver.h"
#include "core/types.h"

namespace femtocr::core::protocol {

/// Uplink: one user's subproblem solution for the current prices.
struct ShareReport {
  std::size_t user = 0;
  bool use_mbs = false;
  double rho_mbs = 0.0;
  double rho_fbs = 0.0;
};

/// Downlink: the MBS's price broadcast (lambda_0, lambda_1..lambda_N).
struct PriceBroadcast {
  std::size_t iteration = 0;
  std::vector<double> lambda;
};

/// A CR user: knows only its own UserState and its FBS's expected channel
/// count; responds to price broadcasts with share reports.
class UserAgent {
 public:
  UserAgent(std::size_t id, UserState state, double expected_channels);

  ShareReport on_broadcast(const PriceBroadcast& prices) const;

  std::size_t id() const { return id_; }

 private:
  std::size_t id_;
  UserState state_;
  double expected_channels_;
};

/// The MBS: collects share reports, updates prices by the projected
/// subgradient (Eq. 16/18/19, price_step), and decides termination by the
/// paper's price-movement rule.
class MbsAgent {
 public:
  MbsAgent(std::size_t num_fbs, DualOptions options);

  PriceBroadcast initial_broadcast() const;

  /// Consumes one full round of reports; returns the next broadcast.
  PriceBroadcast on_reports(const std::vector<ShareReport>& reports,
                            const std::vector<std::size_t>& user_fbs);

  bool converged() const { return converged_; }
  std::size_t iterations() const { return iteration_; }

 private:
  DualOptions options_;
  std::vector<double> lambda_;
  std::vector<double> sums_;  ///< per-round share sums (reused, not re-alloc'd)
  std::vector<double> next_;  ///< per-round price update target
  std::size_t iteration_ = 0;
  bool converged_ = false;
};

/// Statistics of one protocol run.
struct ProtocolResult {
  SlotAllocation allocation;
  /// Final broadcast prices [lambda_0..lambda_N]: the natural warm-start
  /// seed for the next slot's exchange (DualOptions::warm_start), exactly
  /// what ProposedScheme carries on the centralized path.
  std::vector<double> lambda;
  bool converged = false;
  std::size_t rounds = 0;
  std::size_t uplink_messages = 0;    ///< user -> MBS share reports
  std::size_t downlink_broadcasts = 0;  ///< MBS -> all price broadcasts
};

/// Runs the full exchange for one slot's problem. `gt_per_fbs` is the
/// expected channel count per FBS (as in solve_dual). The result's
/// allocation is recovered from the final prices and projected onto the
/// slot budgets, exactly like the centralized solver.
ProtocolResult run_protocol(const SlotContext& ctx,
                            const std::vector<double>& gt_per_fbs,
                            const DualOptions& options = {});

}  // namespace femtocr::core::protocol
