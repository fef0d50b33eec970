// Shared types of the per-slot resource-allocation problem
// (paper Section IV, problems (12), (17), (21)).
//
// A SlotContext is everything the allocator may observe at the start of a
// slot: per-user video state W^{t-1}_j, link success probabilities, PSNR
// rate constants, the available channel set A(t) with availability
// posteriors, and the FBS interference graph. A SlotAllocation is the
// decision: the base-station choice p_j/q_j (binary at the optimum by
// Theorem 1), the slot shares rho, and — in the interfering case — the
// FBS-channel assignment c with its expected channel counts G^t_i.
#pragma once

#include <cstddef>
#include <vector>

#include "net/interference_graph.h"
#include "util/units.h"

namespace femtocr::core {

/// Per-user observable state at the start of a slot.
struct UserState {
  double psnr = 30.0;        ///< W^{t-1}_j in dB (always > 0)
  double success_mbs = 0.9;  ///< \bar{P}^F_{0,j} = 1 - P^F_{0,j}
  double success_fbs = 0.9;  ///< \bar{P}^F_{i,j} for the associated FBS i
  double rate_mbs = 0.5;     ///< R_{0,j} = beta_j * B0 / T  (dB per full slot)
  double rate_fbs = 0.5;     ///< R_{i,j} = beta_j * B1 / T  (dB per channel-slot)
  std::size_t fbs = 0;       ///< associated FBS index (0-based)
  // Realized block-fading SINRs for this slot. The proposed scheme ignores
  // them by design (the stochastic program optimizes an expectation); the
  // heuristics use them for "channel condition" comparisons and multiuser
  // diversity, which is information they legitimately have under block
  // fading (the gain is constant within the slot and estimated at its start).
  double sinr_mbs = 0.0;
  double sinr_fbs = 0.0;

  // Typed entry point at the phy -> core boundary. The solver math keeps
  // reading the raw doubles above (Eq. 12-23 treat them as plain reals),
  // but the link model hands over strong probabilities, so a dB value can't
  // land in a success field without an explicit, reviewable .value().
  void set_link_success(util::Prob mbs, util::Prob fbs) {
    success_mbs = mbs.value();
    success_fbs = fbs.value();
  }
};

/// Everything observable about one slot.
struct SlotContext {
  std::vector<UserState> users;
  std::size_t num_fbs = 1;
  std::vector<std::size_t> available;   ///< A(t): licensed channel indices
  std::vector<double> posterior;        ///< P^A_m aligned with `available`
  const net::InterferenceGraph* graph = nullptr;  ///< must outlive the context
  double sinr_threshold = 5.0;          ///< H, for heuristics' comparisons
  /// Fault-injection hook (sim/faults.h): when nonzero, schemes running an
  /// iterative solver must finish within this many iterations this slot —
  /// the "solve must land inside the slot" budget squeeze. 0 = no cap.
  std::size_t solver_iteration_cap = 0;

  /// G_t when one FBS may use every available channel:
  /// sum over A(t) of P^A_m.
  double total_expected_channels() const;

  /// Users associated with FBS i (computed on demand; contexts are small).
  std::vector<std::size_t> users_of(std::size_t fbs) const;

  /// Validates invariants (positive PSNRs, aligned vectors, graph size).
  void validate() const;
};

/// A complete per-slot decision.
struct SlotAllocation {
  std::vector<bool> use_mbs;    ///< p_j == 1 (Theorem 1: binary optimum)
  std::vector<double> rho_mbs;  ///< rho^t_{0,j}
  std::vector<double> rho_fbs;  ///< rho^t_{i,j} toward the associated FBS

  /// Channel ids (values from SlotContext::available) assigned per FBS; in
  /// the non-interfering case every FBS holds the whole available set.
  std::vector<std::vector<std::size_t>> channels;
  /// G^t_i = sum of posteriors of the channels assigned to FBS i.
  std::vector<double> expected_channels;

  /// Optional per-user overrides of the effective expected channel count:
  /// Heuristic 1's uncoordinated access discounts G_t by the cell's
  /// contention (1 + degree). Empty means "use
  /// expected_channels[user.fbs]".
  std::vector<double> user_expected_channels;
  /// Optional: the single licensed channel a user is tuned to (kNoChannel
  /// for OFDM-aggregating schemes). Lets realized accounting credit
  /// exactly that channel's idle/busy outcome.
  static constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);
  std::vector<std::size_t> user_channel;

  /// Effective expected channel count for user j under this allocation.
  double effective_channels(const SlotContext& ctx, std::size_t j) const {
    if (!user_expected_channels.empty()) return user_expected_channels[j];
    return expected_channels[ctx.users[j].fbs];
  }

  double objective = 0.0;      ///< Q of this allocation under Eq. (21)
  double upper_bound = 0.0;    ///< Eq. (23) bound (== objective when exact)
  /// Q(empty): optimal objective with no licensed channels — the baseline
  /// the incremental bounds measure gains against (filled by the greedy;
  /// equals `objective` when the allocation is exact).
  double objective_empty = 0.0;
  std::size_t dual_iterations = 0;  ///< subgradient iterations spent

  /// Zero-initialized allocation shaped for `ctx`.
  static SlotAllocation zeros(const SlotContext& ctx);

  /// Feasibility under problem (21): rho ranges and per-resource sums,
  /// exclusive BS choice, interference constraints on `channels`.
  bool feasible(const SlotContext& ctx, double tol = 1e-6) const;
};

}  // namespace femtocr::core
