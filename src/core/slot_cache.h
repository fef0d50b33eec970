// Per-slot cache of slot-invariant solver inputs (the "hoist once, share
// with every dual iteration" half of the hot-path contract; the mutable
// half is core/scratch.h).
//
// Everything here is a pure function of the SlotContext: per-user log-PSNR
// tables, the loss-branch terms (1 - S) log W that every objective
// evaluation re-derived, the water-filling price offsets W / R, and the
// per-FBS user grouping that evaluate_assignment used to recompute by
// scanning all K users once per FBS. A scheme builds the cache once per
// slot (ProposedScheme keeps one as a member so the buffers never
// reallocate across slots) and hands it by const reference to solve_dual /
// waterfill_solve / greedy_allocate — including to parallel candidate
// evaluations, which share it read-only.
//
// Bitwise contract: every cached value is the result of the exact
// expression the solvers previously computed inline (same operands, same
// operation order), so the cache moves no bit of any solve. Figure outputs
// are pinned on this by the golden-regression tests. Each solver has one
// entry point, which takes the built cache; a one-shot caller builds one.
//
// Observability: builds are counted under core.slotcache.* (see
// docs/OBSERVABILITY.md for how to read them against sim.slots).
#pragma once

#include <cstddef>
#include <vector>

#include "core/types.h"

namespace femtocr::core {

/// Read-only per-slot tables shared by all dual iterations and all
/// candidate evaluations of one slot. Build with build(); reuse the object
/// across slots to keep its capacity.
struct SlotCache {
  // Per-user tables, aligned with ctx.users:
  std::vector<double> log_psnr;  ///< log W_j
  std::vector<double> loss_mbs;  ///< (1 - S_{0,j}) log W_j
  std::vector<double> loss_fbs;  ///< (1 - S_{i,j}) log W_j
  std::vector<double> pr_mbs;    ///< W_j / R_{0,j} (valid iff can_mbs[j])
  std::vector<double> hi_mbs;    ///< S_{0,j} R_{0,j} / W_j (0 if unusable)
  std::vector<unsigned char> can_mbs;  ///< R_{0,j} > 0 && S_{0,j} > 0

  /// Users associated with FBS i, ascending user index (the order
  /// evaluate_assignment's full scan produced).
  std::vector<std::vector<std::size_t>> users_by_fbs;
  std::vector<unsigned char> fbs_has_users;
  /// Position of user j in users_by_fbs[ctx.users[j].fbs]: the user's bit
  /// in its FBS's member mask (core/waterfill.cpp).
  std::vector<std::size_t> fbs_position;

  std::size_t num_users = 0;
  std::size_t num_fbs = 0;

  /// Recomputes every table for `ctx`. Validates the context once so the
  /// hot paths can drop their per-call argument checks (see
  /// docs/DEVELOPING.md on where contracts moved). Reuses capacity.
  void build(const SlotContext& ctx);
};

}  // namespace femtocr::core
