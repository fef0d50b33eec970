// Objective evaluation for problems (12)/(17)/(21).
//
// With the base-station choice binary (Theorem 1), the per-slot objective is
// the exact conditional expectation E[log W^t_j | history]: the packet-loss
// indicator xi is Bernoulli(S), so each user contributes
//     S log(W + rho R_eff) + (1 - S) log(W),
// with S the link success probability and R_eff the branch's effective rate
// (R_0 on the common channel, G_i R_i on the licensed side). The paper's
// Eq. (12) as literally written keeps only the first term; the dropped
// (1 - S) log W term is constant in rho but NOT in the base-station choice —
// without it a user would be penalized for its whole baseline log W when
// connecting through a less reliable link, which makes an idle MBS go
// unused. Including it restores the true expectation; Lemmas 1–3 and
// Theorem 1 carry through unchanged (the objective stays concave in rho and
// linear in p, q).
#pragma once

#include "core/types.h"

namespace femtocr::core {

/// The contribution of user j under an MBS assignment with share rho.
double mbs_term(const UserState& u, double rho);

/// The contribution of user j under an FBS assignment with share rho and
/// expected channels g for its FBS.
double fbs_term(const UserState& u, double rho, double g);

/// Full objective Q of an allocation (uses allocation.expected_channels).
double slot_objective(const SlotContext& ctx, const SlotAllocation& alloc);

}  // namespace femtocr::core
