#include "core/objective.h"

#include <cmath>

#include "util/check.h"

namespace femtocr::core {

double mbs_term(const UserState& u, double rho) {
  FEMTOCR_CHECK_GE(rho, 0.0, "slot share must be nonnegative");
  FEMTOCR_DCHECK_PROB(u.success_mbs, "MBS success probability out of range");
  return u.success_mbs * std::log(u.psnr + rho * u.rate_mbs) +
         (1.0 - u.success_mbs) * std::log(u.psnr);
}

double fbs_term(const UserState& u, double rho, double g) {
  FEMTOCR_CHECK_GE(rho, 0.0, "slot share must be nonnegative");
  FEMTOCR_CHECK_GE(g, 0.0, "expected channel count must be nonnegative");
  FEMTOCR_DCHECK_PROB(u.success_fbs, "FBS success probability out of range");
  return u.success_fbs * std::log(u.psnr + rho * g * u.rate_fbs) +
         (1.0 - u.success_fbs) * std::log(u.psnr);
}

double slot_objective(const SlotContext& ctx, const SlotAllocation& alloc) {
  double q = 0.0;
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    const UserState& u = ctx.users[j];
    if (alloc.use_mbs[j]) {
      q += mbs_term(u, alloc.rho_mbs[j]);
    } else {
      q += fbs_term(u, alloc.rho_fbs[j], alloc.effective_channels(ctx, j));
    }
  }
  return q;
}

}  // namespace femtocr::core
