// femtocr:inner-loop-tu — built once per slot, read inside every dual
// iteration; keep allocations out of build() beyond first-use growth.
#include "core/slot_cache.h"

#include <cmath>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

void SlotCache::build(const SlotContext& ctx) {
  static util::Counter& c_builds =
      util::metrics().counter("core.slotcache.builds");
  static util::Counter& c_entries =
      util::metrics().counter("core.slotcache.user_entries");
  static util::TimerStat& t_build =
      util::metrics().timer("core.slotcache.build");
  const util::Scope scope(t_build);

  // One validation pass covers the argument contracts the hot paths used
  // to re-check per call (positive PSNR, probability-ranged S, finite
  // nonnegative rates).
  ctx.validate();

  const std::size_t K = ctx.users.size();
  num_users = K;
  num_fbs = ctx.num_fbs;
  c_builds.add();
  c_entries.add(K);

  log_psnr.resize(K);
  loss_mbs.resize(K);
  loss_fbs.resize(K);
  pr_mbs.resize(K);
  hi_mbs.resize(K);
  can_mbs.resize(K);
  fbs_position.resize(K);

  for (auto& list : users_by_fbs) list.clear();
  users_by_fbs.resize(ctx.num_fbs);
  fbs_has_users.assign(ctx.num_fbs, 0);

  for (std::size_t j = 0; j < K; ++j) {
    const UserState& u = ctx.users[j];
    // Exactly the expressions the solvers computed inline (bitwise
    // contract in the header): log W, (1 - S) log W, W / R, S R / W.
    const double log_w = std::log(u.psnr);
    log_psnr[j] = log_w;
    loss_mbs[j] = (1.0 - u.success_mbs) * log_w;
    loss_fbs[j] = (1.0 - u.success_fbs) * log_w;
    const bool usable = u.rate_mbs > 0.0 && u.success_mbs > 0.0;
    can_mbs[j] = usable ? 1 : 0;
    pr_mbs[j] = usable ? u.psnr / u.rate_mbs : 0.0;
    hi_mbs[j] = u.rate_mbs > 0.0 ? u.success_mbs * u.rate_mbs / u.psnr : 0.0;
    fbs_position[j] = users_by_fbs[u.fbs].size();
    users_by_fbs[u.fbs].push_back(j);
    fbs_has_users[u.fbs] = 1;
  }
}

}  // namespace femtocr::core
