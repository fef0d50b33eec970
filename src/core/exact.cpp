#include "core/exact.h"

#include <cmath>
#include <limits>

#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

ExactResult exact_allocate(const SlotContext& ctx, bool exhaustive_assignment,
                           std::size_t max_combinations) {
  static util::Counter& c_combos =
      util::metrics().counter("core.exact.combinations");
  static util::TimerStat& t_alloc =
      util::metrics().timer("core.exact.allocate");
  const util::Scope scope(t_alloc);

  ctx.validate();
  // One cache shared by every combination's solve (the odometer below can
  // enumerate thousands of channel assignments per call).
  SlotCache cache;
  cache.build(ctx);
  const auto independent_sets = ctx.graph->independent_sets();
  const std::size_t num_sets = independent_sets.size();
  const std::size_t num_channels = ctx.available.size();

  // Guard the combinatorial blow-up before starting.
  double combos = 1.0;
  for (std::size_t a = 0; a < num_channels; ++a) {
    combos *= static_cast<double>(num_sets);
  }
  FEMTOCR_CHECK(combos <= static_cast<double>(max_combinations),
                "exact allocation instance too large");

  ExactResult result;
  result.allocation = SlotAllocation::zeros(ctx);
  result.allocation.objective = -std::numeric_limits<double>::infinity();

  // Odometer over one independent-set choice per available channel.
  std::vector<std::size_t> choice(num_channels, 0);
  while (true) {
    std::vector<double> gt(ctx.num_fbs, 0.0);
    std::vector<std::vector<std::size_t>> channels(ctx.num_fbs);
    for (std::size_t a = 0; a < num_channels; ++a) {
      for (std::size_t fbs : independent_sets[choice[a]]) {
        gt[fbs] += ctx.posterior[a];
        channels[fbs].push_back(ctx.available[a]);
      }
    }
    SlotAllocation alloc = exhaustive_assignment
                               ? waterfill_solve_exhaustive(ctx, cache, gt)
                               : waterfill_solve(ctx, cache, gt);
    ++result.combinations;
    if (alloc.objective > result.allocation.objective) {
      alloc.channels = std::move(channels);
      result.allocation = std::move(alloc);
    }

    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < num_channels && ++choice[pos] == num_sets) {
      choice[pos] = 0;
      ++pos;
    }
    if (pos == num_channels) break;
    if (num_channels == 0) break;
  }

  c_combos.add(result.combinations);  // one shard add for the whole search
  result.allocation.upper_bound = result.allocation.objective;
  FEMTOCR_CHECK_FINITE(result.allocation.objective,
                       "exact search must end on a finite objective");
  FEMTOCR_DCHECK(result.allocation.feasible(ctx),
                 "exact search returned an infeasible allocation");
  return result;
}

}  // namespace femtocr::core
