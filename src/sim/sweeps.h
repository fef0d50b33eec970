// Parameter-sweep helpers shared by the bench binaries: each paper figure
// varies one knob of a base scenario; these helpers apply the knob and
// render the standard comparison table (x, Proposed, Heuristic 1,
// Heuristic 2 [, Upper bound]).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/scenario.h"

namespace femtocr::sim {

/// One sweep point: the knob value and the per-scheme summaries.
struct SweepRow {
  double x = 0.0;
  std::vector<SchemeSummary> schemes;  ///< Proposed, H1, H2 order
};

/// Runs `runs` simulations of all three schemes for every knob value,
/// fanning the whole (point, scheme, run) grid across the replication
/// engine (util::parallel_for; thread count from util::default_threads()).
/// Output is bitwise identical for any thread count — see the seeding
/// contract in sim/experiment.h. `apply` mutates a copy of the base
/// scenario for the given knob value (and must leave it finalized); it is
/// invoked serially, before the fan-out.
std::vector<SweepRow> sweep(const Scenario& base,
                            const std::vector<double>& xs,
                            const std::function<void(Scenario&, double)>& apply,
                            std::size_t runs = 10);

/// Prints the standard figure table: one row per sweep point with
/// mean +/- 95% CI per scheme; adds the upper-bound column when
/// `with_bound` (the interfering-FBS figures plot it). Also emits CSV
/// lines tagged `title`.
void print_sweep(std::ostream& os, const std::string& title,
                 const std::string& x_label,
                 const std::vector<SweepRow>& rows, bool with_bound);

}  // namespace femtocr::sim
