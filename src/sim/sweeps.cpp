#include "sim/sweeps.h"

#include <ostream>

#include "util/ascii_chart.h"
#include "util/parallel.h"
#include "util/table.h"

namespace femtocr::sim {

std::vector<SweepRow> sweep(const Scenario& base,
                            const std::vector<double>& xs,
                            const std::function<void(Scenario&, double)>& apply,
                            std::size_t runs) {
  // Materialize every point's scenario up front (apply is cheap and need
  // not be thread-safe), then fan the whole (point, scheme, run) grid
  // across the pool at once — points near the end of the sweep don't wait
  // for earlier points to drain. Cell (p, k, r) owns slot p*3*runs +
  // k*runs + r and its randomness is a pure function of (seed, r), so the
  // fold below is bitwise identical for any thread count.
  std::vector<Scenario> scenarios;
  scenarios.reserve(xs.size());
  for (double x : xs) {
    Scenario s = base;
    apply(s, x);
    scenarios.push_back(std::move(s));
  }

  static constexpr core::SchemeKind kKinds[] = {core::SchemeKind::kProposed,
                                                core::SchemeKind::kHeuristic1,
                                                core::SchemeKind::kHeuristic2};
  constexpr std::size_t kNumSchemes = 3;
  const std::size_t per_point = kNumSchemes * runs;
  std::vector<RunResult> results(xs.size() * per_point);
  util::parallel_for(results.size(), [&](std::size_t i) {
    const std::size_t p = i / per_point;
    const std::size_t k = (i % per_point) / runs;
    const std::size_t r = i % runs;
    Simulator sim(scenarios[p], kKinds[k], r);
    results[i] = sim.run();
  });

  std::vector<SweepRow> rows;
  rows.reserve(xs.size());
  for (std::size_t p = 0; p < xs.size(); ++p) {
    SweepRow row;
    row.x = xs[p];
    for (std::size_t k = 0; k < kNumSchemes; ++k) {
      row.schemes.push_back(
          summarize_runs(kKinds[k], scenarios[p].users.size(),
                         results.data() + p * per_point + k * runs, runs));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_sweep(std::ostream& os, const std::string& title,
                 const std::string& x_label,
                 const std::vector<SweepRow>& rows, bool with_bound) {
  std::vector<std::string> headers = {x_label, "Proposed (dB)",
                                      "Heuristic1 (dB)", "Heuristic2 (dB)"};
  if (with_bound) headers.push_back("UpperBound (dB)");
  util::Table table(headers);
  for (const auto& row : rows) {
    std::vector<std::string> cells = {util::Table::num(row.x, 2)};
    for (const auto& s : row.schemes) {
      cells.push_back(util::with_ci(s.mean_psnr.mean(),
                                    util::confidence_interval95(s.mean_psnr)));
    }
    if (with_bound) {
      const auto& proposed = row.schemes.front();
      cells.push_back(
          util::with_ci(proposed.bound_psnr.mean(),
                        util::confidence_interval95(proposed.bound_psnr)));
    }
    table.add_row(std::move(cells));
  }
  table.print(os);
  table.print_csv(os, title);

  // Shape at a glance: the same series as a terminal chart.
  if (rows.size() >= 2) {
    std::vector<double> xs;
    for (const auto& row : rows) xs.push_back(row.x);
    util::AsciiChart chart(title + " — " + x_label + " vs Y-PSNR (dB)", xs);
    const char* names[] = {"Proposed", "Heuristic1", "Heuristic2"};
    for (std::size_t k = 0; k < 3; ++k) {
      std::vector<double> ys;
      for (const auto& row : rows) ys.push_back(row.schemes[k].mean_psnr.mean());
      chart.add_series(names[k], std::move(ys));
    }
    if (with_bound) {
      std::vector<double> ys;
      for (const auto& row : rows) {
        ys.push_back(row.schemes.front().bound_psnr.mean());
      }
      chart.add_series("UpperBound", std::move(ys));
    }
    os << '\n';
    chart.print(os);
  }
}

}  // namespace femtocr::sim
