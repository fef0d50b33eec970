#include "core/multistage.h"

#include <algorithm>
#include <cmath>

#include "core/waterfill.h"
#include "util/check.h"

namespace femtocr::core {

namespace {

double stage_value(const std::vector<double>& w, const std::vector<double>& s,
                   const std::vector<double>& r,
                   const std::vector<double>& rho) {
  double v = 0.0;
  for (std::size_t j = 0; j < w.size(); ++j) {
    v += s[j] * std::log(w[j] + rho[j] * r[j]) +
         (1.0 - s[j]) * std::log(w[j]);
  }
  return v;
}

}  // namespace

void TwoStageInstance::validate() const {
  FEMTOCR_CHECK(!psnr.empty(), "instance needs users");
  FEMTOCR_CHECK(psnr.size() == success.size() && psnr.size() == rate.size(),
                "instance vectors must align");
  FEMTOCR_CHECK(num_users() <= 3,
                "two-stage analysis enumerates <= 3 users exhaustively");
  for (std::size_t j = 0; j < psnr.size(); ++j) {
    FEMTOCR_CHECK(psnr[j] > 0.0, "PSNR states must be positive");
    FEMTOCR_CHECK(success[j] >= 0.0 && success[j] <= 1.0,
                  "success probabilities out of range");
    FEMTOCR_CHECK(rate[j] >= 0.0, "rates must be nonnegative");
  }
}

double TwoStageResult::relative_gap() const {
  if (std::fabs(optimal_value) < 1e-12) return 0.0;
  return (optimal_value - myopic_value) / std::fabs(optimal_value);
}

double second_stage_value(const TwoStageInstance& inst,
                          const std::vector<double>& w) {
  std::vector<double> rho;
  waterfill_shares(w, inst.rate, inst.success, 1.0, rho);
  return stage_value(w, inst.success, inst.rate, rho);
}

double lookahead_value(const TwoStageInstance& inst,
                       const std::vector<double>& rho) {
  const std::size_t n = inst.num_users();
  double total = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    double prob = 1.0;
    std::vector<double> w2(n);
    for (std::size_t j = 0; j < n; ++j) {
      const bool delivered = (mask >> j) & 1U;
      prob *= delivered ? inst.success[j] : 1.0 - inst.success[j];
      w2[j] = inst.psnr[j] + (delivered ? rho[j] * inst.rate[j] : 0.0);
    }
    if (prob > 0.0) total += prob * second_stage_value(inst, w2);
  }
  return total;
}

TwoStageResult analyze_two_stage(const TwoStageInstance& inst,
                                 std::size_t grid) {
  inst.validate();
  FEMTOCR_CHECK(grid >= 2, "grid must have at least two steps");
  TwoStageResult result;

  // Myopic (the paper's decomposition): water-fill stage one on the
  // current objective, then play the exact second stage.
  std::vector<double> myopic_rho;
  waterfill_shares(inst.psnr, inst.rate, inst.success, 1.0, myopic_rho);
  result.myopic_value = lookahead_value(inst, myopic_rho);

  // Optimal first stage: exhaustive simplex grid (the budget binds at the
  // optimum because every marginal utility is positive).
  const std::size_t n = inst.num_users();
  std::vector<double> rho(n, 0.0);
  result.optimal_value = result.myopic_value;  // myopic point is feasible
  if (n == 1) {
    rho[0] = 1.0;
    result.optimal_value =
        std::max(result.optimal_value, lookahead_value(inst, rho));
  } else if (n == 2) {
    for (std::size_t i = 0; i <= grid; ++i) {
      rho[0] = static_cast<double>(i) / static_cast<double>(grid);
      rho[1] = 1.0 - rho[0];
      result.optimal_value =
          std::max(result.optimal_value, lookahead_value(inst, rho));
    }
  } else {  // n == 3
    for (std::size_t i = 0; i <= grid; ++i) {
      for (std::size_t k = 0; i + k <= grid; ++k) {
        rho[0] = static_cast<double>(i) / static_cast<double>(grid);
        rho[1] = static_cast<double>(k) / static_cast<double>(grid);
        rho[2] = 1.0 - rho[0] - rho[1];
        result.optimal_value =
            std::max(result.optimal_value, lookahead_value(inst, rho));
      }
    }
  }
  return result;
}

}  // namespace femtocr::core
