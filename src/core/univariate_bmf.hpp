// Univariate BMF baseline (the prior art this paper extends, ref. [7]).
//
// Estimates each metric independently with a normal-gamma conjugate prior —
// mathematically the d = 1 special case of the normal-Wishart machinery, so
// it reuses NormalWishart per dimension. Comparing it against the
// multivariate estimator quantifies the value of fusing *correlations*,
// which is exactly the paper's motivation (Section 2, last paragraph).
#pragma once

#include <utility>
#include <vector>

#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/moments.hpp"

namespace bmfusion::core {

/// The univariate baseline behind the unified MomentEstimator interface. It
/// works in the scaled space (the caller normalizes its samples) and ignores
/// the nominal point; `early_scaled` supplies each dimension's prior mean
/// and variance, and off-diagonal early knowledge is deliberately ignored.
/// The reported covariance is diagonal (the best a univariate method can
/// report), so the same error metrics apply as to the multivariate
/// estimators.
///
/// Samples accumulate into cv.folds fold streams; the core projects each
/// fold's statistics onto every dimension and runs the per-metric 1-D
/// hyper-parameter search from those projections (evidence when fewer than
/// two folds are non-empty). A batch estimate() is the snapshot of a stream
/// that observed its rows.
class UnivariateBmfEstimator final : public MomentEstimator {
 public:
  explicit UnivariateBmfEstimator(GaussianMoments early_scaled,
                                  CrossValidationConfig cv = {})
      : early_scaled_(std::move(early_scaled)), cv_(cv) {
    early_scaled_.validate();
    cv_.validate();
  }

  [[nodiscard]] std::string_view name() const override {
    return "univariate-bmf";
  }

 protected:
  [[nodiscard]] EstimateResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& nominal) const override;
  [[nodiscard]] std::size_t stream_folds() const override {
    return cv_.folds;
  }

 private:
  GaussianMoments early_scaled_;
  CrossValidationConfig cv_;
};

}  // namespace bmfusion::core
