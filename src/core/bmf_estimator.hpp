// Algorithm 1: Bayesian model fusion for multivariate moment estimation.
//
// End-to-end flow: shift/scale both stages (Sec. 4.1), select (nu0, kappa0)
// by two-dimensional Q-fold cross validation (Sec. 4.2), anchor the
// normal-Wishart prior at the early-stage moments (eqs. 19-21), fuse with
// the late-stage samples by MAP (eqs. 29-32), and pull the estimate back to
// original units.
#pragma once

#include <optional>
#include <vector>

#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/moments.hpp"
#include "core/shift_scale.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace bmfusion::core {

/// Everything carried over from the early stage: its estimated moments and
/// the nominal (variation-free) metrics used by the shift step.
struct EarlyStageKnowledge {
  GaussianMoments moments;
  linalg::Vector nominal;
};

struct BmfConfig {
  CrossValidationConfig cv;
  /// When false the samples are fused in raw units (no Section 4.1
  /// normalization) — exposed for the shift/scale ablation bench.
  bool apply_shift_scale = true;
  /// Hyper-parameter selection strategy. kCrossValidation is the paper's
  /// Q-fold search; estimation paths that cannot fold their data (a single
  /// pre-summarized SufficientStats, or a stream with fewer than two
  /// non-empty folds) downgrade to kEvidence automatically.
  HyperSelection selection = HyperSelection::kCrossValidation;

  BmfConfig& with_cv(CrossValidationConfig config) {
    cv = config;
    return *this;
  }
  BmfConfig& with_shift_scale(bool apply) {
    apply_shift_scale = apply;
    return *this;
  }
  BmfConfig& with_selection(HyperSelection strategy) {
    selection = strategy;
    return *this;
  }

  /// Throws ContractError when the embedded CV configuration is malformed.
  void validate() const { cv.validate(); }
};

/// BMF reports its estimate through the shared result type; the historical
/// name survives as an alias (the old cv_score field is now `score`).
using BmfResult = EstimateResult;

/// Reusable estimator bound to one early stage. Implements the unified
/// MomentEstimator interface: estimate(late_samples, late_nominal) runs
/// Algorithm 1 end to end. When shift/scale is enabled a non-empty
/// late-stage nominal is required (ContractError otherwise).
///
/// Streaming: call set_nominal(late_nominal) once, then observe()/absorb()
/// as measurements arrive. Samples are normalized on entry (Section 4.1)
/// and accumulated into config().cv.folds fold streams with the same
/// round-robin split as the batch CV engine, so snapshot() runs the
/// identical hyper-parameter search from fold statistics alone; when the
/// stream cannot sustain a fold split (single absorbed summary, < 2
/// non-empty folds) selection downgrades to the closed-form evidence.
class BmfEstimator final : public MomentEstimator {
 public:
  explicit BmfEstimator(EarlyStageKnowledge early, BmfConfig config = {});

  [[nodiscard]] std::string_view name() const override { return "bmf"; }

  /// Scaled-space core used by estimate() and by the experiment harness
  /// (which evaluates errors in scaled space): selects hyper-parameters by
  /// `selection` and fuses, all inputs/outputs in the normalized space.
  [[nodiscard]] static BmfResult estimate_scaled(
      const GaussianMoments& early_scaled,
      const linalg::Matrix& late_scaled, const CrossValidationConfig& cv,
      HyperSelection selection = HyperSelection::kCrossValidation);

  /// The same core fed from per-fold sufficient statistics in the scaled
  /// space — the one selection + fusion + fallback path every entry style
  /// (batch, stats-only, streaming snapshot) converges on. `selection`
  /// downgrades to evidence when fewer than two folds are non-empty.
  [[nodiscard]] static BmfResult estimate_scaled(
      const GaussianMoments& early_scaled,
      const std::vector<SufficientStats>& fold_stats,
      const CrossValidationConfig& cv,
      HyperSelection selection = HyperSelection::kCrossValidation);

  /// MAP fusion at *fixed* hyper-parameters (no cross validation), scaled
  /// space. Exposed for the hyper-parameter ablation bench and tests.
  [[nodiscard]] static GaussianMoments fuse_at(
      const GaussianMoments& early_scaled,
      const linalg::Matrix& late_scaled, double kappa0, double nu0);

  /// Same fusion from precomputed scaled-space statistics.
  [[nodiscard]] static GaussianMoments fuse_at(
      const GaussianMoments& early_scaled, const SufficientStats& late_stats,
      double kappa0, double nu0);

  [[nodiscard]] const EarlyStageKnowledge& early() const { return early_; }
  [[nodiscard]] const BmfConfig& config() const { return config_; }

  /// The Section 4.1 transform this estimator applies to late-stage data.
  [[nodiscard]] ShiftScale late_transform(
      const linalg::Vector& late_nominal) const;

 protected:
  [[nodiscard]] BmfResult do_estimate(
      const linalg::Matrix& late_samples,
      const linalg::Vector& late_nominal) const override;
  [[nodiscard]] BmfResult do_estimate_stats(
      const SufficientStats& late_stats,
      const linalg::Vector& late_nominal) const override;
  [[nodiscard]] BmfResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& late_nominal) const override;
  [[nodiscard]] std::size_t stream_folds() const override {
    return config_.cv.folds;
  }
  [[nodiscard]] linalg::Vector stream_transform(
      const linalg::Vector& sample) const override;
  [[nodiscard]] SufficientStats stream_transform_stats(
      const SufficientStats& stats) const override;
  void on_nominal_changed() override;

 private:
  /// Stage transforms for `late_nominal`, cached across the streaming hot
  /// path (set_nominal invalidates). Throws ContractError when shift/scale
  /// is enabled and no nominal is available.
  [[nodiscard]] const StageTransforms& transforms_for(
      const linalg::Vector& late_nominal) const;

  EarlyStageKnowledge early_;
  BmfConfig config_;
  /// Lazy per-nominal cache (mutable: estimate()/snapshot() are const).
  mutable std::optional<StageTransforms> transform_cache_;
  mutable linalg::Vector transform_cache_nominal_;
};

}  // namespace bmfusion::core
