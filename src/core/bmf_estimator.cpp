#include "core/bmf_estimator.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "core/normal_wishart.hpp"

namespace bmfusion::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// Restates a selection failure at the estimator boundary with the problem
/// size; the nested message keeps the grid-level detail.
[[noreturn]] void rethrow_selection_failure(const NumericError& e,
                                            std::size_t dimension,
                                            std::size_t sample_count) {
  throw NumericError("bmf: hyper-parameter selection failed",
                     ErrorContext{}
                         .with_operation("bmf-estimate")
                         .with_dimension(dimension)
                         .with_sample_count(sample_count)
                         .with_detail(e.what()));
}

}  // namespace

BmfEstimator::BmfEstimator(EarlyStageKnowledge early, BmfConfig config)
    : early_(std::move(early)), config_(std::move(config)) {
  early_.moments.validate();
  config_.validate();
  BMFUSION_REQUIRE(early_.nominal.size() == early_.moments.dimension(),
                   "early nominal must match the moment dimension");
}

ShiftScale BmfEstimator::late_transform(const Vector& late_nominal) const {
  return make_stage_transforms(early_.nominal, late_nominal, early_.moments)
      .late;
}

const StageTransforms& BmfEstimator::transforms_for(
    const Vector& late_nominal) const {
  BMFUSION_REQUIRE(late_nominal.size() == early_.moments.dimension(),
                   "bmf shift/scale needs a late-stage nominal point");
  if (!transform_cache_.has_value() ||
      !(transform_cache_nominal_ == late_nominal)) {
    transform_cache_ =
        make_stage_transforms(early_.nominal, late_nominal, early_.moments);
    transform_cache_nominal_ = late_nominal;
  }
  return *transform_cache_;
}

void BmfEstimator::on_nominal_changed() { transform_cache_.reset(); }

Vector BmfEstimator::stream_transform(const Vector& sample) const {
  if (!config_.apply_shift_scale) return sample;
  BMFUSION_REQUIRE(nominal().size() != 0,
                   "bmf streaming needs set_nominal before observe");
  return transforms_for(nominal()).late.apply(sample);
}

SufficientStats BmfEstimator::stream_transform_stats(
    const SufficientStats& stats) const {
  if (!config_.apply_shift_scale) return stats;
  BMFUSION_REQUIRE(nominal().size() != 0,
                   "bmf streaming needs set_nominal before absorb");
  return transforms_for(nominal()).late.apply(stats);
}

GaussianMoments BmfEstimator::fuse_at(const GaussianMoments& early_scaled,
                                      const Matrix& late_scaled,
                                      double kappa0, double nu0) {
  return fuse_at(early_scaled, SufficientStats::from_samples(late_scaled),
                 kappa0, nu0);
}

GaussianMoments BmfEstimator::fuse_at(const GaussianMoments& early_scaled,
                                      const SufficientStats& late_stats,
                                      double kappa0, double nu0) {
  early_scaled.validate();
  return map_fuse(early_scaled, late_stats, kappa0, nu0);
}

BmfResult BmfEstimator::estimate_scaled(const GaussianMoments& early_scaled,
                                        const Matrix& late_scaled,
                                        const CrossValidationConfig& cv,
                                        HyperSelection selection) {
  CrossValidationResult selected;
  try {
    selected =
        selection == HyperSelection::kEvidence
            ? select_hyperparameters_evidence(early_scaled, late_scaled, cv)
            : select_hyperparameters(early_scaled, late_scaled, cv);
  } catch (const NumericError& e) {
    rethrow_selection_failure(e, early_scaled.dimension(),
                              late_scaled.rows());
  }
  BmfResult result;
  result.kappa0 = selected.kappa0;
  result.nu0 = selected.nu0;
  result.score = selected.score;
  result.cv_grid = selected.grid();
  result.scaled_moments =
      fuse_at(early_scaled, late_scaled, selected.kappa0, selected.nu0);
  result.moments = result.scaled_moments;  // identical when no transform
  return result;
}

BmfResult BmfEstimator::estimate_scaled(
    const GaussianMoments& early_scaled,
    const std::vector<SufficientStats>& fold_stats,
    const CrossValidationConfig& cv, HyperSelection selection) {
  BMFUSION_REQUIRE(!fold_stats.empty(),
                   "bmf estimation needs >= 1 fold statistic");
  SufficientStats totals(early_scaled.dimension());
  std::size_t nonempty_folds = 0;
  for (const SufficientStats& fold : fold_stats) {
    if (fold.count() == 0) continue;
    ++nonempty_folds;
    totals += fold;
  }
  BMFUSION_REQUIRE(totals.count() >= 1,
                   "bmf estimation needs >= 1 late-stage sample");

  // Cross validation needs at least two non-empty folds to hold data out;
  // anything less falls back to the closed-form evidence, which is exact
  // from a single sample.
  const bool can_fold =
      nonempty_folds >= 2 && totals.count() >= 2 &&
      selection == HyperSelection::kCrossValidation;

  CrossValidationResult selected;
  try {
    selected = can_fold
                   ? select_hyperparameters(early_scaled, fold_stats, cv)
                   : select_hyperparameters_evidence(early_scaled, totals, cv);
  } catch (const NumericError& e) {
    rethrow_selection_failure(e, early_scaled.dimension(), totals.count());
  }
  BmfResult result;
  result.kappa0 = selected.kappa0;
  result.nu0 = selected.nu0;
  result.score = selected.score;
  result.cv_grid = selected.grid();
  result.scaled_moments =
      fuse_at(early_scaled, totals, selected.kappa0, selected.nu0);
  result.moments = result.scaled_moments;  // identical when no transform
  return result;
}

BmfResult BmfEstimator::do_estimate(const Matrix& late_samples,
                                    const Vector& late_nominal) const {
  BMFUSION_REQUIRE(late_samples.cols() == early_.moments.dimension(),
                   "late samples must match the early-stage dimension");
  BMFUSION_REQUIRE(late_samples.rows() >= 2,
                   "bmf estimation needs >= 2 late-stage samples");

  if (!config_.apply_shift_scale) {
    return estimate_scaled(early_.moments, late_samples, config_.cv,
                           config_.selection);
  }

  const StageTransforms& transforms = transforms_for(late_nominal);
  const GaussianMoments early_scaled = transforms.early.apply(early_.moments);
  const Matrix late_scaled = transforms.late.apply(late_samples);

  BmfResult result = estimate_scaled(early_scaled, late_scaled, config_.cv,
                                     config_.selection);
  result.moments = transforms.late.invert(result.scaled_moments);
  return result;
}

BmfResult BmfEstimator::do_estimate_stats(const SufficientStats& late_stats,
                                          const Vector& late_nominal) const {
  BMFUSION_REQUIRE(late_stats.dimension() == early_.moments.dimension(),
                   "late statistics must match the early-stage dimension");

  if (!config_.apply_shift_scale) {
    return estimate_scaled(early_.moments, {late_stats}, config_.cv,
                           HyperSelection::kEvidence);
  }
  const StageTransforms& transforms = transforms_for(late_nominal);
  const GaussianMoments early_scaled = transforms.early.apply(early_.moments);
  // A single pre-summarized batch cannot be folded, so selection is by
  // evidence regardless of config().selection.
  BmfResult result =
      estimate_scaled(early_scaled, {transforms.late.apply(late_stats)},
                      config_.cv, HyperSelection::kEvidence);
  result.moments = transforms.late.invert(result.scaled_moments);
  return result;
}

BmfResult BmfEstimator::do_snapshot(
    const std::vector<SufficientStats>& fold_totals,
    const Vector& late_nominal) const {
  // Fold totals arrive already normalized (stream_transform applied on
  // entry), so selection + fusion run in the same scaled space — and
  // through the same core — as the batch path.
  if (!config_.apply_shift_scale) {
    return estimate_scaled(early_.moments, fold_totals, config_.cv,
                           config_.selection);
  }
  const StageTransforms& transforms = transforms_for(late_nominal);
  const GaussianMoments early_scaled = transforms.early.apply(early_.moments);
  BmfResult result =
      estimate_scaled(early_scaled, fold_totals, config_.cv,
                      config_.selection);
  result.moments = transforms.late.invert(result.scaled_moments);
  return result;
}

}  // namespace bmfusion::core
