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

StageTransforms BmfEstimator::stage_transforms(
    const Vector& late_nominal) const {
  BMFUSION_REQUIRE(late_nominal.size() == early_.moments.dimension(),
                   "bmf shift/scale needs a late-stage nominal point of the "
                   "early-stage dimension (set_nominal before observe or "
                   "absorb)");
  return make_stage_transforms(early_.nominal, late_nominal, early_.moments);
}

ShiftScale BmfEstimator::late_transform(const Vector& late_nominal) const {
  return stage_transforms(late_nominal).late;
}

std::optional<ShiftScale> BmfEstimator::stream_space(
    const Vector& late_nominal) const {
  if (!config_.apply_shift_scale) return std::nullopt;
  return late_transform(late_nominal);
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

BmfResult BmfEstimator::do_snapshot(
    const std::vector<SufficientStats>& fold_totals,
    const Vector& late_nominal) const {
  // Fold totals arrive in stream space (stream_space(late_nominal)), so
  // selection + fusion run in the scaled space and the estimate is pulled
  // back to late-stage units. Rebuilding the transforms on each recompute
  // costs little next to the grid, and keeps the estimator free of caches.
  if (!config_.apply_shift_scale) {
    return estimate_scaled(early_.moments, fold_totals, config_.cv,
                           config_.selection);
  }
  const StageTransforms transforms = stage_transforms(late_nominal);
  BmfResult result =
      estimate_scaled(transforms.early.apply(early_.moments), fold_totals,
                      config_.cv, config_.selection);
  result.moments = transforms.late.invert(result.scaled_moments);
  return result;
}

}  // namespace bmfusion::core
