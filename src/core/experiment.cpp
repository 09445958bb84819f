#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "core/estimator.hpp"
#include "core/mle.hpp"
#include "core/univariate_bmf.hpp"
#include "stats/descriptive.hpp"
#include "stats/moments.hpp"
#include "stats/rng.hpp"

namespace bmfusion::core {

using linalg::Matrix;
using linalg::Vector;

MomentExperiment::MomentExperiment(circuit::Dataset early,
                                   Vector early_nominal,
                                   circuit::Dataset late,
                                   Vector late_nominal) {
  BMFUSION_REQUIRE(early.metric_count() == late.metric_count(),
                   "early/late datasets must share metrics");
  BMFUSION_REQUIRE(early.sample_count() > early.metric_count(),
                   "early dataset too small for moment estimation");
  BMFUSION_REQUIRE(late.sample_count() > late.metric_count(),
                   "late dataset too small for ground truth");

  const GaussianMoments early_raw = estimate_mle(early.samples());
  const StageTransforms transforms =
      make_stage_transforms(early_nominal, late_nominal, early_raw);
  early_scaled_ = transforms.early.apply(early_raw);
  late_scaled_ = transforms.late.apply(late.samples());
  exact_scaled_ = estimate_mle(late_scaled_);
}

namespace {

/// Draws `n` distinct row indices from [0, total) via partial Fisher-Yates.
std::vector<std::size_t> draw_subset(stats::Xoshiro256pp& rng, std::size_t n,
                                     std::size_t total) {
  std::vector<std::size_t> pool(total);
  for (std::size_t i = 0; i < total; ++i) pool[i] = i;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(
                                  static_cast<std::uint64_t>(total - i)));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(n);
  return pool;
}

Matrix gather_rows(const Matrix& samples,
                   const std::vector<std::size_t>& rows) {
  Matrix out(rows.size(), samples.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out.set_row(i, samples.row(rows[i]));
  }
  return out;
}

}  // namespace

ExperimentResult MomentExperiment::run(const ExperimentConfig& config) const {
  BMFUSION_REQUIRE(!config.sample_sizes.empty(),
                   "experiment needs at least one sample size");
  BMFUSION_REQUIRE(config.repetitions >= 1, "experiment needs >= 1 run");
  const std::size_t total = late_scaled_.rows();
  for (const std::size_t n : config.sample_sizes) {
    BMFUSION_REQUIRE(n >= 2 && n <= total,
                     "sample size out of range of the late dataset");
  }

  ExperimentResult result;
  result.exact_scaled = exact_scaled_;
  result.early_scaled = early_scaled_;
  result.rows.reserve(config.sample_sizes.size());
  const double nan = std::numeric_limits<double>::quiet_NaN();

  // All strategies behind the unified interface, built once and shared by
  // every repetition (estimate() writes no shared state). The experiment
  // works in scaled space throughout, so BMF runs with shift/scale off and
  // the univariate baseline is bound to the scaled early moments directly.
  const MleEstimator mle_estimator;
  const BmfEstimator bmf_estimator(
      EarlyStageKnowledge{early_scaled_, early_scaled_.mean},
      BmfConfig{}.with_cv(config.cv).with_shift_scale(false));
  const UnivariateBmfEstimator uni_estimator(early_scaled_, config.cv);

  for (std::size_t size_idx = 0; size_idx < config.sample_sizes.size();
       ++size_idx) {
    const std::size_t n = config.sample_sizes[size_idx];
    const std::size_t reps = config.repetitions;
    std::vector<double> mle_mean(reps), mle_cov(reps);
    std::vector<double> bmf_mean(reps), bmf_cov(reps);
    std::vector<double> uni_mean(reps), uni_cov(reps);
    std::vector<double> kappas(reps), nus(reps);

    parallel_for(
        reps,
        [&](std::size_t r) {
          // One deterministic stream per (size, repetition).
          stats::SplitMix64 mixer(config.seed ^
                                  (size_idx * 0x9E3779B97F4A7C15ULL + r));
          stats::Xoshiro256pp rng(mixer.next());
          const Matrix subset =
              gather_rows(late_scaled_, draw_subset(rng, n, total));

          const EstimateResult mle = mle_estimator.estimate(subset);
          mle_mean[r] = mean_error(mle.moments.mean, exact_scaled_.mean);
          mle_cov[r] = covariance_error(mle.moments.covariance,
                                        exact_scaled_.covariance);

          const EstimateResult bmf = bmf_estimator.estimate(subset);
          bmf_mean[r] = mean_error(bmf.scaled_moments.mean,
                                   exact_scaled_.mean);
          bmf_cov[r] = covariance_error(bmf.scaled_moments.covariance,
                                        exact_scaled_.covariance);
          kappas[r] = bmf.kappa0;
          nus[r] = bmf.nu0;

          if (config.include_univariate) {
            const EstimateResult uni = uni_estimator.estimate(subset);
            uni_mean[r] = mean_error(uni.moments.mean, exact_scaled_.mean);
            uni_cov[r] = covariance_error(uni.moments.covariance,
                                          exact_scaled_.covariance);
          }
        },
        config.threads);

    const auto stderr_of = [](const std::vector<double>& v) {
      if (v.size() < 2) return 0.0;
      return stats::stddev_of(v) / std::sqrt(static_cast<double>(v.size()));
    };
    ExperimentRow row;
    row.n = n;
    row.mle_mean_error = stats::mean_of(mle_mean);
    row.mle_cov_error = stats::mean_of(mle_cov);
    row.bmf_mean_error = stats::mean_of(bmf_mean);
    row.bmf_cov_error = stats::mean_of(bmf_cov);
    row.mle_mean_stderr = stderr_of(mle_mean);
    row.mle_cov_stderr = stderr_of(mle_cov);
    row.bmf_mean_stderr = stderr_of(bmf_mean);
    row.bmf_cov_stderr = stderr_of(bmf_cov);
    row.uni_mean_error =
        config.include_univariate ? stats::mean_of(uni_mean) : nan;
    row.uni_cov_error =
        config.include_univariate ? stats::mean_of(uni_cov) : nan;
    row.median_kappa0 = stats::median(kappas);
    row.median_nu0 = stats::median(nus);
    result.rows.push_back(row);
  }
  return result;
}

double cost_reduction_factor(const std::vector<ExperimentRow>& rows,
                             std::size_t n, bool use_cov) {
  BMFUSION_REQUIRE(rows.size() >= 2, "cost reduction needs >= 2 rows");
  const ExperimentRow* target = nullptr;
  for (const ExperimentRow& row : rows) {
    if (row.n == n) target = &row;
  }
  BMFUSION_REQUIRE(target != nullptr, "sample size not present in rows");
  const double bmf_err =
      use_cov ? target->bmf_cov_error : target->bmf_mean_error;

  // Walk the MLE curve (errors decrease with n) and log-log interpolate the
  // n at which MLE first matches bmf_err.
  const auto mle_err = [&](const ExperimentRow& row) {
    return use_cov ? row.mle_cov_error : row.mle_mean_error;
  };
  if (mle_err(rows.front()) <= bmf_err) {
    // MLE already at least as good at the smallest n measured.
    return static_cast<double>(rows.front().n) / static_cast<double>(n);
  }
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double e0 = mle_err(rows[i - 1]);
    const double e1 = mle_err(rows[i]);
    if (e0 > bmf_err && e1 <= bmf_err) {
      const double t =
          (std::log(bmf_err) - std::log(e0)) / (std::log(e1) - std::log(e0));
      const double log_n = std::log(static_cast<double>(rows[i - 1].n)) +
                           t * (std::log(static_cast<double>(rows[i].n)) -
                                std::log(static_cast<double>(rows[i - 1].n)));
      return std::exp(log_n) / static_cast<double>(n);
    }
  }
  // MLE never reaches the BMF error inside the sweep: extrapolate along the
  // last segment's slope.
  const ExperimentRow& a = rows[rows.size() - 2];
  const ExperimentRow& b = rows.back();
  const double slope =
      (std::log(mle_err(b)) - std::log(mle_err(a))) /
      (std::log(static_cast<double>(b.n)) -
       std::log(static_cast<double>(a.n)));
  if (slope >= 0.0) return std::numeric_limits<double>::infinity();
  const double log_n = std::log(static_cast<double>(b.n)) +
                       (std::log(bmf_err) - std::log(mle_err(b))) / slope;
  return std::exp(log_n) / static_cast<double>(n);
}

}  // namespace bmfusion::core
