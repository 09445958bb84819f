// Tests for the unified estimator API, the sufficient-statistic CV engine
// (golden-value parity against a reference implementation of the original
// materialize-per-fold engine), and the persistent thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "core/bmf_estimator.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/mle.hpp"
#include "core/moments.hpp"
#include "core/normal_wishart.hpp"
#include "core/univariate_bmf.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"

namespace bmfusion::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

GaussianMoments toy_moments(std::size_t d = 2) {
  GaussianMoments m;
  m.mean = Vector(d);
  m.covariance = Matrix(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    m.mean[i] = 0.2 * static_cast<double>(i) - 0.3;
    for (std::size_t j = 0; j < d; ++j) {
      m.covariance(i, j) =
          std::pow(0.5, static_cast<double>(i > j ? i - j : j - i));
    }
  }
  return m;
}

Matrix draws(const GaussianMoments& m, std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  return stats::MultivariateNormal(m.mean, m.covariance)
      .sample_matrix(rng, n);
}

// ------------------------------------------------------- sufficient stats

TEST(SufficientStats, MatchesDirectMeanAndScatter) {
  const Matrix samples = draws(toy_moments(3), 40, 1);
  const SufficientStats stats = SufficientStats::from_samples(samples);
  EXPECT_EQ(stats.count(), 40u);
  EXPECT_TRUE(approx_equal(stats.mean(), stats::sample_mean(samples), 1e-12));
  EXPECT_TRUE(approx_equal(stats.scatter(), stats::scatter_matrix(samples),
                           1e-9));
}

TEST(SufficientStats, AddAndSubtractAreSetOperations) {
  const Matrix a = draws(toy_moments(), 7, 2);
  const Matrix b = draws(toy_moments(), 5, 3);
  const SufficientStats sa = SufficientStats::from_samples(a);
  const SufficientStats sb = SufficientStats::from_samples(b);
  const SufficientStats sum = sa + sb;
  EXPECT_EQ(sum.count(), 12u);
  const SufficientStats back = sum - sb;
  EXPECT_EQ(back.count(), 7u);
  EXPECT_TRUE(approx_equal(back.mean(), sa.mean(), 1e-12));
  EXPECT_TRUE(approx_equal(back.scatter(), sa.scatter(), 1e-9));
  EXPECT_THROW((void)(sa - sum), ContractError);
}

TEST(SufficientStats, LogLikelihoodMatchesMvn) {
  const GaussianMoments m = toy_moments(3);
  const Matrix samples = draws(m, 25, 4);
  const double direct = log_likelihood(m, samples);
  const double via_stats =
      log_likelihood(m, SufficientStats::from_samples(samples));
  EXPECT_NEAR(direct, via_stats, 1e-9 * std::fabs(direct) + 1e-9);
}

TEST(SufficientStats, PosteriorOverloadMatchesMatrixPath) {
  const GaussianMoments early = toy_moments();
  const Matrix samples = draws(early, 15, 5);
  const NormalWishart prior =
      NormalWishart::from_early_stage(early, 4.0, 9.0);
  const NormalWishart via_matrix = prior.posterior(samples);
  const NormalWishart via_stats =
      prior.posterior(SufficientStats::from_samples(samples));
  EXPECT_TRUE(approx_equal(via_matrix.mu0(), via_stats.mu0(), 1e-12));
  EXPECT_TRUE(approx_equal(via_matrix.t0(), via_stats.t0(), 1e-9));
  EXPECT_DOUBLE_EQ(via_matrix.kappa0(), via_stats.kappa0());
  EXPECT_DOUBLE_EQ(via_matrix.nu0(), via_stats.nu0());
  EXPECT_NEAR(prior.log_marginal_likelihood(samples),
              prior.log_marginal_likelihood(
                  SufficientStats::from_samples(samples)),
              1e-9);
}

TEST(SufficientStats, MapFuseMatchesPosteriorMode) {
  const GaussianMoments early = toy_moments(3);
  const Matrix samples = draws(early, 20, 6);
  const GaussianMoments via_posterior =
      NormalWishart::from_early_stage(early, 5.0, 12.0)
          .posterior(samples)
          .map_estimate();
  const GaussianMoments fused =
      map_fuse(early, SufficientStats::from_samples(samples), 5.0, 12.0);
  EXPECT_TRUE(approx_equal(fused.mean, via_posterior.mean, 1e-10));
  EXPECT_TRUE(approx_equal(fused.covariance, via_posterior.covariance,
                           1e-9));
}

// ------------------------------------------- CV engine golden-value parity

/// Reference implementation: the original engine, which materialized
/// train/test matrices per fold and ran the full posterior -> MAP -> mvn
/// pipeline at every grid point.
Matrix fold_rows(const Matrix& samples, std::size_t folds, std::size_t fold,
                 bool training) {
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    const bool in_test = (i % folds) == fold;
    if (in_test != training) keep.push_back(i);
  }
  Matrix out(keep.size(), samples.cols());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    out.set_row(i, samples.row(keep[i]));
  }
  return out;
}

std::vector<GridScore> reference_grid(const GaussianMoments& early,
                                      const Matrix& late,
                                      const CrossValidationConfig& config) {
  const std::size_t folds = std::min(config.folds, late.rows());
  const double d = static_cast<double>(early.dimension());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nu_offsets = log_spaced(
      config.nu_offset_min, config.nu_offset_max, config.nu_points);
  std::vector<Matrix> train, test;
  for (std::size_t q = 0; q < folds; ++q) {
    train.push_back(fold_rows(late, folds, q, true));
    test.push_back(fold_rows(late, folds, q, false));
  }
  std::vector<GridScore> table;
  for (const double kappa0 : kappas) {
    for (const double nu_offset : nu_offsets) {
      const double nu0 = d + nu_offset;
      const NormalWishart prior =
          NormalWishart::from_early_stage(early, kappa0, nu0);
      double total = 0.0;
      std::size_t count = 0;
      bool valid = true;
      for (std::size_t q = 0; q < folds && valid; ++q) {
        try {
          const GaussianMoments map =
              prior.posterior(train[q]).map_estimate();
          total += stats::MultivariateNormal(map.mean, map.covariance)
                       .log_likelihood(test[q]);
          count += test[q].rows();
        } catch (const NumericError&) {
          valid = false;
        }
      }
      GridScore gs;
      gs.kappa0 = kappa0;
      gs.nu0 = nu0;
      gs.score = (valid && count > 0)
                     ? total / static_cast<double>(count)
                     : -std::numeric_limits<double>::infinity();
      table.push_back(gs);
    }
  }
  return table;
}

TEST(CvParity, GridMatchesReferenceEngineTo1em9) {
  const GaussianMoments early = toy_moments(4);
  const Matrix late = draws(early, 50, 7);
  const CrossValidationConfig config;  // paper defaults: 12x12, Q = 4
  const std::vector<GridScore> ref = reference_grid(early, late, config);
  const CrossValidationResult sel =
      select_hyperparameters(early, late, config);
  ASSERT_EQ(sel.grid().size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_DOUBLE_EQ(sel.grid()[i].kappa0, ref[i].kappa0);
    EXPECT_DOUBLE_EQ(sel.grid()[i].nu0, ref[i].nu0);
    EXPECT_NEAR(sel.grid()[i].score, ref[i].score, 1e-9)
        << "grid index " << i;
  }
}

TEST(CvParity, SelectionMatchesReferenceArgmax) {
  const GaussianMoments early = toy_moments(3);
  const Matrix late = draws(early, 23, 8);  // ragged folds: 23 % 4 != 0
  const CrossValidationConfig config;
  const std::vector<GridScore> ref = reference_grid(early, late, config);
  double best = -std::numeric_limits<double>::infinity();
  double best_kappa = 0.0, best_nu = 0.0;
  for (const GridScore& gs : ref) {
    if (gs.score > best) {
      best = gs.score;
      best_kappa = gs.kappa0;
      best_nu = gs.nu0;
    }
  }
  const CrossValidationResult sel =
      select_hyperparameters(early, late, config);
  EXPECT_DOUBLE_EQ(sel.kappa0, best_kappa);
  EXPECT_DOUBLE_EQ(sel.nu0, best_nu);
  EXPECT_NEAR(sel.score, best, 1e-9);
}

// --------------------------------------------------- thread-pool determinism

TEST(ThreadPoolDeterminism, CvGridIdenticalAcrossThreadCounts) {
  const GaussianMoments early = toy_moments(3);
  const Matrix late = draws(early, 30, 9);
  CrossValidationConfig config;
  const CrossValidationResult one =
      select_hyperparameters(early, late, config.with_threads(1));
  const CrossValidationResult two =
      select_hyperparameters(early, late, config.with_threads(2));
  const CrossValidationResult eight =
      select_hyperparameters(early, late, config.with_threads(8));
  ASSERT_EQ(one.grid().size(), two.grid().size());
  ASSERT_EQ(one.grid().size(), eight.grid().size());
  for (std::size_t i = 0; i < one.grid().size(); ++i) {
    // Bitwise identical: the engine evaluates every grid point with the
    // same scalar code regardless of which worker claims it.
    EXPECT_EQ(one.grid()[i].score, two.grid()[i].score);
    EXPECT_EQ(one.grid()[i].score, eight.grid()[i].score);
  }
  EXPECT_EQ(one.kappa0, eight.kappa0);
  EXPECT_EQ(one.nu0, eight.nu0);
}

TEST(ThreadPoolDeterminism, EvidenceGridIdenticalAcrossThreadCounts) {
  const GaussianMoments early = toy_moments();
  const Matrix late = draws(early, 11, 10);
  CrossValidationConfig config;
  const CrossValidationResult one =
      select_hyperparameters_evidence(early, late, config.with_threads(1));
  const CrossValidationResult many =
      select_hyperparameters_evidence(early, late, config.with_threads(7));
  for (std::size_t i = 0; i < one.grid().size(); ++i) {
    EXPECT_EQ(one.grid()[i].score, many.grid()[i].score);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u, 16u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for(
        hits.size(), [&](std::size_t i) { ++hits[i]; }, threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, PropagatesBodyExceptions) {
  EXPECT_THROW(
      parallel_for(
          64,
          [](std::size_t i) {
            if (i == 13) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A body that itself calls parallel_for must not deadlock the pool.
  std::atomic<int> total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        parallel_for(
            8, [&](std::size_t) { ++total; }, 4);
      },
      4);
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ReusableAfterException) {
  // The pool survives a throwing region and serves later ones.
  try {
    parallel_for(
        32, [](std::size_t) { throw NumericError("first"); }, 4);
    FAIL() << "expected throw";
  } catch (const NumericError&) {
  }
  std::atomic<int> count{0};
  parallel_for(32, [&](std::size_t) { ++count; }, 4);
  EXPECT_EQ(count.load(), 32);
}

// --------------------------------------------------- estimator conformance

TEST(MomentEstimatorApi, PolymorphicDispatchOverAllStrategies) {
  const GaussianMoments truth = toy_moments();
  const Matrix late = draws(truth, 24, 11);

  const MleEstimator mle;
  const BmfEstimator bmf(EarlyStageKnowledge{truth, truth.mean},
                         BmfConfig{}.with_shift_scale(false));
  const UnivariateBmfEstimator uni(truth);
  const std::vector<const MomentEstimator*> estimators{&mle, &bmf, &uni};

  for (const MomentEstimator* estimator : estimators) {
    const EstimateResult r = estimator->estimate(late);
    EXPECT_FALSE(estimator->name().empty());
    EXPECT_EQ(r.moments.dimension(), 2u);
    EXPECT_TRUE(r.moments.mean.is_finite());
    EXPECT_TRUE(r.moments.covariance.is_finite());
  }
}

TEST(MomentEstimatorApi, MleAdapterMatchesFreeFunction) {
  const Matrix late = draws(toy_moments(3), 17, 12);
  const MleEstimator mle;
  const EstimateResult r = mle.estimate(late);
  const GaussianMoments direct = estimate_mle(late);
  EXPECT_TRUE(approx_equal(r.moments.mean, direct.mean, 1e-15));
  EXPECT_TRUE(approx_equal(r.moments.covariance, direct.covariance, 1e-15));
  EXPECT_TRUE(std::isnan(r.kappa0));
  EXPECT_TRUE(std::isnan(r.nu0));
  EXPECT_TRUE(std::isnan(r.score));
  EXPECT_EQ(mle.name(), "mle");
}

TEST(MomentEstimatorApi, BmfAdapterMatchesEstimateScaled) {
  const GaussianMoments truth = toy_moments();
  const Matrix late = draws(truth, 14, 13);
  const BmfEstimator bmf(EarlyStageKnowledge{truth, truth.mean},
                         BmfConfig{}.with_shift_scale(false));
  const EstimateResult via_api = bmf.estimate(late);
  const BmfResult direct =
      BmfEstimator::estimate_scaled(truth, late, CrossValidationConfig{});
  EXPECT_DOUBLE_EQ(via_api.kappa0, direct.kappa0);
  EXPECT_DOUBLE_EQ(via_api.nu0, direct.nu0);
  EXPECT_DOUBLE_EQ(via_api.score, direct.score);
  EXPECT_TRUE(approx_equal(via_api.moments.mean, direct.moments.mean,
                           1e-15));
  EXPECT_EQ(bmf.name(), "bmf");
}

TEST(MomentEstimatorApi, BmfBatchHonorsEvidenceSelection) {
  // estimate() selects by config().selection, as snapshot() does, so one
  // estimator gives one answer on the same data.
  const GaussianMoments truth = toy_moments(3);
  const Matrix late = draws(truth, 16, 1);
  BmfEstimator bmf(EarlyStageKnowledge{truth, truth.mean},
                   BmfConfig{}.with_shift_scale(false).with_selection(
                       HyperSelection::kEvidence));
  const EstimateResult batch = bmf.estimate(late);
  const CrossValidationResult evidence =
      select_hyperparameters_evidence(truth, late, bmf.config().cv);
  EXPECT_EQ(batch.kappa0, evidence.kappa0);
  EXPECT_EQ(batch.nu0, evidence.nu0);
  EXPECT_EQ(batch.score, evidence.score);
  const CrossValidationResult cv =
      select_hyperparameters(truth, late, bmf.config().cv);
  EXPECT_FALSE(batch.kappa0 == cv.kappa0 && batch.nu0 == cv.nu0);

  bmf.observe(late);
  const EstimateResult streamed = bmf.snapshot();
  EXPECT_EQ(streamed.kappa0, batch.kappa0);
  EXPECT_EQ(streamed.nu0, batch.nu0);
}

TEST(MomentEstimatorApi, ShiftScaleRequiresNominal) {
  const GaussianMoments truth = toy_moments();
  const BmfEstimator bmf(EarlyStageKnowledge{truth, truth.mean});
  const Matrix late = draws(truth, 10, 14);
  EXPECT_THROW((void)bmf.estimate(late), ContractError);        // no nominal
  EXPECT_NO_THROW((void)bmf.estimate(late, truth.mean));
}

TEST(MomentEstimatorApi, RejectsMalformedInputs) {
  const MleEstimator mle;
  EXPECT_THROW((void)mle.estimate(Matrix()), ContractError);
  EXPECT_THROW((void)mle.estimate(Matrix{{1.0, 2.0}}, Vector(3)),
               ContractError);
}

// ------------------------------------------------------------ fluent config

TEST(FluentConfig, SettersChainAndValidate) {
  const CrossValidationConfig cv = CrossValidationConfig{}
                                       .with_folds(5)
                                       .with_grid(6, 7)
                                       .with_kappa_range(0.5, 50.0)
                                       .with_nu_offset_range(2.0, 20.0)
                                       .with_threads(3);
  EXPECT_EQ(cv.folds, 5u);
  EXPECT_EQ(cv.kappa_points, 6u);
  EXPECT_EQ(cv.nu_points, 7u);
  EXPECT_DOUBLE_EQ(cv.kappa_min, 0.5);
  EXPECT_DOUBLE_EQ(cv.nu_offset_max, 20.0);
  EXPECT_EQ(cv.threads, 3u);
  EXPECT_NO_THROW(cv.validate());
  EXPECT_THROW(CrossValidationConfig{}.with_grid(1, 5).validate(),
               ContractError);
  EXPECT_THROW(CrossValidationConfig{}.with_kappa_range(-1.0, 2.0).validate(),
               ContractError);

  const BmfConfig bmf = BmfConfig{}.with_cv(cv).with_shift_scale(false);
  EXPECT_FALSE(bmf.apply_shift_scale);
  EXPECT_EQ(bmf.cv.folds, 5u);
  EXPECT_NO_THROW(bmf.validate());
}

TEST(FluentConfig, BadCvConfigRejectedAtEstimatorConstruction) {
  const GaussianMoments truth = toy_moments();
  BmfConfig bad;
  bad.cv.kappa_points = 0;
  EXPECT_THROW(BmfEstimator(EarlyStageKnowledge{truth, truth.mean}, bad),
               ContractError);
}

}  // namespace
}  // namespace bmfusion::core
