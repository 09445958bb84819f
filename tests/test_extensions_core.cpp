// Tests for the core extensions: evidence-based hyper-parameter selection
// and the streaming conjugate posterior.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/cross_validation.hpp"
#include "core/mle.hpp"
#include "core/normal_wishart.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"
#include "stats/univariate.hpp"

namespace bmfusion::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

GaussianMoments toy_moments() {
  GaussianMoments m;
  m.mean = Vector{1.0, -1.0};
  m.covariance = Matrix{{1.0, 0.3}, {0.3, 0.8}};
  return m;
}

Matrix draws(const GaussianMoments& m, std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  return stats::MultivariateNormal(m.mean, m.covariance)
      .sample_matrix(rng, n);
}

// ---------------------------------------------------------------- evidence

TEST(Evidence, MarginalLikelihoodMatchesNumericalIntegrationIn1d) {
  // d = 1: integrate p(D | mu, lambda) p(mu, lambda) over a dense grid and
  // compare with the closed form.
  GaussianMoments early;
  early.mean = Vector{0.5};
  early.covariance = Matrix{{2.0}};
  const double kappa0 = 2.0, nu0 = 5.0;
  const NormalWishart prior =
      NormalWishart::from_early_stage(early, kappa0, nu0);
  const Matrix samples{{0.2}, {1.1}, {0.7}};

  // Numerical double integral over (mu, lambda).
  double integral = 0.0;
  const double dmu = 0.02;
  const double dlam = 0.002;
  for (double mu = -6.0; mu <= 7.0; mu += dmu) {
    for (double lam = dlam; lam <= 6.0; lam += dlam) {
      const Matrix lambda{{lam}};
      double log_lik = 0.0;
      for (std::size_t i = 0; i < samples.rows(); ++i) {
        log_lik += 0.5 * std::log(lam / (2.0 * 3.14159265358979323846)) -
                   0.5 * lam * (samples(i, 0) - mu) * (samples(i, 0) - mu);
      }
      integral += std::exp(prior.log_pdf(Vector{mu}, lambda) + log_lik) *
                  dmu * dlam;
    }
  }
  EXPECT_NEAR(prior.log_marginal_likelihood(samples), std::log(integral),
              0.02);
}

TEST(Evidence, HigherForMatchingPrior) {
  // Evidence under the correct prior beats evidence under a wrong one.
  const GaussianMoments truth = toy_moments();
  GaussianMoments wrong = truth;
  wrong.mean = Vector{8.0, 8.0};
  const Matrix samples = draws(truth, 12, 1);
  const double good = NormalWishart::from_early_stage(truth, 10.0, 30.0)
                          .log_marginal_likelihood(samples);
  const double bad = NormalWishart::from_early_stage(wrong, 10.0, 30.0)
                         .log_marginal_likelihood(samples);
  EXPECT_GT(good, bad);
}

TEST(Evidence, SelectionPrefersLargeHypersForPerfectPrior) {
  // Evidence trades fit against complexity, so the exact values depend on
  // n; what must hold is a clear preference over near-MLE hyper-parameters.
  const GaussianMoments truth = toy_moments();
  const Matrix samples = draws(truth, 32, 2);
  const CrossValidationResult sel =
      select_hyperparameters_evidence(truth, samples);
  EXPECT_GT(sel.kappa0, 5.0);
  EXPECT_GT(sel.nu0, 8.0);
  const double at_weak =
      NormalWishart::from_early_stage(truth, 1.0, 3.0)
          .log_marginal_likelihood(samples);
  EXPECT_GT(sel.score * 32.0, at_weak);
}

TEST(Evidence, SelectionRejectsWrongPriorMean) {
  GaussianMoments wrong = toy_moments();
  wrong.mean = Vector{15.0, -15.0};
  const Matrix samples = draws(toy_moments(), 24, 3);
  const CrossValidationResult sel =
      select_hyperparameters_evidence(wrong, samples);
  EXPECT_LT(sel.kappa0, 5.0);
}

TEST(Evidence, WorksWithSingleSample) {
  // CV needs >= 2 samples; evidence selection works from n = 1.
  const GaussianMoments truth = toy_moments();
  const Matrix one = draws(truth, 1, 4);
  EXPECT_NO_THROW((void)select_hyperparameters_evidence(truth, one));
  EXPECT_THROW((void)select_hyperparameters(truth, one), ContractError);
}

TEST(Evidence, AgreesWithCvOnEstimationQuality) {
  // Both selectors should produce MAP estimates of comparable quality on a
  // well-posed problem (within 2x of each other's covariance error).
  const GaussianMoments truth = toy_moments();
  double cv_err = 0.0, ev_err = 0.0;
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    const Matrix samples = draws(truth, 12, 100 + rep);
    const CrossValidationResult cv = select_hyperparameters(truth, samples);
    const CrossValidationResult ev =
        select_hyperparameters_evidence(truth, samples);
    cv_err += covariance_error(
        BmfEstimator::fuse_at(truth, samples, cv.kappa0, cv.nu0).covariance,
        truth.covariance);
    ev_err += covariance_error(
        BmfEstimator::fuse_at(truth, samples, ev.kappa0, ev.nu0).covariance,
        truth.covariance);
  }
  EXPECT_LT(ev_err, 2.0 * cv_err);
  EXPECT_LT(cv_err, 2.0 * ev_err);
}

// ------------------------------------------------------ streaming posterior
// The conjugate update is NormalWishart::posterior(SufficientStats), one
// O(d^3) update per batch; live estimator monitoring is the MomentEstimator
// observe/snapshot surface, covered in test_streaming.cpp.

TEST(StreamingPosterior, IncrementalUpdatesMatchBatchPosterior) {
  const GaussianMoments early = toy_moments();
  const NormalWishart prior = NormalWishart::from_early_stage(early, 3.0,
                                                              12.0);
  const Matrix samples = draws(early, 15, 5);

  NormalWishart state = prior;
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    SufficientStats one(2);
    one.add(samples.row(i));
    state = state.posterior(one);
  }
  const NormalWishart batch = prior.posterior(samples);
  EXPECT_NEAR(state.kappa0(), batch.kappa0(), 1e-10);
  EXPECT_NEAR(state.nu0(), batch.nu0(), 1e-10);
  EXPECT_TRUE(approx_equal(state.mu0(), batch.mu0(), 1e-9));
  EXPECT_TRUE(approx_equal(state.map_estimate().covariance,
                           batch.map_estimate().covariance, 1e-7));
}

TEST(StreamingPosterior, EstimateConvergesToTruth) {
  // Prior deliberately wrong; enough streamed samples pull the estimate to
  // the truth.
  GaussianMoments wrong = toy_moments();
  wrong.mean = Vector{5.0, 5.0};
  const GaussianMoments truth = toy_moments();
  const NormalWishart state =
      NormalWishart::from_early_stage(wrong, 1.0, 4.0)
          .posterior(SufficientStats::from_samples(draws(truth, 2000, 6)));
  EXPECT_TRUE(approx_equal(state.map_estimate().mean, truth.mean, 0.1));
}

TEST(StreamingPosterior, PredictiveScoresOutliers) {
  const GaussianMoments early = toy_moments();
  const NormalWishart state =
      NormalWishart::from_early_stage(early, 5.0, 20.0)
          .posterior(SufficientStats::from_samples(draws(early, 20, 7)));
  const double typical =
      NormalWishart::student_t_log_pdf(state.posterior_predictive(),
                                       early.mean);
  Vector outlier = early.mean;
  outlier[0] += 10.0;
  EXPECT_GT(typical,
            NormalWishart::student_t_log_pdf(state.posterior_predictive(),
                                             outlier) +
                5.0);
}

}  // namespace
}  // namespace bmfusion::core
