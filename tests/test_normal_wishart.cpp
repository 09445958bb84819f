// Tests for the normal-Wishart prior, posterior update and MAP estimation —
// the mathematical core of the paper (Sections 3.2-3.3).
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "core/mle.hpp"
#include "core/normal_wishart.hpp"
#include "linalg/cholesky.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"
#include "stats/univariate.hpp"
#include "stats/wishart.hpp"

namespace bmfusion::core {
namespace {

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

GaussianMoments example_moments() {
  GaussianMoments m;
  m.mean = Vector{1.0, -2.0, 0.5};
  m.covariance = Matrix{{2.0, 0.3, 0.1}, {0.3, 1.0, -0.2}, {0.1, -0.2, 1.5}};
  return m;
}

Matrix gaussian_samples(const GaussianMoments& m, std::size_t n,
                        std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  return stats::MultivariateNormal(m.mean, m.covariance)
      .sample_matrix(rng, n);
}

TEST(NormalWishart, ConstructionValidation) {
  EXPECT_THROW(NormalWishart(Vector{0.0}, 0.0, 2.0, Matrix{{1.0}}),
               ContractError);  // kappa0 <= 0
  EXPECT_THROW(NormalWishart(Vector(3), 1.0, 1.5, Matrix::identity(3)),
               ContractError);  // nu0 <= d - 1
  EXPECT_THROW(NormalWishart(Vector(2), 1.0, 5.0, Matrix{{1.0, 2.0},
                                                         {2.0, 1.0}}),
               NumericError);  // scale not SPD
}

TEST(NormalWishart, EarlyStageAnchoringReproducesPaperEq1920) {
  const GaussianMoments early = example_moments();
  const double nu0 = 20.0;
  const NormalWishart prior = NormalWishart::from_early_stage(early, 5.0, nu0);
  // mu0 = mu_E (eq. 19).
  EXPECT_TRUE(approx_equal(prior.mu0(), early.mean, 1e-14));
  // T0 = Lambda_E / (nu0 - d) (eq. 20).
  const Matrix lambda_e = Cholesky(early.covariance).inverse();
  EXPECT_TRUE(approx_equal(prior.t0(), lambda_e / (nu0 - 3.0), 1e-12));
}

TEST(NormalWishart, ModeMatchesEarlyMomentsExactly) {
  // The anchored prior must peak exactly at the early-stage moments
  // (eqs. 15-18): mode_moments() == early.
  const GaussianMoments early = example_moments();
  const NormalWishart prior =
      NormalWishart::from_early_stage(early, 2.0, 12.0);
  const GaussianMoments mode = prior.mode_moments();
  EXPECT_TRUE(approx_equal(mode.mean, early.mean, 1e-12));
  EXPECT_TRUE(approx_equal(mode.covariance, early.covariance, 1e-10));
}

TEST(NormalWishart, AnchoringRequiresNuAboveD) {
  EXPECT_THROW(
      (void)NormalWishart::from_early_stage(example_moments(), 1.0, 3.0),
      ContractError);
}

TEST(NormalWishart, PosteriorHyperparametersFollowEqs2428) {
  const GaussianMoments early = example_moments();
  const double kappa0 = 4.0, nu0 = 15.0;
  const NormalWishart prior =
      NormalWishart::from_early_stage(early, kappa0, nu0);
  const Matrix samples = gaussian_samples(early, 10, 1);
  const NormalWishart post = prior.posterior(samples);

  const double n = 10.0;
  EXPECT_DOUBLE_EQ(post.kappa0(), kappa0 + n);  // eq. 28
  EXPECT_DOUBLE_EQ(post.nu0(), nu0 + n);        // eq. 27

  // eq. 24.
  const Vector xbar = stats::sample_mean(samples);
  const Vector expected_mu =
      (early.mean * kappa0 + xbar * n) / (kappa0 + n);
  EXPECT_TRUE(approx_equal(post.mu0(), expected_mu, 1e-12));

  // eq. 25: T_n^{-1} = T_0^{-1} + S + k0 n/(k0+n) d d^T.
  const Matrix s = stats::scatter_matrix(samples);
  const Vector d = early.mean - xbar;
  const Matrix tn_inv_expected = Cholesky(prior.t0()).inverse() + s +
                                 outer(d, d) * (kappa0 * n / (kappa0 + n));
  const Matrix tn_inv_actual = Cholesky(post.t0()).inverse();
  EXPECT_TRUE(approx_equal(tn_inv_actual, tn_inv_expected, 1e-8));
}

TEST(NormalWishart, MapMatchesPaperEq3132ClosedForm) {
  const GaussianMoments early = example_moments();
  const double kappa0 = 7.0, nu0 = 25.0;
  const std::size_t n = 12;
  const Matrix samples = gaussian_samples(early, n, 2);
  const GaussianMoments map = NormalWishart::from_early_stage(early, kappa0,
                                                              nu0)
                                  .posterior(samples)
                                  .map_estimate();

  const double nd = static_cast<double>(n);
  const double d = 3.0;
  const Vector xbar = stats::sample_mean(samples);
  const Matrix s = stats::scatter_matrix(samples);
  const Vector delta = early.mean - xbar;
  // eq. 31.
  const Vector mu_expected = (early.mean * kappa0 + xbar * nd) / (kappa0 + nd);
  // eq. 32.
  const Matrix sigma_expected =
      (early.covariance * (nu0 - d) + s +
       outer(delta, delta) * (kappa0 * nd / (kappa0 + nd))) /
      (nu0 + nd - d);
  EXPECT_TRUE(approx_equal(map.mean, mu_expected, 1e-12));
  EXPECT_TRUE(approx_equal(map.covariance, sigma_expected, 1e-9));
}

TEST(NormalWishart, SmallHyperparametersRecoverMle) {
  // Paper eqs. 34/36: kappa0 -> 0, nu0 -> d makes MAP converge to MLE.
  const GaussianMoments early = example_moments();
  const Matrix samples = gaussian_samples(early, 30, 3);
  const GaussianMoments map =
      NormalWishart::from_early_stage(early, 1e-8, 3.0 + 1e-8)
          .posterior(samples)
          .map_estimate();
  const GaussianMoments mle = estimate_mle(samples);
  EXPECT_TRUE(approx_equal(map.mean, mle.mean, 1e-6));
  EXPECT_TRUE(approx_equal(map.covariance, mle.covariance, 1e-5));
}

TEST(NormalWishart, LargeHyperparametersRecoverPrior) {
  // Paper eqs. 33/35: kappa0, nu0 -> infinity makes MAP stick to the prior.
  const GaussianMoments early = example_moments();
  GaussianMoments other = early;
  other.mean = Vector{5.0, 5.0, 5.0};
  const Matrix samples = gaussian_samples(other, 10, 4);
  const GaussianMoments map =
      NormalWishart::from_early_stage(early, 1e9, 1e9)
          .posterior(samples)
          .map_estimate();
  EXPECT_TRUE(approx_equal(map.mean, early.mean, 1e-6));
  EXPECT_TRUE(approx_equal(map.covariance, early.covariance, 1e-5));
}

TEST(NormalWishart, PosteriorCovarianceAlwaysSpd) {
  // Even with n = 2 samples in d = 3 (rank-deficient scatter), the MAP
  // covariance stays SPD thanks to the prior term.
  const GaussianMoments early = example_moments();
  const Matrix samples = gaussian_samples(early, 2, 5);
  const GaussianMoments map =
      NormalWishart::from_early_stage(early, 2.0, 6.0)
          .posterior(samples)
          .map_estimate();
  EXPECT_TRUE(Cholesky::is_positive_definite(map.covariance));
}

TEST(NormalWishart, SequentialUpdateEqualsBatchUpdate) {
  // Conjugacy: posterior(A then B) == posterior(A union B).
  const GaussianMoments early = example_moments();
  const Matrix all = gaussian_samples(early, 20, 6);
  Matrix first(10, 3), second(10, 3);
  for (std::size_t i = 0; i < 10; ++i) {
    first.set_row(i, all.row(i));
    second.set_row(i, all.row(10 + i));
  }
  const NormalWishart prior = NormalWishart::from_early_stage(early, 3.0,
                                                              10.0);
  const NormalWishart sequential = prior.posterior(first).posterior(second);
  const NormalWishart batch = prior.posterior(all);
  EXPECT_DOUBLE_EQ(sequential.kappa0(), batch.kappa0());
  EXPECT_DOUBLE_EQ(sequential.nu0(), batch.nu0());
  EXPECT_TRUE(approx_equal(sequential.mu0(), batch.mu0(), 1e-10));
  EXPECT_TRUE(approx_equal(sequential.t0(), batch.t0(), 1e-10));
}

TEST(NormalWishart, LogPdfEqualsGaussianTimesWishart) {
  // eq. 12 is N(mu | mu0, (k0 Lambda)^-1) * Wi_{nu0}(Lambda | T0); verify
  // against the independent stats:: implementations.
  const Vector mu0{0.5, -0.5};
  const Matrix t0{{0.2, 0.02}, {0.02, 0.3}};
  const double kappa0 = 3.0, nu0 = 8.0;
  const NormalWishart nw(mu0, kappa0, nu0, t0);

  const Vector mu{0.8, -0.1};
  const Matrix lambda{{1.5, -0.2}, {-0.2, 2.0}};
  const double joint = nw.log_pdf(mu, lambda);

  const Matrix gauss_cov = Cholesky(lambda * kappa0).inverse();
  const double log_gauss =
      stats::MultivariateNormal(mu0, gauss_cov).log_pdf(mu);
  const double log_wishart = stats::Wishart(nu0, t0).log_pdf(lambda);
  EXPECT_NEAR(joint, log_gauss + log_wishart, 1e-9);
}

TEST(NormalWishart, LogPdfPeaksAtMode) {
  const GaussianMoments early = example_moments();
  const NormalWishart prior =
      NormalWishart::from_early_stage(early, 5.0, 20.0);
  const auto [mu_m, lambda_m] = prior.mode();
  const double peak = prior.log_pdf(mu_m, lambda_m);
  // Perturbations in both arguments lower the density.
  Vector mu_off = mu_m;
  mu_off[0] += 0.5;
  EXPECT_GT(peak, prior.log_pdf(mu_off, lambda_m));
  EXPECT_GT(peak, prior.log_pdf(mu_m, lambda_m * 1.4));
  EXPECT_GT(peak, prior.log_pdf(mu_m, lambda_m * 0.6));
}

TEST(NormalWishart, SamplesConcentrateWithLargeHyperparameters) {
  const GaussianMoments early = example_moments();
  const NormalWishart tight =
      NormalWishart::from_early_stage(early, 1e6, 1e6);
  stats::Xoshiro256pp rng(7);
  const auto [mu, lambda] = tight.sample(rng);
  EXPECT_TRUE(approx_equal(mu, early.mean, 0.01));
  const Matrix sigma = Cholesky(lambda).inverse();
  EXPECT_TRUE(approx_equal(sigma, early.covariance, 0.05));
}

TEST(NormalWishart, SampleMeanOfMuEqualsMu0) {
  const NormalWishart nw(Vector{1.0, 2.0}, 2.0, 6.0,
                         Matrix::identity(2) * 0.25);
  stats::Xoshiro256pp rng(8);
  Vector acc(2);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    acc += nw.sample(rng).first;
  }
  acc /= static_cast<double>(kN);
  EXPECT_TRUE(approx_equal(acc, Vector{1.0, 2.0}, 0.02));
}

TEST(NormalWishart, PosteriorPredictiveIsHeavierThanGaussian) {
  const GaussianMoments early = example_moments();
  const NormalWishart prior = NormalWishart::from_early_stage(early, 2.0,
                                                              10.0);
  const NormalWishart::StudentT t = prior.posterior_predictive();
  EXPECT_NEAR(t.dof, 10.0 - 3.0 + 1.0, 1e-12);
  EXPECT_TRUE(approx_equal(t.location, early.mean, 1e-12));
  // Tail comparison: far from the mean the t density dominates a Gaussian
  // with the same location/scale.
  Vector far = early.mean;
  far[0] += 20.0;
  const double log_t = NormalWishart::student_t_log_pdf(t, far);
  const stats::MultivariateNormal g(t.location, t.scale);
  EXPECT_GT(log_t, g.log_pdf(far));
}

TEST(NormalWishart, StudentTLogPdfNormalLimit) {
  // As dof -> infinity the multivariate t tends to the Gaussian.
  NormalWishart::StudentT t;
  t.dof = 1e7;
  t.location = Vector{0.0, 0.0};
  t.scale = Matrix::identity(2);
  const stats::MultivariateNormal g(t.location, t.scale);
  const Vector x{0.7, -0.3};
  EXPECT_NEAR(NormalWishart::student_t_log_pdf(t, x), g.log_pdf(x), 1e-5);
}

TEST(NormalWishart, PosteriorInputValidation) {
  const NormalWishart prior =
      NormalWishart::from_early_stage(example_moments(), 1.0, 10.0);
  EXPECT_THROW((void)prior.posterior(Matrix(0, 3)), ContractError);
  EXPECT_THROW((void)prior.posterior(Matrix(5, 2)), ContractError);
  EXPECT_THROW((void)prior.log_pdf(Vector(2), Matrix::identity(3)),
               ContractError);
}

TEST(MarginalMean, ShrinksWithKappaAndMatchesSampling) {
  GaussianMoments early;
  early.mean = Vector{1.0, -1.0};
  early.covariance = Matrix{{1.0, 0.2}, {0.2, 0.5}};
  const NormalWishart nw = NormalWishart::from_early_stage(early, 8.0, 20.0);
  const NormalWishart::StudentT marg = nw.marginal_mean();
  EXPECT_NEAR(marg.dof, 20.0 - 2.0 + 1.0, 1e-12);
  EXPECT_TRUE(approx_equal(marg.location, early.mean, 1e-12));

  // Monte-Carlo check: the covariance of mu draws from the joint matches
  // the marginal-t covariance scale * dof/(dof-2).
  stats::Xoshiro256pp rng(12);
  stats::MomentAccumulator acc(2);
  for (int i = 0; i < 40000; ++i) {
    acc.add(nw.sample(rng).first);
  }
  EXPECT_TRUE(approx_equal(acc.covariance_mle(),
                           marg.scale * (marg.dof / (marg.dof - 2.0)), 0.01));
}

class NormalWishartConsistency
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NormalWishartConsistency, MapErrorShrinksTowardTruthWithMoreData) {
  // With a *correct* prior, the MAP estimate must track the truth at every
  // sample size and beat or match the prior mode as n grows.
  const GaussianMoments truth = example_moments();
  const std::size_t n = GetParam();
  const Matrix samples = gaussian_samples(truth, n, 100 + n);
  const GaussianMoments map =
      NormalWishart::from_early_stage(truth, 10.0, 20.0)
          .posterior(samples)
          .map_estimate();
  EXPECT_LT((map.mean - truth.mean).norm2(), 1.0);
  EXPECT_LT((map.covariance - truth.covariance).norm_frobenius(), 2.0);
  EXPECT_TRUE(Cholesky::is_positive_definite(map.covariance));
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, NormalWishartConsistency,
                         ::testing::Values(2, 4, 8, 16, 64, 256));

}  // namespace
}  // namespace bmfusion::core
