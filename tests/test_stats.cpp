// Tests for the stats substrate: RNG, special functions, scalar samplers,
// moments, multivariate normal, Wishart, descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "stats/descriptive.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "stats/univariate.hpp"
#include "stats/wishart.hpp"

namespace bmfusion::stats {
namespace {

using linalg::Matrix;
using linalg::Vector;

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256pp a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256pp a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoublesInUnitInterval) {
  Xoshiro256pp rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalfRange) {
  Xoshiro256pp rng(8);
  double acc = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) acc += rng.next_uniform(2.0, 4.0);
  EXPECT_NEAR(acc / kN, 3.0, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256pp rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NextBelowOneAlwaysZero) {
  Xoshiro256pp rng(10);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, JumpProducesDisjointStream) {
  Xoshiro256pp a(11);
  Xoshiro256pp b = a;  // identical state
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsDiffer) {
  Xoshiro256pp parent(12);
  Xoshiro256pp child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitMixExpandsSeeds) {
  SplitMix64 sm(0);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
}

// ----------------------------------------------------------------- special

TEST(Special, NormalPdfPeak) {
  EXPECT_NEAR(standard_normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_NEAR(standard_normal_pdf(1.0), 0.24197072451914337, 1e-15);
}

TEST(Special, NormalCdfKnownValues) {
  EXPECT_NEAR(standard_normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(standard_normal_cdf(1.959963984540054), 0.975, 1e-12);
  EXPECT_NEAR(standard_normal_cdf(-3.0), 0.0013498980316301, 1e-12);
}

TEST(Special, QuantileInvertsCdf) {
  for (const double p : {1e-10, 1e-4, 0.01, 0.3, 0.5, 0.8, 0.999, 1 - 1e-9}) {
    const double x = standard_normal_quantile(p);
    EXPECT_NEAR(standard_normal_cdf(x), p, 1e-12 + 1e-9 * p);
  }
}

TEST(Special, QuantileDomainChecked) {
  EXPECT_THROW((void)standard_normal_quantile(0.0), ContractError);
  EXPECT_THROW((void)standard_normal_quantile(1.0), ContractError);
}

TEST(Special, MultivariateGammaReducesToLgammaInOneDim) {
  EXPECT_NEAR(log_multivariate_gamma(2.5, 1), std::lgamma(2.5), 1e-13);
}

TEST(Special, MultivariateGammaRecurrence) {
  // Gamma_2(a) = pi^{1/2} Gamma(a) Gamma(a - 1/2).
  const double a = 3.0;
  const double expected = 0.5 * std::log(3.14159265358979323846) +
                          std::lgamma(a) + std::lgamma(a - 0.5);
  EXPECT_NEAR(log_multivariate_gamma(a, 2), expected, 1e-12);
}

TEST(Special, MultivariateGammaDomain) {
  EXPECT_THROW((void)log_multivariate_gamma(0.4, 2), ContractError);
}

TEST(Special, LogSumExp) {
  EXPECT_NEAR(log_sum_exp(std::log(2.0), std::log(3.0)), std::log(5.0),
              1e-14);
  // No overflow for large arguments.
  EXPECT_NEAR(log_sum_exp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-10);
}

// -------------------------------------------------------------- univariate

/// First seed whose first polar candidate is rejected (s >= 1), so even a
/// single batched draw walks the rejection branch.
std::uint64_t seed_rejecting_first_candidate() {
  for (std::uint64_t seed = 1;; ++seed) {
    Xoshiro256pp rng(seed);
    const double u = rng.next_uniform(-1.0, 1.0);
    const double v = rng.next_uniform(-1.0, 1.0);
    if (!(u * u + v * v < 1.0)) return seed;
  }
}

TEST(SampleNormalInto, BitwiseMatchesScalarDrawsAndRngState) {
  // n batched draws are n sample_normal calls, bit for bit, and leave the
  // RNG where those calls leave it; 4096 spans several sampler blocks.
  const std::uint64_t seed = seed_rejecting_first_candidate();
  for (const std::size_t n : {0, 1, 7, 4096}) {
    for (const auto& [mean, stddev] :
         {std::pair{0.0, 0.4e-3}, std::pair{-1.25, 3.0}}) {
      Xoshiro256pp scalar_rng(seed);
      Xoshiro256pp batch_rng(seed);
      std::vector<double> expected(n);
      for (double& x : expected) x = sample_normal(scalar_rng, mean, stddev);
      std::vector<double> got(n);
      sample_normal_into(batch_rng, mean, stddev, got);
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        std::memcpy(&a, &got[i], sizeof a);
        std::memcpy(&b, &expected[i], sizeof b);
        ASSERT_EQ(a, b) << "n=" << n << " mean=" << mean << " i=" << i;
      }
      EXPECT_EQ(batch_rng.next_u64(), scalar_rng.next_u64())
          << "n=" << n << " mean=" << mean;
    }
  }
}

TEST(Univariate, NormalSampleMoments) {
  Xoshiro256pp rng(20);
  constexpr int kN = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = sample_normal(rng, 5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.02);
  EXPECT_NEAR(var, 4.0, 0.08);
}

TEST(Univariate, GammaSampleMoments) {
  Xoshiro256pp rng(21);
  const double shape = 3.0, scale = 2.0;
  constexpr int kN = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = sample_gamma(rng, shape, scale);
    EXPECT_GT(x, 0.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, shape * scale, 0.05);          // E = 6
  EXPECT_NEAR(var, shape * scale * scale, 0.4);    // V = 12
}

TEST(Univariate, GammaSmallShapeBoost) {
  Xoshiro256pp rng(22);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += sample_gamma(rng, 0.5, 1.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Univariate, ChiSquaredMean) {
  Xoshiro256pp rng(23);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += sample_chi_squared(rng, 7.0);
  EXPECT_NEAR(sum / kN, 7.0, 0.1);
}

TEST(Univariate, ExponentialMean) {
  Xoshiro256pp rng(24);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += sample_exponential(rng, 4.0);
  EXPECT_NEAR(sum / kN, 0.25, 0.01);
}

TEST(Univariate, LogPdfMatchesClosedForm) {
  EXPECT_NEAR(normal_log_pdf(0.0, 0.0, 1.0), std::log(0.3989422804014327),
              1e-12);
  // Gamma(2, 3) at x = 3: log [x e^{-x/3} / (Gamma(2) 3^2)].
  const double expected = std::log(3.0) - 1.0 - std::lgamma(2.0) -
                          2.0 * std::log(3.0);
  EXPECT_NEAR(gamma_log_pdf(3.0, 2.0, 3.0), expected, 1e-12);
}

TEST(Univariate, ParameterDomainChecks) {
  Xoshiro256pp rng(25);
  EXPECT_THROW((void)sample_normal(rng, 0.0, -1.0), ContractError);
  std::vector<double> out(3);
  EXPECT_THROW(sample_normal_into(rng, 0.0, -1.0, out), ContractError);
  EXPECT_THROW((void)sample_gamma(rng, 0.0, 1.0), ContractError);
  EXPECT_THROW((void)sample_chi_squared(rng, 0.0), ContractError);
  EXPECT_THROW((void)sample_exponential(rng, 0.0), ContractError);
  EXPECT_THROW((void)normal_log_pdf(0.0, 0.0, 0.0), ContractError);
  EXPECT_THROW((void)gamma_log_pdf(-1.0, 2.0, 1.0), ContractError);
}

// ----------------------------------------------------------------- moments

TEST(Moments, SampleMeanAndCovarianceMatchHandComputed) {
  // Three 2-D points: (0,0), (2,0), (1,3).
  const Matrix samples{{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
  const Vector mean = sample_mean(samples);
  EXPECT_TRUE(approx_equal(mean, Vector{1.0, 1.0}, 1e-14));
  const Matrix cov = sample_covariance_mle(samples);
  EXPECT_NEAR(cov(0, 0), 2.0 / 3.0, 1e-14);
  EXPECT_NEAR(cov(1, 1), 2.0, 1e-14);
  EXPECT_NEAR(cov(0, 1), 0.0, 1e-14);
}

TEST(Moments, UnbiasedVsMleScaling) {
  const Matrix samples{{1.0}, {3.0}};
  EXPECT_NEAR(sample_covariance_mle(samples)(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(sample_covariance_unbiased(samples)(0, 0), 2.0, 1e-14);
  EXPECT_THROW((void)sample_covariance_unbiased(Matrix(1, 1)), ContractError);
}

TEST(Moments, ScatterMatrixEqualsNTimesMleCovariance) {
  Xoshiro256pp rng(26);
  Matrix samples(20, 3);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      samples(i, j) = rng.next_uniform(-1, 1);
    }
  }
  EXPECT_TRUE(approx_equal(scatter_matrix(samples),
                           sample_covariance_mle(samples) * 20.0, 1e-10));
}

TEST(Moments, StddevIsSqrtOfDiagonal) {
  const Matrix samples{{0.0, 0.0}, {2.0, 4.0}};
  const Vector sd = sample_stddev(samples);
  EXPECT_NEAR(sd[0], 1.0, 1e-14);
  EXPECT_NEAR(sd[1], 2.0, 1e-14);
}

TEST(Moments, AccumulatorMatchesBatch) {
  Xoshiro256pp rng(27);
  Matrix samples(500, 4);
  MomentAccumulator acc(4);
  for (std::size_t i = 0; i < 500; ++i) {
    Vector x(4);
    for (std::size_t j = 0; j < 4; ++j) x[j] = rng.next_uniform(-5, 5);
    samples.set_row(i, x);
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 500u);
  EXPECT_TRUE(approx_equal(acc.mean(), sample_mean(samples), 1e-10));
  EXPECT_TRUE(approx_equal(acc.covariance_mle(),
                           sample_covariance_mle(samples), 1e-9));
  EXPECT_TRUE(approx_equal(acc.covariance_unbiased(),
                           sample_covariance_unbiased(samples), 1e-9));
}

TEST(Moments, AccumulatorMergeEqualsSequential) {
  Xoshiro256pp rng(28);
  MomentAccumulator whole(3), part_a(3), part_b(3);
  for (int i = 0; i < 100; ++i) {
    Vector x(3);
    for (std::size_t j = 0; j < 3; ++j) x[j] = rng.next_uniform(-1, 1);
    whole.add(x);
    (i < 37 ? part_a : part_b).add(x);
  }
  part_a.merge(part_b);
  EXPECT_TRUE(approx_equal(part_a.mean(), whole.mean(), 1e-12));
  EXPECT_TRUE(approx_equal(part_a.scatter(), whole.scatter(), 1e-9));
}

TEST(Moments, AccumulatorMergeWithEmpty) {
  MomentAccumulator a(2), b(2);
  a.add(Vector{1.0, 2.0});
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 1u);
  EXPECT_TRUE(approx_equal(b.mean(), Vector{1.0, 2.0}, 1e-15));
}

TEST(Moments, AccumulatorPreconditions) {
  MomentAccumulator acc(2);
  EXPECT_THROW((void)acc.mean(), ContractError);
  EXPECT_THROW(acc.add(Vector{1.0}), ContractError);
  acc.add(Vector{1.0, 2.0});
  EXPECT_THROW((void)acc.covariance_unbiased(), ContractError);
}

// --------------------------------------------------------------------- mvn

TEST(Mvn, LogPdfMatchesScalarNormal) {
  const MultivariateNormal mvn(Vector{1.0}, Matrix{{4.0}});
  EXPECT_NEAR(mvn.log_pdf(Vector{2.0}), normal_log_pdf(2.0, 1.0, 2.0), 1e-12);
}

TEST(Mvn, LogPdfKnown2d) {
  // Standard bivariate normal at origin: log(1/(2 pi)).
  const MultivariateNormal mvn(Vector(2), Matrix::identity(2));
  EXPECT_NEAR(mvn.log_pdf(Vector(2)), -std::log(2.0 * 3.14159265358979323846),
              1e-12);
}

TEST(Mvn, SampleMomentsConverge) {
  const Vector mu{1.0, -2.0};
  const Matrix cov{{2.0, 0.8}, {0.8, 1.0}};
  const MultivariateNormal mvn(mu, cov);
  Xoshiro256pp rng(30);
  const Matrix samples = mvn.sample_matrix(rng, 50000);
  EXPECT_TRUE(approx_equal(sample_mean(samples), mu, 0.03));
  EXPECT_TRUE(approx_equal(sample_covariance_mle(samples), cov, 0.05));
}

TEST(Mvn, LogLikelihoodIsSumOfLogPdfs) {
  const MultivariateNormal mvn(Vector(2), Matrix::identity(2));
  const Matrix samples{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_NEAR(mvn.log_likelihood(samples),
              mvn.log_pdf(samples.row(0)) + mvn.log_pdf(samples.row(1)),
              1e-12);
}

TEST(Mvn, MahalanobisOfMeanIsZero) {
  const MultivariateNormal mvn(Vector{3.0, 4.0}, Matrix::identity(2));
  EXPECT_NEAR(mvn.mahalanobis_squared(Vector{3.0, 4.0}), 0.0, 1e-15);
  EXPECT_NEAR(mvn.mahalanobis_squared(Vector{4.0, 4.0}), 1.0, 1e-12);
}

TEST(Mvn, MarginalPicksSubBlocks) {
  const Vector mu{1.0, 2.0, 3.0};
  const Matrix cov{{4.0, 1.0, 0.5}, {1.0, 5.0, 0.2}, {0.5, 0.2, 6.0}};
  const MultivariateNormal mvn(mu, cov);
  const MultivariateNormal marg = mvn.marginal({2, 0});
  EXPECT_TRUE(approx_equal(marg.mean(), Vector{3.0, 1.0}, 1e-15));
  EXPECT_NEAR(marg.covariance()(0, 0), 6.0, 1e-15);
  EXPECT_NEAR(marg.covariance()(0, 1), 0.5, 1e-15);
}

TEST(Mvn, ConditionalReducesVariance) {
  const Matrix cov{{1.0, 0.9}, {0.9, 1.0}};
  const MultivariateNormal mvn(Vector(2), cov);
  const MultivariateNormal cond = mvn.conditional({1}, Vector{1.0});
  // E[x0 | x1 = 1] = 0.9; Var = 1 - 0.81 = 0.19.
  EXPECT_NEAR(cond.mean()[0], 0.9, 1e-12);
  EXPECT_NEAR(cond.covariance()(0, 0), 0.19, 1e-12);
}

TEST(Mvn, ConditionalOfIndependentIsUnchanged) {
  const MultivariateNormal mvn(Vector{1.0, 2.0}, Matrix::identity(2));
  const MultivariateNormal cond = mvn.conditional({0}, Vector{5.0});
  EXPECT_NEAR(cond.mean()[0], 2.0, 1e-12);
  EXPECT_NEAR(cond.covariance()(0, 0), 1.0, 1e-12);
}

TEST(Mvn, RejectsNonSpdCovariance) {
  EXPECT_THROW(MultivariateNormal(Vector(2), Matrix{{1.0, 2.0}, {2.0, 1.0}}),
               NumericError);
}

TEST(Mvn, DimensionChecks) {
  const MultivariateNormal mvn(Vector(2), Matrix::identity(2));
  EXPECT_THROW((void)mvn.log_pdf(Vector(3)), ContractError);
  EXPECT_THROW((void)mvn.marginal({5}), ContractError);
  EXPECT_THROW((void)mvn.conditional({0, 1}, Vector(2)), ContractError);
}

// ----------------------------------------------------------------- wishart

TEST(Wishart, MeanAndModeFormulas) {
  const Matrix scale{{0.5, 0.1}, {0.1, 0.3}};
  const Wishart w(10.0, scale);
  EXPECT_TRUE(approx_equal(w.mean(), scale * 10.0, 1e-14));
  EXPECT_TRUE(approx_equal(w.mode(), scale * (10.0 - 3.0), 1e-14));
}

TEST(Wishart, SampleMeanConverges) {
  const Matrix scale{{0.2, 0.05}, {0.05, 0.4}};
  const Wishart w(8.0, scale);
  Xoshiro256pp rng(31);
  Matrix acc(2, 2);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) acc += w.sample(rng);
  acc /= static_cast<double>(kN);
  EXPECT_TRUE(approx_equal(acc, w.mean(), 0.05));
}

TEST(Wishart, SamplesAreSpd) {
  const Wishart w(5.0, Matrix::identity(3));
  Xoshiro256pp rng(32);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(linalg::Cholesky::is_positive_definite(w.sample(rng)));
  }
}

TEST(Wishart, LogPdfPeaksNearMode) {
  const Wishart w(12.0, Matrix::identity(2) * 0.1);
  const Matrix mode = w.mode();
  const double at_mode = w.log_pdf(mode);
  EXPECT_GT(at_mode, w.log_pdf(mode * 1.6));
  EXPECT_GT(at_mode, w.log_pdf(mode * 0.6));
}

TEST(Wishart, OneDimMatchesGamma) {
  // Wi_nu(lambda | T) in 1-D equals Gamma(shape = nu/2, scale = 2T).
  const double nu = 6.0, t = 0.5;
  const Wishart w(nu, Matrix{{t}});
  const double x = 2.3;
  EXPECT_NEAR(w.log_pdf(Matrix{{x}}), gamma_log_pdf(x, nu / 2.0, 2.0 * t),
              1e-10);
}

TEST(Wishart, DofDomainChecked) {
  EXPECT_THROW(Wishart(1.5, Matrix::identity(3)), ContractError);
  const Wishart w(3.5, Matrix::identity(3));
  EXPECT_THROW((void)w.mode(), ContractError);  // needs dof > d + 1
}

// -------------------------------------------------------------- descriptive

TEST(Descriptive, QuantileMatchesNumpyConvention) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
}

TEST(Descriptive, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Descriptive, MeanAndStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 5.0);
  EXPECT_NEAR(stddev_of(v), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_THROW((void)stddev_of({1.0}), ContractError);
}

TEST(Descriptive, HistogramCountsAndClamping) {
  const std::vector<double> v{-1.0, 0.1, 0.5, 0.9, 2.0};
  const auto h = histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0] + h[1], 5u);  // out-of-range values clamp into edge bins
  EXPECT_EQ(h[0], 2u);         // -1.0 (clamped), 0.1
  EXPECT_EQ(h[1], 3u);         // 0.5, 0.9, 2.0 (clamped)
}

TEST(Descriptive, MardiaGaussianDataLooksGaussian) {
  Xoshiro256pp rng(33);
  const MultivariateNormal mvn(Vector(3), Matrix::identity(3));
  const Matrix samples = mvn.sample_matrix(rng, 2000);
  const MardiaTest test = mardia_test(samples);
  // Kurtosis z-score should be small for Gaussian data; skewness near 0.
  EXPECT_LT(std::fabs(test.kurtosis_statistic), 4.0);
  EXPECT_LT(test.skewness, 0.3);
}

TEST(Descriptive, MardiaDetectsHeavyTails) {
  Xoshiro256pp rng(34);
  Matrix samples(2000, 2);
  for (std::size_t i = 0; i < 2000; ++i) {
    // Scale-mixture (heavy-tailed) data.
    const double s = (i % 10 == 0) ? 5.0 : 1.0;
    samples(i, 0) = s * sample_standard_normal(rng);
    samples(i, 1) = s * sample_standard_normal(rng);
  }
  const MardiaTest test = mardia_test(samples);
  EXPECT_GT(test.kurtosis_statistic, 5.0);
}

TEST(Descriptive, MardiaRequiresEnoughSamples) {
  EXPECT_THROW((void)mardia_test(Matrix(3, 3)), ContractError);
}

}  // namespace
}  // namespace bmfusion::stats
