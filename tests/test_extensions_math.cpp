// Tests for the extension math: SVD, the log-beta function, higher-order
// moments and Cornish-Fisher.
#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "core/higher_moments.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
#include "stats/rng.hpp"
#include "stats/special.hpp"
#include "stats/univariate.hpp"

namespace bmfusion {
namespace {

using linalg::Matrix;
using linalg::Svd;
using linalg::Vector;

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_uniform(-2, 2);
  }
  return a;
}

// --------------------------------------------------------------------- svd

TEST(Svd, ReconstructsMatrix) {
  const Matrix a = random_matrix(7, 4, 1);
  const Svd svd(a);
  const Matrix recon =
      svd.u() * Matrix::diagonal_matrix(svd.singular_values()) *
      svd.v().transposed();
  EXPECT_TRUE(approx_equal(recon, a, 1e-10));
}

TEST(Svd, FactorsAreOrthonormal) {
  const Svd svd(random_matrix(8, 5, 2));
  EXPECT_TRUE(approx_equal(svd.u().transposed() * svd.u(),
                           Matrix::identity(5), 1e-10));
  EXPECT_TRUE(approx_equal(svd.v().transposed() * svd.v(),
                           Matrix::identity(5), 1e-10));
}

TEST(Svd, SingularValuesSortedAndNonNegative) {
  const Svd svd(random_matrix(6, 6, 3));
  const Vector& s = svd.singular_values();
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i], 0.0);
    if (i > 0) EXPECT_LE(s[i], s[i - 1]);
  }
}

TEST(Svd, DiagonalMatrixSingularValuesKnown) {
  const Svd svd(Matrix::diagonal_matrix(Vector{3.0, -1.0, 2.0}));
  EXPECT_NEAR(svd.singular_values()[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.singular_values()[1], 2.0, 1e-12);
  EXPECT_NEAR(svd.singular_values()[2], 1.0, 1e-12);
}

TEST(Svd, RankDetectsDeficiency) {
  // Rank-1 outer product embedded in a 5x3 matrix.
  const Vector u{1.0, 2.0, 3.0, 4.0, 5.0};
  const Vector v{1.0, -1.0, 0.5};
  const Svd svd(outer(u, v));
  EXPECT_EQ(svd.rank(), 1u);
  EXPECT_TRUE(std::isinf(svd.condition_number()));
}

TEST(Svd, MatchesEigenvaluesOfGramMatrix) {
  const Matrix a = random_matrix(6, 3, 4);
  const Svd svd(a);
  const linalg::JacobiEigenSolver eig(a.transposed() * a);
  // Squared singular values == eigenvalues of A^T A (descending/ascending).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(svd.singular_values()[i] * svd.singular_values()[i],
                eig.eigenvalues()[2 - i], 1e-8);
  }
}

TEST(Svd, PseudoInverseSolvesRankDeficientSystem) {
  // A = rank-1; least-squares solution via pseudo-inverse is finite and
  // minimizes the residual within the row space.
  const Vector u{1.0, 1.0, 1.0};
  const Vector v{2.0, 0.0};
  const Matrix a = outer(u, v);  // 3x2, rank 1
  const Vector b{2.0, 2.0, 2.0};
  const Svd svd(a);
  const Vector x = svd.solve_least_squares(b);
  EXPECT_NEAR(x[0], 1.0, 1e-10);  // minimum-norm: x = (1, 0)
  EXPECT_NEAR(x[1], 0.0, 1e-10);
}

TEST(Svd, RejectsWideOrEmpty) {
  EXPECT_THROW(Svd{Matrix(2, 3)}, ContractError);
  EXPECT_THROW(Svd{Matrix()}, ContractError);
}

// ------------------------------------------------------ beta special funcs

TEST(BetaFunctions, LogBetaMatchesGammaIdentity) {
  EXPECT_NEAR(stats::log_beta(2.0, 3.0), std::log(1.0 / 12.0), 1e-12);
  EXPECT_NEAR(stats::log_beta(0.5, 0.5), std::log(3.14159265358979), 1e-10);
}

TEST(BetaFunctions, DomainChecks) {
  EXPECT_THROW((void)stats::log_beta(0.0, 1.0), ContractError);
}

// ----------------------------------------------------------- higher moments

TEST(HigherMoments, GaussianDataHasSmallSkewAndKurtosis) {
  stats::Xoshiro256pp rng(8);
  Matrix samples(20000, 2);
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    samples(i, 0) = stats::sample_normal(rng, 1.0, 2.0);
    samples(i, 1) = stats::sample_normal(rng, -1.0, 0.5);
  }
  const core::HigherMoments hm = core::estimate_higher_moments(samples);
  EXPECT_NEAR(hm.skewness[0], 0.0, 0.08);
  EXPECT_NEAR(hm.excess_kurtosis[1], 0.0, 0.15);
}

TEST(HigherMoments, DetectsExponentialSkew) {
  // Exponential distribution: skewness 2, excess kurtosis 6.
  stats::Xoshiro256pp rng(9);
  Matrix samples(100000, 1);
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    samples(i, 0) = stats::sample_exponential(rng, 1.0);
  }
  const core::HigherMoments hm = core::estimate_higher_moments(samples);
  EXPECT_NEAR(hm.skewness[0], 2.0, 0.15);
  EXPECT_NEAR(hm.excess_kurtosis[0], 6.0, 1.0);
}

TEST(HigherMoments, CornishFisherReducesToGaussian) {
  for (const double p : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(core::cornish_fisher_quantile(2.0, 3.0, 0.0, 0.0, p),
                2.0 + 3.0 * stats::standard_normal_quantile(p), 1e-12);
  }
}

TEST(HigherMoments, CornishFisherShiftsQuantilesWithSkew) {
  // Positive skew pushes the upper quantile out and pulls the lower in.
  const double q95_skew =
      core::cornish_fisher_quantile(0.0, 1.0, 1.0, 0.0, 0.95);
  const double q95_sym =
      core::cornish_fisher_quantile(0.0, 1.0, 0.0, 0.0, 0.95);
  EXPECT_GT(q95_skew, q95_sym);
}

TEST(HigherMoments, CornishFisherYieldInvertsQuantile) {
  const double skew = 0.8, kurt = 0.5;
  const double spec = core::cornish_fisher_quantile(1.0, 2.0, skew, kurt,
                                                    0.9);
  EXPECT_NEAR(core::cornish_fisher_yield(1.0, 2.0, skew, kurt, spec), 0.9,
              1e-9);
}

TEST(HigherMoments, CornishFisherYieldOnExponentialData) {
  // Empirical check: CF yield at the true 90% quantile of Exp(1) (= ln 10)
  // should be closer to 0.9 than the plain Gaussian yield.
  const double mean = 1.0, sd = 1.0, skew = 2.0, kurt = 6.0;
  const double spec = std::log(10.0);
  const double cf = core::cornish_fisher_yield(mean, sd, skew, kurt, spec);
  const double gauss = stats::standard_normal_cdf((spec - mean) / sd);
  EXPECT_LT(std::fabs(cf - 0.9), std::fabs(gauss - 0.9));
}

TEST(HigherMoments, InputValidation) {
  EXPECT_THROW((void)core::estimate_higher_moments(Matrix(3, 2)),
               ContractError);
  Matrix constant(10, 1, 5.0);
  EXPECT_THROW((void)core::estimate_higher_moments(constant), ContractError);
  EXPECT_THROW((void)core::cornish_fisher_quantile(0, 0, 0, 0, 0.5),
               ContractError);
}

}  // namespace
}  // namespace bmfusion
