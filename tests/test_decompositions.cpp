// Tests for Cholesky, LDLT, LU, QR, the Jacobi eigensolver, SPD utilities
// and the complex LU used by AC analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/contracts.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/complex_lu.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/ldlt.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "linalg/spd.hpp"
#include "stats/rng.hpp"
#include "stats/univariate.hpp"

namespace bmfusion::linalg {
namespace {

/// Random SPD matrix A = B B^T + n*I with deterministic entries.
Matrix random_spd(std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b(i, j) = rng.next_uniform(-1.0, 1.0);
    }
  }
  Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  a.symmetrize();
  return a;
}

Matrix random_square(std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.next_uniform(-2.0, 2.0);
    }
    a(i, i) += 4.0;  // diagonally dominant => well conditioned
  }
  return a;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  stats::Xoshiro256pp rng(seed);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_uniform(-3.0, 3.0);
  return v;
}

// ---------------------------------------------------------------- Cholesky

TEST(Cholesky, FactorReconstructsMatrix) {
  const Matrix a = random_spd(5, 1);
  const Cholesky chol(a);
  const Matrix l = chol.factor();
  EXPECT_TRUE(approx_equal(l * l.transposed(), a, 1e-10));
}

TEST(Cholesky, FactorIsLowerTriangular) {
  const Cholesky chol(random_spd(4, 2));
  const Matrix& l = chol.factor();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) EXPECT_EQ(l(i, j), 0.0);
  }
}

TEST(Cholesky, SolveMatchesDirectResidual) {
  const Matrix a = random_spd(6, 3);
  const Vector b = random_vector(6, 4);
  const Vector x = Cholesky(a).solve(b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-9));
}

TEST(Cholesky, MatrixSolve) {
  const Matrix a = random_spd(4, 5);
  const Matrix b(4, 2, 1.0);
  const Matrix x = Cholesky(a).solve(b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-9));
}

TEST(Cholesky, InverseIsSymmetricAndCorrect) {
  const Matrix a = random_spd(5, 6);
  const Matrix inv = Cholesky(a).inverse();
  EXPECT_TRUE(inv.is_symmetric(1e-12));
  EXPECT_TRUE(approx_equal(a * inv, Matrix::identity(5), 1e-9));
}

TEST(Cholesky, LogDeterminantMatchesKnownMatrix) {
  const Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  EXPECT_NEAR(Cholesky(a).log_determinant(), std::log(36.0), 1e-12);
  EXPECT_NEAR(Cholesky(a).determinant(), 36.0, 1e-9);
}

TEST(Cholesky, MahalanobisMatchesExplicitInverse) {
  const Matrix a = random_spd(4, 7);
  const Vector x = random_vector(4, 8);
  const Cholesky chol(a);
  const double direct = dot(x, chol.inverse() * x);
  EXPECT_NEAR(chol.mahalanobis_squared(x), direct, 1e-8);
}

TEST(Cholesky, RejectsNonSpd) {
  const Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_THROW(Cholesky{indefinite}, NumericError);
  EXPECT_FALSE(Cholesky::is_positive_definite(indefinite));
  EXPECT_TRUE(Cholesky::is_positive_definite(random_spd(3, 9)));
}

TEST(Cholesky, RejectsNonSymmetric) {
  const Matrix asym{{1.0, 0.5}, {0.2, 1.0}};
  EXPECT_THROW(Cholesky{asym}, ContractError);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, ContractError);
}

TEST(Cholesky, SolveLowerUpperComposition) {
  const Matrix a = random_spd(5, 10);
  const Vector b = random_vector(5, 11);
  const Cholesky chol(a);
  const Vector via_parts = chol.solve_upper(chol.solve_lower(b));
  EXPECT_TRUE(approx_equal(via_parts, chol.solve(b), 1e-12));
}

// -------------------------------------------------------------------- LDLT

TEST(Ldlt, ReconstructsSpdMatrix) {
  const Matrix a = random_spd(5, 12);
  const Ldlt ldlt(a);
  const Matrix l = ldlt.factor_l();
  const Matrix d = Matrix::diagonal_matrix(ldlt.factor_d());
  EXPECT_TRUE(approx_equal(l * d * l.transposed(), a, 1e-9));
  EXPECT_TRUE(ldlt.is_positive_definite());
}

TEST(Ldlt, HandlesIndefiniteMatrices) {
  const Matrix a{{2.0, 1.0}, {1.0, -3.0}};
  const Ldlt ldlt(a);
  EXPECT_FALSE(ldlt.is_positive_definite());
  EXPECT_EQ(ldlt.determinant_sign(), -1);
  EXPECT_NEAR(ldlt.log_abs_determinant(), std::log(7.0), 1e-12);
}

TEST(Ldlt, SolveMatchesResidual) {
  const Matrix a = random_spd(6, 13);
  const Vector b = random_vector(6, 14);
  EXPECT_TRUE(approx_equal(a * Ldlt(a).solve(b), b, 1e-9));
}

TEST(Ldlt, DeterminantSignOfSpdIsPositive) {
  EXPECT_EQ(Ldlt(random_spd(4, 15)).determinant_sign(), 1);
}

// ---------------------------------------------------------------------- LU

TEST(Lu, SolveGeneralSystem) {
  const Matrix a = random_square(7, 16);
  const Vector b = random_vector(7, 17);
  EXPECT_TRUE(approx_equal(a * Lu(a).solve(b), b, 1e-9));
}

TEST(Lu, DeterminantMatchesKnown2x2) {
  const Matrix a{{3.0, 1.0}, {4.0, 2.0}};
  EXPECT_NEAR(Lu(a).determinant(), 2.0, 1e-12);
}

TEST(Lu, DeterminantTracksRowSwaps) {
  // A permutation matrix with a single swap has determinant -1.
  const Matrix p{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(Lu(p).determinant(), -1.0, 1e-12);
}

TEST(Lu, InverseProducesIdentity) {
  const Matrix a = random_square(5, 18);
  EXPECT_TRUE(approx_equal(a * Lu(a).inverse(), Matrix::identity(5), 1e-8));
}

TEST(Lu, SingularMatrixThrows) {
  const Matrix singular{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(Lu{singular}, NumericError);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Vector x = Lu(a).solve(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

TEST(Lu, BadlyScaledSystemStillSolves) {
  // Mimics MNA grading: conductances from 1e-9 to 1e4 in one matrix. The
  // exact solution (from hand elimination) is x = (2e9 + 1 + 1e-4,
  // 2e9 + 1, 1e9 + 1); check it to relative accuracy.
  Matrix a{{1e4, -1e4, 0.0},
           {-1e4, 1e4 + 1e-9, -1e-9},
           {0.0, -1e-9, 2e-9}};
  a.symmetrize();
  const Vector b{1.0, 0.0, 1e-9};
  const Vector x = Lu(a).solve(b);
  // Accuracy bound: forming the (2,2) Schur complement cancels 1e4 + 1e-9
  // against 1e4, leaving ~1e-3 relative precision — inherent to the data,
  // not the solver.
  EXPECT_NEAR(x[0], 2e9 + 1.0 + 1e-4, 2e9 * 1e-2);
  EXPECT_NEAR(x[1], 2e9 + 1.0, 2e9 * 1e-2);
  EXPECT_NEAR(x[2], 1e9 + 1.0, 1e9 * 1e-2);
}

TEST(Lu, ConditionEstimatePositiveForRegularMatrix) {
  EXPECT_GT(Lu(random_square(4, 19)).reciprocal_condition_estimate(), 0.0);
}

// ---------------------------------------------------------------------- QR

TEST(Qr, ThinFactorizationReconstructs) {
  stats::Xoshiro256pp rng(20);
  Matrix a(6, 3);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = rng.next_uniform(-1, 1);
  }
  const Qr qr(a);
  EXPECT_TRUE(approx_equal(qr.q() * qr.r(), a, 1e-10));
}

TEST(Qr, QHasOrthonormalColumns) {
  stats::Xoshiro256pp rng(21);
  Matrix a(8, 4);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.next_uniform(-1, 1);
  }
  const Matrix q = Qr(a).q();
  EXPECT_TRUE(approx_equal(q.transposed() * q, Matrix::identity(4), 1e-10));
}

TEST(Qr, LeastSquaresRecoversExactSolution) {
  // Consistent system: b in range(A).
  const Matrix a{{1.0, 0.0}, {0.0, 2.0}, {1.0, 1.0}};
  const Vector x_true{2.0, -1.0};
  const Vector b = a * x_true;
  EXPECT_TRUE(approx_equal(least_squares(a, b), x_true, 1e-10));
}

TEST(Qr, LeastSquaresMinimizesResidual) {
  // Overdetermined line fit: y = 2 + 3t with one outlier-free noise-free
  // extra point -> exact recovery.
  Matrix a(4, 2);
  Vector b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const double t = static_cast<double>(i);
    a(i, 0) = 1.0;
    a(i, 1) = t;
    b[i] = 2.0 + 3.0 * t;
  }
  const Vector beta = least_squares(a, b);
  EXPECT_NEAR(beta[0], 2.0, 1e-10);
  EXPECT_NEAR(beta[1], 3.0, 1e-10);
}

TEST(Qr, WideMatrixRejected) { EXPECT_THROW(Qr{Matrix(2, 3)}, ContractError); }

TEST(Qr, DependentColumnsRejected) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  EXPECT_THROW(Qr{a}, NumericError);
}

// ------------------------------------------------------------- eigensolver

TEST(JacobiEigen, DiagonalMatrixEigenvaluesSorted) {
  const JacobiEigenSolver eig(Matrix::diagonal_matrix(Vector{3.0, 1.0, 2.0}));
  EXPECT_TRUE(approx_equal(eig.eigenvalues(), Vector{1.0, 2.0, 3.0}, 1e-12));
  EXPECT_EQ(eig.min_eigenvalue(), 1.0);
  EXPECT_EQ(eig.max_eigenvalue(), 3.0);
}

TEST(JacobiEigen, Known2x2Eigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const JacobiEigenSolver eig(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(eig.eigenvalues()[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues()[1], 3.0, 1e-12);
}

TEST(JacobiEigen, ReconstructionAndOrthogonality) {
  const Matrix a = random_spd(6, 22);
  const JacobiEigenSolver eig(a);
  const Matrix v = eig.eigenvectors();
  EXPECT_TRUE(approx_equal(v.transposed() * v, Matrix::identity(6), 1e-10));
  const Matrix recon =
      v * Matrix::diagonal_matrix(eig.eigenvalues()) * v.transposed();
  EXPECT_TRUE(approx_equal(recon, a, 1e-9));
}

TEST(JacobiEigen, TraceEqualsEigenvalueSum) {
  const Matrix a = random_spd(5, 23);
  const JacobiEigenSolver eig(a);
  EXPECT_NEAR(eig.eigenvalues().sum(), a.trace(), 1e-9);
}

TEST(JacobiEigen, IndefiniteMatrixNegativeEigenvalue) {
  const JacobiEigenSolver eig(Matrix{{0.0, 1.0}, {1.0, 0.0}});
  EXPECT_NEAR(eig.min_eigenvalue(), -1.0, 1e-12);
  EXPECT_NEAR(eig.max_eigenvalue(), 1.0, 1e-12);
}

TEST(JacobiEigen, AccurateAtAnyScale) {
  // The stopping test is relative to the matrix's own scale, so a copy
  // scaled by s (powers of ten: inexact) converges as far as the unit-scale
  // matrix does, from 1e-15 to 1e15.
  const Matrix unit = random_spd(5, 31);
  const JacobiEigenSolver reference(unit);
  const double norm = reference.max_eigenvalue();
  for (int exponent = -15; exponent <= 15; exponent += 3) {
    SCOPED_TRACE("scale 1e" + std::to_string(exponent));
    const double s = std::pow(10.0, exponent);
    const Matrix scaled = unit * s;
    const JacobiEigenSolver eig(scaled);
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_LE(std::fabs(eig.eigenvalues()[k] / s -
                          reference.eigenvalues()[k]),
                1e-14 * norm);
      const Vector v = eig.eigenvectors().col(k);
      const Vector residual = scaled * v - v * eig.eigenvalues()[k];
      double worst = 0.0;
      for (std::size_t i = 0; i < 5; ++i) {
        worst = std::max(worst, std::fabs(residual[i]));
      }
      EXPECT_LE(worst / (s * norm), 1e-14);
    }
  }
}

TEST(JacobiEigen, ConditionNumberOfIdentityIsOne) {
  EXPECT_DOUBLE_EQ(JacobiEigenSolver(Matrix::identity(4)).condition_number(),
                   1.0);
}

// ------------------------------------------------------------------- SPD

TEST(Spd, IsSpdDetectsDefiniteness) {
  EXPECT_TRUE(is_spd(random_spd(4, 24)));
  EXPECT_FALSE(is_spd(Matrix{{1.0, 2.0}, {2.0, 1.0}}));
  EXPECT_FALSE(is_spd(Matrix(2, 3)));
}

TEST(Spd, NearestSpdLeavesSpdAlmostUnchanged) {
  const Matrix a = random_spd(4, 25);
  EXPECT_TRUE(approx_equal(nearest_spd(a), a, 1e-8));
}

TEST(Spd, NearestSpdRepairsIndefiniteMatrix) {
  const Matrix bad{{1.0, 2.0}, {2.0, 1.0}};
  const Matrix fixed = nearest_spd(bad);
  EXPECT_TRUE(Cholesky::is_positive_definite(fixed));
}

TEST(Spd, NearestSpdRepairsRankDeficientScatter) {
  // Scatter of a single sample: rank one, PSD but singular.
  const Vector x{1.0, 2.0, 3.0};
  const Matrix fixed = nearest_spd(outer(x, x));
  EXPECT_TRUE(Cholesky::is_positive_definite(fixed));
}

TEST(Spd, SqrtSquaresBack) {
  const Matrix a = random_spd(4, 26);
  const Matrix b = spd_sqrt(a);
  EXPECT_TRUE(approx_equal(b * b, a, 1e-8));
}

TEST(Spd, SqrtRejectsIndefinite) {
  EXPECT_THROW((void)spd_sqrt(Matrix{{1.0, 2.0}, {2.0, 1.0}}), NumericError);
}

TEST(Spd, CorrelationFromCovariance) {
  const Matrix cov{{4.0, 2.0}, {2.0, 9.0}};
  const Matrix corr = covariance_to_correlation(cov);
  EXPECT_DOUBLE_EQ(corr(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(corr(1, 1), 1.0);
  EXPECT_NEAR(corr(0, 1), 2.0 / 6.0, 1e-12);
}

TEST(Spd, CorrelationRejectsNonPositiveVariance) {
  EXPECT_THROW((void)covariance_to_correlation(Matrix{{0.0, 0.0}, {0.0, 1.0}}),
               NumericError);
}

// ------------------------------------------------------------- complex LU

TEST(ComplexLu, SolvesRealSystemLikeRealLu) {
  const Matrix a = random_square(5, 27);
  const Vector b = random_vector(5, 28);
  ComplexMatrix ca = ComplexMatrix::from_real_imag(a, Matrix(5, 5));
  ComplexVector cb(5);
  for (std::size_t i = 0; i < 5; ++i) cb[i] = Complex{b[i], 0.0};
  const ComplexVector cx = ComplexLu(ca).solve(cb);
  const Vector x = Lu(a).solve(b);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(cx[i].real(), x[i], 1e-9);
    EXPECT_NEAR(std::abs(cx[i].imag()), 0.0, 1e-9);
  }
}

TEST(ComplexLu, SolvesKnownComplexSystem) {
  // (1 + j) x = 2 => x = 1 - j.
  ComplexMatrix a(1, 1);
  a(0, 0) = Complex{1.0, 1.0};
  ComplexVector b(1);
  b[0] = Complex{2.0, 0.0};
  const ComplexVector x = ComplexLu(a).solve(b);
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
}

TEST(ComplexLu, ResidualSmallForRandomSystem) {
  stats::Xoshiro256pp rng(29);
  const std::size_t n = 6;
  ComplexMatrix a(n, n);
  ComplexVector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = Complex{rng.next_uniform(-1, 1), rng.next_uniform(-1, 1)};
      if (i == j) a(i, j) += Complex{5.0, 0.0};
    }
    b[i] = Complex{rng.next_uniform(-1, 1), rng.next_uniform(-1, 1)};
  }
  const ComplexVector x = ComplexLu(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc{};
    for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * x[j];
    EXPECT_NEAR(std::abs(acc - b[i]), 0.0, 1e-10);
  }
}

TEST(ComplexLu, SingularThrows) {
  ComplexMatrix a(2, 2);  // all zeros
  EXPECT_THROW(ComplexLu{a}, NumericError);
}

TEST(ComplexLu, MixedScaleSystemSolves) {
  // AC-analysis-like grading: entries from 1e-12 to 1e4.
  ComplexMatrix a(2, 2);
  a(0, 0) = Complex{1e4, 1e2};
  a(0, 1) = Complex{-1e-12, 0.0};
  a(1, 0) = Complex{0.0, 1e-9};
  a(1, 1) = Complex{1e-12, 1e-6};
  ComplexVector b(2);
  b[0] = Complex{1.0, 0.0};
  b[1] = Complex{0.0, 1e-9};
  const ComplexVector x = ComplexLu(a).solve(b);
  Complex r0 = a(0, 0) * x[0] + a(0, 1) * x[1] - b[0];
  Complex r1 = a(1, 0) * x[0] + a(1, 1) * x[1] - b[1];
  EXPECT_LT(std::abs(r0), 1e-8);
  EXPECT_LT(std::abs(r1), 1e-15);
}

// Parameterized sweep: solve/inverse consistency across sizes.
class DecompositionSizeSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(DecompositionSizeSweep, CholeskyLuAgreeOnSpdSystems) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 30 + n);
  const Vector b = random_vector(n, 60 + n);
  const Vector x_chol = Cholesky(a).solve(b);
  const Vector x_lu = Lu(a).solve(b);
  EXPECT_TRUE(approx_equal(x_chol, x_lu, 1e-8));
}

TEST_P(DecompositionSizeSweep, LogDetConsistentAcrossFactorizations) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, 90 + n);
  const double chol_logdet = Cholesky(a).log_determinant();
  const double ldlt_logdet = Ldlt(a).log_abs_determinant();
  const double lu_det = Lu(a).determinant();
  EXPECT_NEAR(chol_logdet, ldlt_logdet, 1e-8);
  EXPECT_NEAR(chol_logdet, std::log(lu_det), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DecompositionSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 20));

}  // namespace
}  // namespace bmfusion::linalg
