#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/contracts.hpp"

namespace bmfusion::linalg {

JacobiEigenSolver::JacobiEigenSolver(const Matrix& a) {
  BMFUSION_REQUIRE(a.is_square(), "eigensolver requires a square matrix");
  BMFUSION_REQUIRE(a.is_symmetric(1e-9),
                   "eigensolver requires a symmetric matrix");
  const std::size_t n = a.rows();
  Matrix work = a;
  work.symmetrize();
  Matrix v = Matrix::identity(n);

  const int max_sweeps = 100;
  bool converged = (n < 2);
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    // Off-diagonal Frobenius mass; convergence when negligible relative to
    // the diagonal scale, at any scale (a zero matrix converges at once).
    double off = 0.0;
    double diag_scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      diag_scale = std::max(diag_scale, std::fabs(work(i, i)));
      for (std::size_t j = i + 1; j < n; ++j) {
        off += work(i, j) * work(i, j);
      }
    }
    if (std::sqrt(off) <= 1e-14 * diag_scale) {
      converged = true;
      break;
    }
    for (std::size_t p = 0; p < n - 1; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = work(p, q);
        if (apq == 0.0) continue;
        const double app = work(p, p);
        const double aqq = work(q, q);
        // Classic stable rotation computation (Golub & Van Loan §8.5).
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = (tau >= 0.0)
                             ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                             : -1.0 / (-tau + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = work(k, p);
          const double akq = work(k, q);
          work(k, p) = c * akp - s * akq;
          work(k, q) = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = work(p, k);
          const double aqk = work(q, k);
          work(p, k) = c * apk - s * aqk;
          work(q, k) = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  if (!converged) {
    throw NumericError("jacobi eigensolver failed to converge");
  }

  // Sort eigenpairs ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return work(i, i) < work(j, j);
  });
  eigenvalues_ = Vector(n);
  eigenvectors_ = Matrix(n, n);
  for (std::size_t out = 0; out < n; ++out) {
    const std::size_t src = order[out];
    eigenvalues_[out] = work(src, src);
    eigenvectors_.set_col(out, v.col(src));
  }
}

double JacobiEigenSolver::min_eigenvalue() const {
  BMFUSION_REQUIRE(dimension() > 0, "empty decomposition");
  return eigenvalues_[0];
}

double JacobiEigenSolver::max_eigenvalue() const {
  BMFUSION_REQUIRE(dimension() > 0, "empty decomposition");
  return eigenvalues_[dimension() - 1];
}

double JacobiEigenSolver::condition_number() const {
  BMFUSION_REQUIRE(dimension() > 0, "empty decomposition");
  double min_abs = std::fabs(eigenvalues_[0]);
  double max_abs = min_abs;
  for (std::size_t i = 1; i < dimension(); ++i) {
    const double mag = std::fabs(eigenvalues_[i]);
    min_abs = std::min(min_abs, mag);
    max_abs = std::max(max_abs, mag);
  }
  if (min_abs == 0.0) return std::numeric_limits<double>::infinity();
  return max_abs / min_abs;
}

}  // namespace bmfusion::linalg
