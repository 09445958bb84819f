#include "core/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "core/normal_wishart.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eigen_sym.hpp"
#include "log/log.hpp"
#include "stats/special.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

constexpr double kLog2Pi = 1.837877066409345483560659472811235279;
constexpr double kLog2 = 0.693147180559945309417232121458176568;

// Screen-then-verify constants (DESIGN §6).

/// Every point whose closed-form score lies within kRescoreMargin *
/// max(1, |best closed-form score|) of the best is re-scored exactly. A
/// re-scored point more than a quarter of that margin off its closed form
/// voids the screen, and the selection runs the full exact grid.
constexpr double kRescoreMargin = 1e-9;

/// Largest max/min ratio of the Cholesky pivots L_ii^2 of Sigma_E (a lower
/// bound on its condition number) the kernel whitens by. Beyond it, or when
/// the clean factorization fails, the selection runs the full exact grid.
constexpr double kMaxPriorPivotSpan = 1e8;

/// Rounding-error bound of a closed-form score against the exact one:
/// kRoundingGrowth * eps * (cond(Sigma_E) * cond(M) * |the terms that go
/// through M or Sigma_E| + |the other terms|). Over 2,000 random cases
/// (d = 1..8, prior conditions to 1e8, nu offsets down to 1e-6) no
/// deviation exceeded a quarter of it. A point whose bound exceeds the
/// quarter margin that verification allows -- a near-singular M, relative
/// to the size of its score -- is re-scored exactly.
constexpr double kRoundingGrowth = 16.0;
constexpr double kEps = std::numeric_limits<double>::epsilon();

/// Closed-form score of every grid point (row-major, kappa outer) and a
/// bound on its rounding error (infinite where M is not positive definite).
struct Surface {
  explicit Surface(std::size_t points) : score(points), error(points) {}
  std::vector<double> score;
  std::vector<double> error;
};

/// Eigendecomposition of the finite, nearly symmetric `a`, symmetrized
/// first: whitening by an ill-conditioned Sigma_E can leave more asymmetry
/// than the solver's symmetry check allows. Throws NumericError when Jacobi
/// does not converge.
linalg::JacobiEigenSolver symmetric_eigen(Matrix a) {
  a.symmetrize();
  return linalg::JacobiEigenSolver(a);
}

/// L^-1 for the Cholesky factor L of Sigma_E, log|Sigma_E| and
/// cond(Sigma_E).
struct Whitening {
  Matrix l_inv;
  double log_det = 0.0;
  double condition = 0.0;
};

/// Nothing when the pivots of `prior`, the Cholesky factor of `sigma_e`,
/// span more than kMaxPriorPivotSpan.
std::optional<Whitening> whiten(const Matrix& sigma_e,
                                const linalg::Cholesky& prior) {
  const Matrix& l = prior.factor();
  const std::size_t dim = l.rows();
  double lo = l(0, 0) * l(0, 0);
  double hi = lo;
  for (std::size_t i = 1; i < dim; ++i) {
    lo = std::min(lo, l(i, i) * l(i, i));
    hi = std::max(hi, l(i, i) * l(i, i));
  }
  if (!(hi <= kMaxPriorPivotSpan * lo)) return std::nullopt;
  Whitening white;
  white.l_inv = Matrix(dim, dim);
  Vector unit(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    unit[j] = 1.0;
    white.l_inv.set_col(j, prior.solve_lower(unit));
    unit[j] = 0.0;
  }
  white.log_det = prior.log_determinant();
  try {
    white.condition = symmetric_eigen(sigma_e).condition_number();
  } catch (const NumericError&) {
    return std::nullopt;  // Jacobi did not converge
  }
  return white;
}

/// A training set (n, xbar, S) in the whitened eigenbasis:
/// A = L^-1 S L^-T = V diag(lambda) V^T, P = V^T L^-1, u = P (mu_E - xbar).
struct Spectrum {
  double n = 0.0;
  Vector lambda;
  Matrix p;
  Vector u;
  double u_norm2 = 0.0;
};

/// Nothing when A is not finite or the eigensolver does not converge.
std::optional<Spectrum> spectrum(const Whitening& white,
                                 const Vector& early_mean,
                                 const SufficientStats& train) {
  Matrix a = white.l_inv * train.scatter() * white.l_inv.transposed();
  if (!a.is_finite()) return std::nullopt;
  try {
    const linalg::JacobiEigenSolver eigen = symmetric_eigen(std::move(a));
    Spectrum s;
    s.n = static_cast<double>(train.count());
    s.lambda = eigen.eigenvalues();
    s.p = eigen.eigenvectors().transposed() * white.l_inv;
    s.u = s.p * (early_mean - train.mean());
    s.u_norm2 = dot(s.u, s.u);
    return s;
  } catch (const NumericError&) {
    return std::nullopt;
  }
}

/// The part of M = diag(lambda + alpha) + c u u^T fixed by one nu0.
struct Shifted {
  Vector inv_d;             ///< 1 / (lambda_i + alpha)
  Vector w;                 ///< D^-1 u
  double sum_log_d = 0.0;   ///< log|D|
  double b = 0.0;           ///< u^T D^-1 u
  double d_min = 0.0;       ///< lambda_min + alpha
  double d_max = 0.0;       ///< lambda_max + alpha

  void shift(const Spectrum& s, double alpha) {
    const std::size_t dim = s.lambda.size();
    inv_d.resize(dim);
    w.resize(dim);
    sum_log_d = 0.0;
    b = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double dk = s.lambda[k] + alpha;
      inv_d[k] = 1.0 / dk;
      w[k] = s.u[k] * inv_d[k];
      sum_log_d += std::log(dk);
      b += s.u[k] * w[k];
    }
    d_min = s.lambda[0] + alpha;  // eigenvalues ascend
    d_max = s.lambda[dim - 1] + alpha;
  }

  /// log|M| by the matrix determinant lemma.
  [[nodiscard]] double log_det_m(double c) const {
    return sum_log_d + std::log1p(c * b);
  }

  /// Bound (lambda_max + alpha + c |u|^2) / (lambda_min + alpha) on
  /// cond(M); infinite when M is not safely positive definite.
  [[nodiscard]] double condition(double c, double u_norm2) const {
    return d_min > 0.0 ? (d_max + c * u_norm2) / d_min
                       : std::numeric_limits<double>::infinity();
  }
};

/// One usable CV fold: the training spectrum plus the held-out statistics
/// (m, ybar, S_y) in its basis: a = P (ybar - xbar), G = P S_y P^T.
struct SurfaceFold {
  Spectrum train;
  double m = 0.0;
  Vector a;
  Matrix g;
};

/// Closed-form held-out log-likelihood of every CV grid point (DESIGN §6):
///   l_q = -(m/2) [d log 2pi + log|Sigma_E| + log|M| - d log s]
///         - (s/2) [tr(G M^-1) + m r^T M^-1 r],
/// with alpha = nu0 - d, s = alpha + n, c = kappa0 n / (kappa0 + n),
/// r = a - kappa0 / (kappa0 + n) u and M = A + alpha I + c u u^T; both
/// traces come from Sherman-Morrison in the eigenbasis of A. Nothing when
/// Sigma_E cannot be whitened, a spectrum fails, or no fold is usable.
std::optional<Surface> cv_surface(const GaussianMoments& early,
                                  const std::vector<SufficientStats>& train,
                                  const std::vector<SufficientStats>& test,
                                  const std::vector<double>& kappas,
                                  const std::vector<double>& nus) {
  if (!linalg::Cholesky::is_positive_definite(early.covariance)) {
    return std::nullopt;
  }
  const std::optional<Whitening> white =
      whiten(early.covariance, linalg::Cholesky(early.covariance));
  if (!white) return std::nullopt;

  std::vector<SurfaceFold> folds;
  double held_out = 0.0;
  for (std::size_t q = 0; q < test.size(); ++q) {
    if (train[q].count() == 0 || test[q].count() == 0) continue;
    std::optional<Spectrum> s = spectrum(*white, early.mean, train[q]);
    if (!s) return std::nullopt;
    SurfaceFold fold;
    fold.train = std::move(*s);
    fold.m = static_cast<double>(test[q].count());
    fold.a = fold.train.p * (test[q].mean() - train[q].mean());
    fold.g = fold.train.p * test[q].scatter() * fold.train.p.transposed();
    held_out += fold.m;
    folds.push_back(std::move(fold));
  }
  if (folds.empty()) return std::nullopt;

  const std::size_t dim = early.dimension();
  const double d = static_cast<double>(dim);
  const double error_scale = kRoundingGrowth * kEps;
  Surface surface(kappas.size() * nus.size());
  // The nu0-only part of each fold's l_q, for the current column.
  struct Column {
    Shifted sh;
    double s = 0.0;           ///< nu0 + n - d
    double fixed = 0.0;       ///< -(m/2) [d log 2pi + log|Sigma_E| - d log s]
    double fixed_size = 0.0;  ///< its rounding weight
    double trace_d = 0.0;     ///< tr(G D^-1)
    double w_g_w = 0.0;       ///< w^T G w
  };
  std::vector<Column> columns(folds.size());
  for (std::size_t j = 0; j < nus.size(); ++j) {
    const double nu0 = nus[j];
    for (std::size_t q = 0; q < folds.size(); ++q) {
      const SurfaceFold& fold = folds[q];
      Column& col = columns[q];
      col.sh.shift(fold.train, nu0 - d);
      col.s = nu0 + fold.train.n - d;
      const double log_s = std::log(col.s);
      col.fixed = -0.5 * fold.m * (d * kLog2Pi + white->log_det - d * log_s);
      col.fixed_size =
          0.5 * fold.m * (d * kLog2Pi + d * std::fabs(log_s)) +
          0.5 * fold.m * white->condition * std::fabs(white->log_det);
      col.trace_d = 0.0;
      col.w_g_w = 0.0;
      for (std::size_t k = 0; k < dim; ++k) {
        col.trace_d += fold.g(k, k) * col.sh.inv_d[k];
        double g_w = 0.0;
        for (std::size_t l = 0; l < dim; ++l) g_w += fold.g(k, l) * col.sh.w[l];
        col.w_g_w += col.sh.w[k] * g_w;
      }
    }
    for (std::size_t i = 0; i < kappas.size(); ++i) {
      const double kappa0 = kappas[i];
      double total = 0.0;
      double error = 0.0;
      for (std::size_t q = 0; q < folds.size(); ++q) {
        const SurfaceFold& fold = folds[q];
        const Column& col = columns[q];
        const double n = fold.train.n;
        const double c = kappa0 * n / (kappa0 + n);
        const double t = kappa0 / (kappa0 + n);
        const double beta = 1.0 + c * col.sh.b;
        double quad_d = 0.0;
        double w_r = 0.0;
        for (std::size_t k = 0; k < dim; ++k) {
          const double r = fold.a[k] - t * fold.train.u[k];
          quad_d += r * r * col.sh.inv_d[k];
          w_r += col.sh.w[k] * r;
        }
        const double log_det_m = col.sh.log_det_m(c);
        const double trace_m = col.trace_d - c * col.w_g_w / beta;
        const double quad_m = quad_d - c * w_r * w_r / beta;
        total += col.fixed - 0.5 * fold.m * log_det_m -
                 0.5 * col.s * (trace_m + fold.m * quad_m);
        error += white->condition * col.sh.condition(c, fold.train.u_norm2) *
                     (0.5 * fold.m * (std::fabs(log_det_m) + d) +
                      0.5 * col.s * (col.trace_d + fold.m * quad_d)) +
                 col.fixed_size;
      }
      const std::size_t index = i * nus.size() + j;
      surface.score[index] = total / held_out;
      surface.error[index] = error_scale * error / held_out;
    }
  }
  return surface;
}

/// Closed-form per-sample log evidence of every grid point: the CV kernel
/// on the totals as one fold, with log|T_n| = -log|Sigma_E| - log|M| and
/// log|T_0| = -log|Sigma_E| - d log alpha in NormalWishart::log_normalizer.
std::optional<Surface> evidence_surface(const GaussianMoments& early,
                                        const linalg::Cholesky& prior,
                                        const SufficientStats& stats,
                                        const std::vector<double>& kappas,
                                        const std::vector<double>& nus) {
  const std::optional<Whitening> white = whiten(early.covariance, prior);
  if (!white) return std::nullopt;
  const std::optional<Spectrum> totals = spectrum(*white, early.mean, stats);
  if (!totals) return std::nullopt;

  const std::size_t dim = early.dimension();
  const double d = static_cast<double>(dim);
  const double n = totals->n;
  Surface surface(kappas.size() * nus.size());
  Shifted sh;
  for (std::size_t j = 0; j < nus.size(); ++j) {
    const double nu0 = nus[j];
    const double alpha = nu0 - d;
    const double nu_n = nu0 + n;
    sh.shift(*totals, alpha);
    // The nu0-only terms of log Z_n - log Z_0 - (n d / 2) log 2pi.
    const double terms[] = {0.5 * nu0 * d * std::log(alpha),
                            0.5 * n * d * (kLog2 - kLog2Pi),
                            stats::log_multivariate_gamma(0.5 * nu_n, dim),
                            -stats::log_multivariate_gamma(0.5 * nu0, dim)};
    double fixed = -0.5 * n * white->log_det;
    double fixed_size =
        white->condition * (std::fabs(fixed) + 0.5 * nu0 * d);  // log|T_0|
    for (const double term : terms) {
      fixed += term;
      fixed_size += std::fabs(term);
    }
    for (std::size_t i = 0; i < kappas.size(); ++i) {
      const double kappa0 = kappas[i];
      const double c = kappa0 * n / (kappa0 + n);
      const double log_kappa0 = std::log(kappa0);
      const double log_kappa_n = std::log(kappa0 + n);
      const double log_det_m = sh.log_det_m(c);
      const double log_evidence = fixed +
                                  0.5 * d * (log_kappa0 - log_kappa_n) -
                                  0.5 * nu_n * log_det_m;
      const double size =
          fixed_size +
          0.5 * d * (std::fabs(log_kappa0) + std::fabs(log_kappa_n)) +
          white->condition * sh.condition(c, totals->u_norm2) * 0.5 * nu_n *
              (std::fabs(log_det_m) + d);
      const std::size_t index = i * nus.size() + j;
      surface.score[index] = log_evidence / n;
      surface.error[index] = kRoundingGrowth * kEps * size / n;
    }
  }
  return surface;
}

/// Picks the winner (DESIGN §6). Every point that can win is re-scored
/// with `exact_score`: those within the margin of the best closed-form
/// score, and the near-singular ones whose rounding-error bound exceeds a
/// quarter margin (or is not finite). The rest keep their closed form. The
/// full exact grid runs, serially, when there is no surface or a re-scored
/// point is non-finite or misses its closed form by over a quarter margin.
/// from_grid then picks as it always has: strict '>', row-major.
template <typename ExactScore>
CrossValidationResult screen_then_verify(const std::vector<double>& kappas,
                                         const std::vector<double>& nus,
                                         const std::optional<Surface>& surface,
                                         const ExactScore& exact_score) {
  std::vector<GridScore> grid(kappas.size() * nus.size());
  std::vector<char> exact(grid.size(), 0);
  for (std::size_t index = 0; index < grid.size(); ++index) {
    grid[index].kappa0 = kappas[index / nus.size()];
    grid[index].nu0 = nus[index % nus.size()];
  }
  bool full_grid = !surface.has_value();
  if (surface) {
    double best = -std::numeric_limits<double>::infinity();
    for (const double score : surface->score) {
      if (std::isfinite(score)) best = std::max(best, score);
    }
    full_grid = !std::isfinite(best);
    const double margin = kRescoreMargin * std::max(1.0, std::fabs(best));
    for (std::size_t index = 0; index < grid.size() && !full_grid; ++index) {
      const double closed = surface->score[index];
      grid[index].score = closed;
      if (closed < best - margin && surface->error[index] <= margin / 4.0) {
        continue;
      }
      grid[index].score = exact_score(grid[index].kappa0, grid[index].nu0);
      exact[index] = 1;
      full_grid = !std::isfinite(grid[index].score) ||
                  !(std::fabs(grid[index].score - closed) <= margin / 4.0);
    }
  }
  if (full_grid) {
    BMF_COUNTER_ADD("core.cv.exact_fallbacks", 1);
    for (std::size_t index = 0; index < grid.size(); ++index) {
      if (exact[index] == 0) {
        grid[index].score = exact_score(grid[index].kappa0, grid[index].nu0);
      }
    }
  }
  // from_grid throws a typed NumericError when every point was disqualified.
  return CrossValidationResult::from_grid(std::move(grid));
}

/// The nu0 of each grid column, d + offset: the value the exact scorers use
/// and cv_grid reports.
std::vector<double> nu_axis(double d, const CrossValidationConfig& config) {
  std::vector<double> nus = log_spaced(config.nu_offset_min,
                                       config.nu_offset_max, config.nu_points);
  for (double& nu : nus) nu = d + nu;
  return nus;
}

}  // namespace

void CrossValidationConfig::validate() const {
  // folds >= 2 is what every fold-based consumer ultimately needs; checking
  // it here keeps the invariant that a config which passes validate() never
  // throws downstream. (The evidence selector ignores folds entirely.)
  BMFUSION_CONFIG_REQUIRE(folds >= 2,
                          "cross validation config needs folds >= 2");
  BMFUSION_CONFIG_REQUIRE(kappa_points >= 2 && nu_points >= 2,
                          "hyper-parameter grid needs >= 2 points per axis");
  BMFUSION_CONFIG_REQUIRE(kappa_min > 0.0 && kappa_max > kappa_min,
                          "kappa range needs 0 < min < max");
  BMFUSION_CONFIG_REQUIRE(nu_offset_min > 0.0 && nu_offset_max > nu_offset_min,
                          "nu offset range needs 0 < min < max");
}

std::vector<double> log_spaced(double lo, double hi, std::size_t points) {
  BMFUSION_REQUIRE(lo > 0.0 && hi > lo, "log grid needs 0 < lo < hi");
  BMFUSION_REQUIRE(points >= 2, "log grid needs >= 2 points");
  std::vector<double> grid(points);
  const double log_lo = std::log(lo);
  const double log_hi = std::log(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    grid[i] = std::exp(log_lo + t * (log_hi - log_lo));
  }
  return grid;
}

CrossValidationResult CrossValidationResult::from_grid(
    std::vector<GridScore> grid) {
  BMFUSION_REQUIRE(!grid.empty(), "cross validation result needs a grid");
  CrossValidationResult result;
  result.score = -std::numeric_limits<double>::infinity();
  for (const GridScore& gs : grid) {
    if (gs.score > result.score) {
      result.score = gs.score;
      result.kappa0 = gs.kappa0;
      result.nu0 = gs.nu0;
    }
  }
  if (!std::isfinite(result.score)) {
    // Every candidate was disqualified. Failing here, at selection time,
    // beats handing zero-valued hyper-parameters to a later fuse_at call.
    throw NumericError(
        "cross validation: all grid points degenerate (every candidate was "
        "disqualified during scoring)",
        ErrorContext{}
            .with_operation("cv-select")
            .with_detail("grid_points=" + std::to_string(grid.size())));
  }
  result.grid_ = std::move(grid);
  BMF_LOG_INFO("cv selected hyper-parameters", log::f("kappa0", result.kappa0),
               log::f("nu0", result.nu0), log::f("score", result.score),
               log::f("grid_points", result.grid_.size()));
  return result;
}

CrossValidationResult select_hyperparameters(
    const GaussianMoments& early_scaled, const Matrix& late_scaled,
    const CrossValidationConfig& config) {
  early_scaled.validate();
  config.validate();
  BMFUSION_REQUIRE(late_scaled.cols() == early_scaled.dimension(),
                   "late samples must match the early-stage dimension");
  BMFUSION_REQUIRE(late_scaled.rows() >= 2,
                   "cross validation needs >= 2 late-stage samples");

  // Summarize every fold once (round-robin split, identical for every grid
  // point as in Fig. 2(b)); the fold-statistics core below never touches
  // the raw samples again. The streaming snapshot path enters the same core
  // with fold statistics accumulated one sample at a time.
  const std::size_t folds = std::min(config.folds, late_scaled.rows());
  std::vector<SufficientStats> test_stats(
      folds, SufficientStats(early_scaled.dimension()));
  for (std::size_t i = 0; i < late_scaled.rows(); ++i) {
    test_stats[i % folds].add(late_scaled.row(i));
  }
  return select_hyperparameters(early_scaled, test_stats, config);
}

CrossValidationResult select_hyperparameters(
    const GaussianMoments& early_scaled,
    const std::vector<SufficientStats>& fold_stats,
    const CrossValidationConfig& config) {
  early_scaled.validate();
  config.validate();
  BMFUSION_REQUIRE(!fold_stats.empty(),
                   "cross validation needs >= 1 fold statistic");
  std::size_t total_samples = 0;
  for (const SufficientStats& fold : fold_stats) {
    if (fold.count() == 0) continue;
    BMFUSION_REQUIRE(fold.dimension() == early_scaled.dimension(),
                     "fold statistics must match the early-stage dimension");
    total_samples += fold.count();
  }
  BMFUSION_REQUIRE(total_samples >= 2,
                   "cross validation needs >= 2 late-stage samples");

  const std::size_t folds = fold_stats.size();
  const std::vector<SufficientStats>& test_stats = fold_stats;
  const double d = static_cast<double>(early_scaled.dimension());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nus = nu_axis(d, config);

  // Each leave-one-fold-out training set is the totals minus the held-out
  // fold — O(folds) stats arithmetic, however many samples they summarize.
  SufficientStats totals(early_scaled.dimension());
  for (const SufficientStats& fold : test_stats) {
    if (fold.count() > 0) totals += fold;
  }
  std::vector<SufficientStats> train_stats;
  train_stats.reserve(folds);
  for (const SufficientStats& fold : test_stats) {
    // An empty fold (possible only on the streaming path) is skipped during
    // scoring, so its training set is never fused; keep the totals as a
    // dimension-matched placeholder.
    train_stats.push_back(fold.count() > 0 ? totals - fold : totals);
  }

  // The exact score of one grid point. Scoring opts into the documented
  // fallback chain (ridge-jitter retries, then clamped LDLT) so a
  // near-singular fold downgrades gracefully instead of silently
  // disqualifying the grid point; only genuinely indefinite fits still
  // disqualify.
  const LikelihoodFallback score_fallback{};
  const auto exact_score = [&](double kappa0, double nu0) {
    BMF_SCOPED_TIMER_US("core.cv.grid_point_us");
    BMF_COUNTER_ADD("core.cv.exact_points", 1);
    double total_loglik = 0.0;
    std::size_t total_count = 0;
    bool valid = true;
    for (std::size_t q = 0; q < folds && valid; ++q) {
      if (train_stats[q].count() == 0 || test_stats[q].count() == 0) {
        continue;
      }
      try {
        const GaussianMoments map =
            map_fuse(early_scaled, train_stats[q], kappa0, nu0);
        total_loglik += log_likelihood(map, test_stats[q], score_fallback);
        total_count += test_stats[q].count();
      } catch (const NumericError&) {
        valid = false;  // degenerate fit: disqualify this grid point
        BMF_LOG_DEBUG("cv fold disqualified grid point",
                      log::f("kappa0", kappa0), log::f("nu0", nu0),
                      log::f("fold", q), log::f("folds", folds));
      }
    }
    if (!valid) BMF_COUNTER_ADD("core.cv.disqualified_points", 1);
    return (valid && total_count > 0)
               ? total_loglik / static_cast<double>(total_count)
               : -std::numeric_limits<double>::infinity();
  };

  BMF_SPAN("cv_select");
  BMF_COUNTER_ADD("core.cv.selections", 1);
  BMF_COUNTER_ADD("core.cv.grid_points", kappas.size() * nus.size());
  return screen_then_verify(
      kappas, nus,
      cv_surface(early_scaled, train_stats, test_stats, kappas, nus),
      exact_score);
}

CrossValidationResult select_hyperparameters_evidence(
    const GaussianMoments& early_scaled, const Matrix& late_scaled,
    const CrossValidationConfig& config) {
  BMFUSION_REQUIRE(late_scaled.rows() >= 1,
                   "evidence selection needs >= 1 late-stage sample");
  // The marginal likelihood touches the data only through its sufficient
  // statistics; summarize once and delegate to the stats core shared with
  // the streaming snapshot path.
  return select_hyperparameters_evidence(
      early_scaled, SufficientStats::from_samples(late_scaled), config);
}

CrossValidationResult select_hyperparameters_evidence(
    const GaussianMoments& early_scaled, const SufficientStats& stats,
    const CrossValidationConfig& config) {
  early_scaled.validate();
  config.validate();
  BMFUSION_REQUIRE(stats.dimension() == early_scaled.dimension(),
                   "late statistics must match the early-stage dimension");
  BMFUSION_REQUIRE(stats.count() >= 1,
                   "evidence selection needs >= 1 late-stage sample");

  const double d = static_cast<double>(early_scaled.dimension());
  const double n = static_cast<double>(stats.count());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nus = nu_axis(d, config);

  // Shared across the whole grid: the prior scale enters only through
  // Lambda_E (and its factor whitens the closed-form surface).
  const linalg::Cholesky prior_factor(early_scaled.covariance);
  const Matrix lambda_e = prior_factor.inverse();

  const auto exact_score = [&](double kappa0, double nu0) {
    BMF_SCOPED_TIMER_US("core.cv.grid_point_us");
    BMF_COUNTER_ADD("core.cv.exact_points", 1);
    BMF_COUNTER_ADD("core.cv.evidence_evals", 1);
    try {
      // Equivalent to NormalWishart::from_early_stage (eq. 20) with the
      // early-stage inversion hoisted out of the grid sweep.
      const NormalWishart prior(early_scaled.mean, kappa0, nu0,
                                lambda_e / (nu0 - d));
      return prior.log_marginal_likelihood(stats) / n;
    } catch (const NumericError&) {
      BMF_LOG_DEBUG("cv evidence disqualified grid point",
                    log::f("kappa0", kappa0), log::f("nu0", nu0));
      return -std::numeric_limits<double>::infinity();
    }
  };

  BMF_SPAN("cv_select_evidence");
  BMF_COUNTER_ADD("core.cv.selections", 1);
  BMF_COUNTER_ADD("core.cv.grid_points", kappas.size() * nus.size());
  return screen_then_verify(
      kappas, nus,
      evidence_surface(early_scaled, prior_factor, stats, kappas, nus),
      exact_score);
}

}  // namespace bmfusion::core
