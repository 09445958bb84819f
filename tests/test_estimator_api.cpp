// Tests for the unified estimator API, the CV engine (golden-value parity
// against a reference implementation of the original materialize-per-fold
// engine, and the closed-form surface's screen-then-verify contract against
// the exact grid), and the persistent thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "circuit/flash_adc.hpp"
#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "circuit/process.hpp"
#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "core/bmf_estimator.hpp"
#include "core/cross_validation.hpp"
#include "core/estimator.hpp"
#include "core/mle.hpp"
#include "core/moments.hpp"
#include "core/normal_wishart.hpp"
#include "core/shift_scale.hpp"
#include "core/univariate_bmf.hpp"
#include "faulty_dataset.hpp"
#include "stats/moments.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"
#include "telemetry/telemetry.hpp"

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

// ------------------------------------- closed-form surface contract

/// The exact grids the selectors fall back to: the per-point bodies of
/// core/cross_validation.cpp, the same calls in the same order, so every
/// score is bitwise the exact engine's.
std::vector<GridScore> exact_cv_grid(const GaussianMoments& early,
                                     const std::vector<SufficientStats>& test,
                                     const CrossValidationConfig& config) {
  SufficientStats totals(early.dimension());
  for (const SufficientStats& fold : test) {
    if (fold.count() > 0) totals += fold;
  }
  std::vector<SufficientStats> train;
  for (const SufficientStats& fold : test) {
    train.push_back(fold.count() > 0 ? totals - fold : totals);
  }
  const double d = static_cast<double>(early.dimension());
  std::vector<GridScore> grid;
  for (const double kappa0 :
       log_spaced(config.kappa_min, config.kappa_max, config.kappa_points)) {
    for (const double offset : log_spaced(config.nu_offset_min,
                                          config.nu_offset_max,
                                          config.nu_points)) {
      const double nu0 = d + offset;
      double total_loglik = 0.0;
      std::size_t total_count = 0;
      bool valid = true;
      for (std::size_t q = 0; q < test.size() && valid; ++q) {
        if (train[q].count() == 0 || test[q].count() == 0) continue;
        try {
          const GaussianMoments map = map_fuse(early, train[q], kappa0, nu0);
          total_loglik += log_likelihood(map, test[q], LikelihoodFallback{});
          total_count += test[q].count();
        } catch (const NumericError&) {
          valid = false;
        }
      }
      grid.push_back({kappa0, nu0,
                      (valid && total_count > 0)
                          ? total_loglik / static_cast<double>(total_count)
                          : -std::numeric_limits<double>::infinity()});
    }
  }
  return grid;
}

std::vector<GridScore> exact_evidence_grid(
    const GaussianMoments& early, const SufficientStats& stats,
    const CrossValidationConfig& config) {
  const double d = static_cast<double>(early.dimension());
  const double n = static_cast<double>(stats.count());
  const Matrix lambda_e = linalg::Cholesky(early.covariance).inverse();
  std::vector<GridScore> grid;
  for (const double kappa0 :
       log_spaced(config.kappa_min, config.kappa_max, config.kappa_points)) {
    for (const double offset : log_spaced(config.nu_offset_min,
                                          config.nu_offset_max,
                                          config.nu_points)) {
      const double nu0 = d + offset;
      double score = -std::numeric_limits<double>::infinity();
      try {
        score = NormalWishart(early.mean, kappa0, nu0, lambda_e / (nu0 - d))
                    .log_marginal_likelihood(stats) /
                n;
      } catch (const NumericError&) {
      }
      grid.push_back({kappa0, nu0, score});
    }
  }
  return grid;
}

/// The contract: the selection is bitwise the exact grid's (first strictly
/// greater score, row-major), and every finite grid score lies within a
/// quarter of the 1e-9 * max(1, |best|) screening margin of the exact one.
void expect_surface_contract(const CrossValidationResult& got,
                             const std::vector<GridScore>& exact) {
  GridScore best{0.0, 0.0, -std::numeric_limits<double>::infinity()};
  for (const GridScore& gs : exact) {
    if (gs.score > best.score) best = gs;
  }
  EXPECT_EQ(got.kappa0, best.kappa0);
  EXPECT_EQ(got.nu0, best.nu0);
  EXPECT_EQ(got.score, best.score);
  const double quarter_margin = 0.25e-9 * std::max(1.0, std::fabs(best.score));
  ASSERT_EQ(got.grid().size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(got.grid()[i].kappa0, exact[i].kappa0);
    EXPECT_EQ(got.grid()[i].nu0, exact[i].nu0);
    if (std::isfinite(exact[i].score)) {
      EXPECT_LE(std::fabs(got.grid()[i].score - exact[i].score),
                quarter_margin)
          << "grid index " << i;
    } else {
      EXPECT_EQ(got.grid()[i].score, exact[i].score) << "grid index " << i;
    }
  }
}

std::vector<SufficientStats> round_robin_folds(const Matrix& rows,
                                               std::size_t folds) {
  std::vector<SufficientStats> out(folds, SufficientStats(rows.cols()));
  for (std::size_t i = 0; i < rows.rows(); ++i) out[i % folds].add(rows.row(i));
  return out;
}

std::uint64_t counter_total(const char* name) {
  return telemetry::Registry::instance().counter(name).total();
}

/// Checks both selectors on one problem against their exact grids.
void expect_both_selectors(const GaussianMoments& early,
                           const std::vector<SufficientStats>& folds,
                           const CrossValidationConfig& config) {
  {
    SCOPED_TRACE("cross validation");
    expect_surface_contract(select_hyperparameters(early, folds, config),
                            exact_cv_grid(early, folds, config));
  }
  SufficientStats totals(early.dimension());
  for (const SufficientStats& fold : folds) {
    if (fold.count() > 0) totals += fold;
  }
  SCOPED_TRACE("evidence");
  expect_surface_contract(
      select_hyperparameters_evidence(early, totals, config),
      exact_evidence_grid(early, totals, config));
}

TEST(CvSurface, PaperSessionsMatchTheExactGrid) {
  // The op-amp and flash-ADC sessions of the paper's flow in the scaled
  // space of Section 4.1, folded round-robin as a streaming session folds
  // them. A selection re-scores about one point and never falls back.
  using circuit::DesignStage;
  using circuit::MonteCarloConfig;
  const circuit::TwoStageOpAmp opamp_early(DesignStage::kSchematic,
                                           circuit::ProcessModel::cmos45());
  const circuit::TwoStageOpAmp opamp_late(DesignStage::kPostLayout,
                                          circuit::ProcessModel::cmos45());
  const circuit::FlashAdc adc_early(DesignStage::kSchematic,
                                    circuit::ProcessModel::cmos180());
  const circuit::FlashAdc adc_late(DesignStage::kPostLayout,
                                   circuit::ProcessModel::cmos180());
  const std::pair<const circuit::Testbench*, const circuit::Testbench*>
      sessions[] = {{&opamp_early, &opamp_late}, {&adc_early, &adc_late}};
  const CrossValidationConfig config;
  const std::uint64_t selections = counter_total("core.cv.selections");
  const std::uint64_t exact_points = counter_total("core.cv.exact_points");
  const std::uint64_t fallbacks = counter_total("core.cv.exact_fallbacks");
  for (const auto& [early_bench, late_bench] : sessions) {
    const Matrix early_rows =
        circuit::run_monte_carlo(
            *early_bench,
            MonteCarloConfig{}.with_sample_count(200).with_seed(17).with_threads(1))
            .samples();
    const Matrix late_rows =
        circuit::run_monte_carlo(
            *late_bench,
            MonteCarloConfig{}.with_sample_count(128).with_seed(18).with_threads(1))
            .samples();
    const GaussianMoments early_moments = estimate_mle(early_rows);
    const StageTransforms transforms =
        make_stage_transforms(early_bench->nominal_metrics(),
                              late_bench->nominal_metrics(), early_moments);
    const GaussianMoments early = transforms.early.apply(early_moments);
    for (const std::size_t n : {8u, 32u, 128u}) {
      SCOPED_TRACE("n = " + std::to_string(n));
      Matrix late(n, late_rows.cols());
      for (std::size_t i = 0; i < n; ++i) {
        late.set_row(i, transforms.late.apply(late_rows.row(i)));
      }
      expect_both_selectors(early, round_robin_folds(late, 4), config);
    }
  }
  if (telemetry::enabled()) {
    const std::uint64_t made = counter_total("core.cv.selections") - selections;
    EXPECT_EQ(made, 12u);
    EXPECT_LE(counter_total("core.cv.exact_points") - exact_points, 2 * made);
    EXPECT_EQ(counter_total("core.cv.exact_fallbacks"), fallbacks);
  }
}

TEST(CvSurface, RandomCasesMatchTheExactGrid) {
  // Ragged folds, fewer samples than dimensions, a tiny nu offset, both
  // (a rank-deficient training scatter plus a tiny alpha: M nearly
  // singular at the low-nu0 edge), late samples a thousand times tighter
  // than the prior with a tiny nu offset, a near-singular prior, and a
  // problem at 1e-3 scale whose prior is asymmetric within validate()'s
  // tolerance, at d = 1, 2, 3, 5 and 8. Some selections screen, some fall
  // back.
  const std::uint64_t selections = counter_total("core.cv.selections");
  const std::uint64_t fallbacks = counter_total("core.cv.exact_fallbacks");
  std::uint64_t seed = 40;
  for (const std::size_t d : {1u, 2u, 3u, 5u, 8u}) {
    for (int variant = 0; variant < 7; ++variant) {
      SCOPED_TRACE("d = " + std::to_string(d) + ", variant " +
                   std::to_string(variant));
      FaultyDataset data = FaultyDataset::clean(d, 4 * d + 3, ++seed);
      CrossValidationConfig config;
      std::size_t folds = 4;
      switch (variant) {
        case 0: folds = 3; break;  // 4d + 3 rows: ragged folds
        case 1: data.with_sample_count(std::max<std::size_t>(2, d - 1)); break;
        case 2: config.with_nu_offset_range(1e-6, 1000.0); break;
        case 3:
          data.with_sample_count(std::max<std::size_t>(2, d - 1));
          config.with_nu_offset_range(1e-6, 1000.0);
          break;
        case 4:
          for (std::size_t r = 0; r < data.late.rows(); ++r) {
            for (std::size_t c = 0; c < d; ++c) {
              data.late(r, c) = data.early.mean[c] + 1e-3 * data.late(r, c);
            }
          }
          config.with_nu_offset_range(1e-6, 1000.0);
          break;
        case 5:
          if (d >= 2) data.with_near_singular_prior();
          break;
        case 6:
          data.early.mean = data.early.mean * 1e-3;
          data.early.covariance *= 1e-6;
          data.late *= 1e-3;
          if (d >= 2) data.early.covariance(0, 1) += 5e-10;
          break;
      }
      expect_both_selectors(data.early,
                            round_robin_folds(data.late,
                                              std::min(folds, data.late.rows())),
                            config);
    }
  }
  if (telemetry::enabled()) {
    const std::uint64_t fell_back =
        counter_total("core.cv.exact_fallbacks") - fallbacks;
    EXPECT_GT(fell_back, 0u);
    EXPECT_LT(fell_back, counter_total("core.cv.selections") - selections);
  }
}

TEST(CvSurface, SingularPriorRunsTheFullExactGrid) {
  // Sigma_E has an exactly zero variance, so its clean Cholesky fails and
  // the surface cannot whiten by it: the selection runs the exact grid,
  // whose scoring fallback chain recovers every point.
  GaussianMoments early;
  early.mean = Vector{0.0, 0.5};
  early.covariance = Matrix{{1.0, 0.0}, {0.0, 0.0}};
  FaultyDataset data = FaultyDataset::clean(2, 10, 10);
  data.early = early;
  data.with_constant_late_dimension(1);
  for (std::size_t r = 0; r < data.late.rows(); ++r) {
    data.late(r, 1) = early.mean[1];
  }
  const std::vector<SufficientStats> folds = round_robin_folds(data.late, 4);
  const CrossValidationConfig config;
  const std::uint64_t fallbacks = counter_total("core.cv.exact_fallbacks");
  const CrossValidationResult got =
      select_hyperparameters(early, folds, config);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("core.cv.exact_fallbacks"), fallbacks + 1);
  }
  const std::vector<GridScore> exact = exact_cv_grid(early, folds, config);
  ASSERT_EQ(got.grid().size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(got.grid()[i].score, exact[i].score) << "grid index " << i;
  }
  // The evidence selector inverts Sigma_E and throws, as it always has.
  SufficientStats totals(2);
  for (const SufficientStats& fold : folds) totals += fold;
  EXPECT_THROW((void)select_hyperparameters_evidence(early, totals, config),
               NumericError);
}

TEST(CvSurface, SingleUsableFoldStillThrowsTypedError) {
  // One non-empty fold leaves nothing to hold out: every point is
  // disqualified and from_grid throws, as before the surface existed.
  const GaussianMoments early = toy_moments(3);
  std::vector<SufficientStats> folds(4, SufficientStats(3));
  const Matrix rows = draws(early, 6, 21);
  for (std::size_t i = 0; i < rows.rows(); ++i) folds[0].add(rows.row(i));
  try {
    (void)select_hyperparameters(early, folds, {});
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    EXPECT_EQ(e.context().operation, "cv-select");
  }
}

// --------------------------------------------------------- thread pool

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
                                       .with_nu_offset_range(2.0, 20.0);
  EXPECT_EQ(cv.folds, 5u);
  EXPECT_EQ(cv.kappa_points, 6u);
  EXPECT_EQ(cv.nu_points, 7u);
  EXPECT_DOUBLE_EQ(cv.kappa_min, 0.5);
  EXPECT_DOUBLE_EQ(cv.nu_offset_max, 20.0);
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
