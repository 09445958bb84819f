// Old-vs-new cross-validation engine micro-bench.
//
// Embeds a copy of the original CV engine — the one that re-materialized
// train/test matrices per fold and ran the full posterior -> MAP -> mvn
// scoring pipeline at every grid point — and races it against the
// closed-form engine in core/cross_validation (the whole grid scored from
// one whitened spectrum per fold, the points that can win re-scored
// exactly) at the paper's default setting (12x12 grid, Q = 4, d = 4,
// n <= 100). Also reports the worst per-grid-point score deviation so the
// speedup is backed by a parity check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/contracts.hpp"
#include "core/cross_validation.hpp"
#include "core/normal_wishart.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/mvn.hpp"
#include "stats/rng.hpp"
#include "telemetry/export.hpp"

namespace {

using bmfusion::core::CrossValidationConfig;
using bmfusion::core::CrossValidationResult;
using bmfusion::core::GaussianMoments;
using bmfusion::core::GridScore;
using bmfusion::core::NormalWishart;
using bmfusion::core::log_spaced;
using bmfusion::linalg::Matrix;
using bmfusion::linalg::Vector;

/// The pre-sufficient-statistic engine, kept verbatim as the reference.
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

std::vector<GridScore> reference_grid(const GaussianMoments& early_scaled,
                                      const Matrix& late_scaled,
                                      const CrossValidationConfig& config) {
  const std::size_t folds = std::min(config.folds, late_scaled.rows());
  const double d = static_cast<double>(early_scaled.dimension());
  const std::vector<double> kappas =
      log_spaced(config.kappa_min, config.kappa_max, config.kappa_points);
  const std::vector<double> nu_offsets = log_spaced(
      config.nu_offset_min, config.nu_offset_max, config.nu_points);

  std::vector<Matrix> train_sets;
  std::vector<Matrix> test_sets;
  for (std::size_t q = 0; q < folds; ++q) {
    train_sets.push_back(fold_rows(late_scaled, folds, q, /*training=*/true));
    test_sets.push_back(fold_rows(late_scaled, folds, q, /*training=*/false));
  }

  std::vector<GridScore> table;
  table.reserve(kappas.size() * nu_offsets.size());
  for (const double kappa0 : kappas) {
    for (const double nu_offset : nu_offsets) {
      const double nu0 = d + nu_offset;
      const NormalWishart prior =
          NormalWishart::from_early_stage(early_scaled, kappa0, nu0);
      double total_loglik = 0.0;
      std::size_t total_count = 0;
      bool valid = true;
      for (std::size_t q = 0; q < folds && valid; ++q) {
        try {
          const GaussianMoments map =
              prior.posterior(train_sets[q]).map_estimate();
          const bmfusion::stats::MultivariateNormal mvn(map.mean,
                                                        map.covariance);
          total_loglik += mvn.log_likelihood(test_sets[q]);
          total_count += test_sets[q].rows();
        } catch (const bmfusion::NumericError&) {
          valid = false;
        }
      }
      GridScore gs;
      gs.kappa0 = kappa0;
      gs.nu0 = nu0;
      gs.score = (valid && total_count > 0)
                     ? total_loglik / static_cast<double>(total_count)
                     : -std::numeric_limits<double>::infinity();
      table.push_back(gs);
    }
  }
  return table;
}

/// Deterministic synthetic problem in scaled space: correlated d-dim
/// Gaussian late samples plus a slightly mis-anchored early-stage prior.
struct Problem {
  GaussianMoments early;
  Matrix late;
};

Problem make_problem(std::size_t d, std::size_t n, std::uint64_t seed) {
  GaussianMoments truth;
  truth.mean = Vector(d);
  truth.covariance = Matrix(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    truth.mean[i] = 0.05 * static_cast<double>(i);
    for (std::size_t j = 0; j < d; ++j) {
      truth.covariance(i, j) =
          std::pow(0.6, static_cast<double>(i > j ? i - j : j - i));
    }
  }

  Problem problem;
  problem.early = truth;
  for (std::size_t i = 0; i < d; ++i) {
    problem.early.mean[i] += 0.1;
    problem.early.covariance(i, i) *= 1.15;
  }

  bmfusion::stats::Xoshiro256pp rng(seed);
  const bmfusion::stats::MultivariateNormal mvn(truth.mean, truth.covariance);
  problem.late = Matrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    problem.late.set_row(i, mvn.sample(rng));
  }
  return problem;
}

template <typename F>
double time_best_ms(F&& run, std::size_t iterations) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t it = 0; it < iterations; ++it) {
    const auto start = std::chrono::steady_clock::now();
    run();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bmfusion::CliParser cli(
      "Times the closed-form CV engine against the original "
      "materialize-per-fold implementation and checks grid parity.");
  cli.add_flag("d", "4", "metric dimension");
  cli.add_flag("n", "100", "late-stage sample count");
  cli.add_flag("folds", "4", "cross-validation folds (Q)");
  cli.add_flag("grid", "12", "grid points per hyper-parameter axis");
  cli.add_flag("iters", "5", "timing iterations (best-of)");
  cli.add_flag("seed", "2015", "rng seed for the synthetic problem");
  cli.add_flag("json", "", "append the results to this JSON array file");
  cli.add_flag("label", "", "free-form label for the JSON record");
  cli.add_flag("git", "", "git revision for the JSON record");
  cli.add_flag("date", "", "ISO date for the JSON record");
  cli.add_flag("telemetry", "", "write a telemetry JSON snapshot here at exit");
  try {
    if (!cli.parse(argc, argv)) return 0;

    const auto d = static_cast<std::size_t>(cli.get_int("d"));
    const auto n = static_cast<std::size_t>(cli.get_int("n"));
    const auto iters = static_cast<std::size_t>(cli.get_int("iters"));
    const auto grid_points = static_cast<std::size_t>(cli.get_int("grid"));
    const CrossValidationConfig config =
        CrossValidationConfig{}
            .with_folds(static_cast<std::size_t>(cli.get_int("folds")))
            .with_grid(grid_points, grid_points);

    const Problem problem = make_problem(
        d, n, static_cast<std::uint64_t>(cli.get_int("seed")));

    // Parity first: every grid point must agree to 1e-9.
    const std::vector<GridScore> ref =
        reference_grid(problem.early, problem.late, config);
    const CrossValidationResult fast = bmfusion::core::select_hyperparameters(
        problem.early, problem.late, config);
    double max_dev = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      max_dev = std::max(max_dev,
                         std::abs(ref[i].score - fast.grid()[i].score));
    }

    const double old_ms = time_best_ms(
        [&] { (void)reference_grid(problem.early, problem.late, config); },
        iters);
    const double new_ms = time_best_ms(
        [&] {
          (void)bmfusion::core::select_hyperparameters(
              problem.early, problem.late, config);
        },
        iters);

    std::printf("micro_cv: d=%zu n=%zu folds=%zu grid=%zux%zu (best of %zu)\n",
                d, n, config.folds, config.kappa_points, config.nu_points,
                iters);
    std::printf("  %-34s %10.3f ms\n", "original engine (materialized folds)",
                old_ms);
    std::printf("  %-34s %10.3f ms\n", "closed-form engine", new_ms);
    std::printf("  speedup              %.2fx\n", old_ms / new_ms);
    std::printf("  max |score dev|      %.3e  (%s)\n", max_dev,
                max_dev <= 1e-9 ? "parity OK" : "PARITY FAIL");
    std::printf("  selected             kappa0=%.4g nu0=%.4g score=%.6f\n",
                fast.kappa0, fast.nu0, fast.score);

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      char measurements[384];
      std::snprintf(
          measurements, sizeof measurements,
          "\"d\": %zu, \"n\": %zu, \"folds\": %zu, \"grid\": %zu, "
          "\"old_ms\": %.3f, \"new_1t_ms\": %.3f, \"max_score_dev\": %.3e",
          d, n, config.folds, grid_points, old_ms, new_ms, max_dev);
      const std::string record =
          "{\"bench\": \"micro_cv\", " +
          bmfusion::bench::run_metadata_json(cli, /*threads=*/0) + ", " +
          measurements + "}";
      bmfusion::bench::append_json_record(json_path, record);
      std::printf("  record appended to %s\n", json_path.c_str());
    }
    const std::string snapshot_path = cli.get_string("telemetry");
    if (!snapshot_path.empty()) {
      if (!bmfusion::telemetry::write_outputs(snapshot_path, "")) return 1;
      std::printf("  telemetry snapshot written to %s\n",
                  snapshot_path.c_str());
    }
    return max_dev <= 1e-9 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_cv: %s\n", e.what());
    return 1;
  }
}
