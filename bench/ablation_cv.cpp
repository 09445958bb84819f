// Ablation of the Section 4.2 cross validation: sensitivity of accuracy and
// runtime to the fold count Q and the (nu0, kappa0) grid resolution.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "stats/descriptive.hpp"

int main(int argc, char** argv) {
  using namespace bmfusion;
  CliParser cli(
      "ablation_cv: Q-fold count and grid-resolution sweep for the 2-D "
      "hyper-parameter cross validation (op-amp workload, n = 32)");
  bench::add_common_flags(cli, 5000);
  try {
    if (!cli.parse(argc, argv)) return 0;
    const bench::StageData data = bench::load_opamp_data(
        cli.get_string("data-dir"),
        static_cast<std::size_t>(cli.get_int("samples")));
    const core::MomentExperiment experiment(data.early, data.early_nominal,
                                            data.late, data.late_nominal);

    // Fixed subset used to probe the evaluated grid itself (how many points
    // survive, how peaked the score surface is) at each configuration.
    linalg::Matrix probe(32, experiment.late_scaled().cols());
    for (std::size_t i = 0; i < probe.rows(); ++i) {
      probe.set_row(i, experiment.late_scaled().row(i));
    }

    std::printf("\nAblation: cross-validation configuration (op-amp, n=32)\n");
    ConsoleTable table({"folds", "grid", "bmf_mean_err", "bmf_cov_err",
                        "kappa0", "nu0", "valid_pts", "score_spread",
                        "seconds"});
    for (const std::size_t folds : {2u, 4u, 8u}) {
      for (const std::size_t grid : {6u, 12u, 20u}) {
        core::ExperimentConfig cfg =
            bench::experiment_config_from_cli(cli, {32});
        cfg.repetitions = std::max<std::size_t>(3, cfg.repetitions / 4);
        cfg.cv = core::CrossValidationConfig{}
                     .with_folds(folds)
                     .with_grid(grid, grid);
        Stopwatch sw;
        const core::ExperimentResult res = experiment.run(cfg);
        const double seconds = sw.seconds();

        // Grid diagnostics through the result's grid() accessor.
        const core::CrossValidationResult probe_sel =
            core::select_hyperparameters(experiment.early_scaled(), probe,
                                         cfg.cv);
        std::size_t valid = 0;
        double worst_finite = probe_sel.score;
        for (const core::GridScore& gs : probe_sel.grid()) {
          if (std::isfinite(gs.score)) {
            ++valid;
            worst_finite = std::min(worst_finite, gs.score);
          }
        }
        table.add_numeric_row(
            {static_cast<double>(folds), static_cast<double>(grid),
             res.rows[0].bmf_mean_error, res.rows[0].bmf_cov_error,
             res.rows[0].median_kappa0, res.rows[0].median_nu0,
             static_cast<double>(valid), probe_sel.score - worst_finite,
             seconds});
      }
    }
    table.print(std::cout);
    std::printf(
        "# accuracy saturates at moderate grids; runtime grows as "
        "folds x grid^2.\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ablation_cv: %s\n", e.what());
    return 1;
  }
  return 0;
}
