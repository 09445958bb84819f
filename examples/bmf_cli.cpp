// bmf_cli: the library as a command-line validation tool.
//
// The adopter workflow it supports:
//   1. The early-stage team publishes its knowledge once:
//        bmf_cli --mode export --early-csv schematic_mc.csv
//                --early-nominal "72.9,6500,1.3e-4,0,76"
//                --knowledge-out early.bmf
//      (one command line; wrapped here for readability)
//   2. The validation team fuses a handful of late-stage measurements:
//        bmf_cli --mode fuse --knowledge early.bmf
//                --late-csv extracted_runs.csv
//                --late-nominal "72.7,6200,1.3e-4,0,74"
//      and receives the full validation report on stdout.
//
// Running with no arguments executes a self-contained demo on the bundled
// op-amp workload (generating the CSVs on the fly).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>

#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "common/cli.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "core/estimator.hpp"
#include "core/report.hpp"
#include "core/serialization.hpp"
#include "log/log.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace bmfusion;

linalg::Vector parse_vector(const std::string& text, std::size_t expected) {
  const std::vector<std::string> parts = split(text, ',');
  BMFUSION_REQUIRE(parts.size() == expected,
                   "expected " + std::to_string(expected) +
                       " comma-separated values, got '" + text + "'");
  linalg::Vector v(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    v[i] = std::stod(std::string(trim(parts[i])));
  }
  return v;
}

/// Dumps the model-selection surface as "kappa0,nu0,score" CSV for
/// bmf_doctor. The selected point carries its exact score and the others
/// may carry the closed-form surface (DESIGN §6). Disqualified points (-inf
/// score) are skipped: the CSV dialect is finite-only, and the snapshot's
/// core.cv.disqualified_points counter already carries their tally.
void write_cv_surface(const std::string& path,
                      const std::vector<core::GridScore>& grid) {
  if (path.empty()) return;
  if (grid.empty()) {
    std::fprintf(stderr,
                 "# --cv-surface ignored: estimator produced no grid\n");
    return;
  }
  CsvTable table;
  table.header = {"kappa0", "nu0", "score"};
  for (const core::GridScore& gs : grid) {
    if (!std::isfinite(gs.score)) continue;
    table.rows.push_back({gs.kappa0, gs.nu0, gs.score});
  }
  write_csv_file(path, table);
  std::fprintf(stderr, "# cv surface (%zu points) written to %s\n",
               table.rows.size(), path.c_str());
}

int run_export(const CliParser& cli) {
  const circuit::Dataset early =
      circuit::Dataset::load_csv(cli.get_string("early-csv"));
  core::NamedKnowledge nk;
  nk.metric_names = early.metric_names();
  nk.knowledge.moments =
      core::MleEstimator().estimate(early.samples()).moments;
  nk.knowledge.nominal =
      parse_vector(cli.get_string("early-nominal"), early.metric_count());
  const std::string out_path = cli.get_string("knowledge-out");
  core::write_knowledge_file(out_path, nk);
  std::printf("wrote early-stage knowledge (%zu metrics, %zu samples) to %s\n",
              early.metric_count(), early.sample_count(), out_path.c_str());
  return 0;
}

int run_fuse(const CliParser& cli) {
  const core::NamedKnowledge nk =
      core::read_knowledge_file(cli.get_string("knowledge"));
  const circuit::Dataset late =
      circuit::Dataset::load_csv(cli.get_string("late-csv"));
  BMFUSION_REQUIRE(late.metric_names() == nk.metric_names,
                   "late CSV metrics do not match the knowledge file");
  const linalg::Vector late_nominal =
      parse_vector(cli.get_string("late-nominal"), late.metric_count());

  const core::BmfEstimator estimator(nk.knowledge);
  core::ReportInput report;
  report.metric_names = nk.metric_names;
  report.result = estimator.estimate(late.samples(), late_nominal);
  report.late_samples = late.samples();
  core::write_validation_report(std::cout, report);
  write_cv_surface(cli.get_string("cv-surface"), report.result.cv_grid);
  return 0;
}

int run_demo(const CliParser& cli) {
  std::printf("# no mode given: running the bundled op-amp demo\n\n");
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  const circuit::TwoStageOpAmp schematic(circuit::DesignStage::kSchematic,
                                         circuit::ProcessModel::cmos45());
  const circuit::TwoStageOpAmp extracted(circuit::DesignStage::kPostLayout,
                                         circuit::ProcessModel::cmos45());
  const circuit::Dataset early =
      run_monte_carlo(schematic, circuit::MonteCarloConfig{}
                                     .with_sample_count(2000)
                                     .with_seed(1)
                                     .with_threads(threads));
  const circuit::Dataset late = run_monte_carlo(extracted,
                                                circuit::MonteCarloConfig{}
                                                    .with_sample_count(20)
                                                    .with_seed(2)
                                                    .with_threads(threads));

  // Round-trip the knowledge through the serialization layer, exactly as
  // the two-team workflow would.
  core::NamedKnowledge nk;
  nk.metric_names = early.metric_names();
  nk.knowledge.moments =
      core::MleEstimator().estimate(early.samples()).moments;
  nk.knowledge.nominal = schematic.nominal_metrics();
  std::stringstream handoff;
  core::write_knowledge(handoff, nk);
  const core::NamedKnowledge loaded = core::read_knowledge(handoff);

  const core::BmfEstimator estimator(loaded.knowledge);
  core::ReportInput report;
  report.metric_names = loaded.metric_names;
  report.result =
      estimator.estimate(late.samples(), extracted.nominal_metrics());
  report.late_samples = late.samples();
  report.early_sample_count = early.sample_count();
  // Spec box: gain >= 72 dB, PM >= 72 deg, power <= 145 uW — tight enough
  // that each spec costs a few percent of yield.
  const double inf = std::numeric_limits<double>::infinity();
  report.specs = core::SpecBox{
      linalg::Vector{72.0, -inf, -inf, -inf, 72.0},
      linalg::Vector{inf, inf, 145e-6, inf, inf}};
  core::write_validation_report(std::cout, report);
  write_cv_surface(cli.get_string("cv-surface"), report.result.cv_grid);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "bmf_cli: export early-stage knowledge and fuse late-stage CSVs into "
      "a validation report");
  cli.add_flag("mode", "", "'export', 'fuse', or empty for the demo");
  cli.add_flag("early-csv", "", "early-stage Monte-Carlo samples (CSV)");
  cli.add_flag("early-nominal", "", "comma-separated nominal metrics");
  cli.add_flag("knowledge-out", "early.bmf", "knowledge file to write");
  cli.add_flag("knowledge", "early.bmf", "knowledge file to read");
  cli.add_flag("late-csv", "", "late-stage samples (CSV)");
  cli.add_flag("late-nominal", "", "comma-separated late nominal metrics");
  cli.add_flag("telemetry", "",
               "write a telemetry JSON snapshot to this path at exit");
  cli.add_flag("trace", "",
               "write a Chrome trace_event JSON to this path at exit");
  cli.add_flag("log-level", "warn",
               "sink threshold for stderr/file logging "
               "(debug, info, warn, error)");
  cli.add_flag("log-file", "",
               "write structured JSON-lines logs here (also arms the "
               "flight-recorder dump on numeric errors)");
  cli.add_flag("cv-surface", "",
               "write the CV score surface (kappa0,nu0,score CSV) here");
  cli.add_flag("threads", "0",
               "Monte Carlo worker threads for the demo "
               "(0 = hardware concurrency; results are thread-invariant)");
  try {
    if (!cli.parse(argc, argv)) return 0;

    log::Logger& logger = log::Logger::instance();
    const std::string log_level = cli.get_string("log-level");
    const std::optional<log::Level> parsed = log::parse_level(log_level);
    if (!parsed) {
      throw DataError("unknown --log-level '" + log_level + "'");
    }
    logger.set_level(*parsed);
    const std::string log_path = cli.get_string("log-file");
    if (!log_path.empty() && !logger.attach_json_file(log_path)) return 1;

    const std::string mode = cli.get_string("mode");
    int rc = 0;
    if (mode == "export") {
      rc = run_export(cli);
    } else if (mode == "fuse") {
      rc = run_fuse(cli);
    } else if (mode.empty()) {
      rc = run_demo(cli);
    } else {
      throw DataError("unknown --mode '" + mode + "'");
    }
    const std::string snapshot_path = cli.get_string("telemetry");
    const std::string trace_path = cli.get_string("trace");
    if (!snapshot_path.empty() || !trace_path.empty()) {
      if (!telemetry::write_outputs(snapshot_path, trace_path)) return 1;
      if (!snapshot_path.empty()) {
        std::fprintf(stderr, "# telemetry snapshot written to %s\n",
                     snapshot_path.c_str());
      }
      if (!trace_path.empty()) {
        std::fprintf(stderr, "# trace written to %s\n", trace_path.c_str());
      }
    }
    if (!log_path.empty()) {
      logger.flush();
      std::fprintf(stderr, "# structured log written to %s\n",
                   log_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bmf_cli: %s\n", e.what());
    return 1;
  }
}
