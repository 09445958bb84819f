// Circuit-substrate micro-bench and fast-path correctness harness.
//
// Timing mode (default) reports per-stage wall time (DC solve, AC sweep,
// one full op-amp / flash-ADC Monte-Carlo sample), post-layout op-amp MC
// throughput, and the steady-state heap-allocation count per sample
// (counted by the bmfusion_alloc_hook operator-new override). With --json
// the measurements are appended to a BENCH_*.json perf-trajectory array.
//
// Parity mode (--parity) is the correctness gate for the workspace fast
// path: it bit-compares workspace-backed sample_metrics against the
// allocating reference for both testbenches, and checks that the dataset
// and streaming-stats Monte Carlo drivers are bitwise identical across
// thread counts. It is not timing-gated, so it can run under sanitizers.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/flash_adc.hpp"
#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "common/alloc_counter.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "stats/rng.hpp"
#include "stats/sufficient_stats.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace bmfusion;
using namespace bmfusion::circuit;
using linalg::Matrix;
using linalg::Vector;

bool bitwise_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof ua);
  std::memcpy(&ub, &b, sizeof ub);
  return ua == ub;
}

bool bitwise_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bitwise_equal(a[i], b[i])) return false;
  }
  return true;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!bitwise_equal(a(i, j), b(i, j))) return false;
    }
  }
  return true;
}

bool close(double a, double b, double tol) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= tol * scale;
}

bool close(const Vector& a, const Vector& b, double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!close(a[i], b[i], tol)) return false;
  }
  return true;
}

bool close(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!close(a(i, j), b(i, j), tol)) return false;
    }
  }
  return true;
}

/// Robust wall time per call in microseconds: one warmup batch, then the
/// median of five batch means. A single long mean is at the mercy of one
/// scheduler stall — on this project that once inflated a recorded stage
/// time by ~25% with no code change (see BENCH_circuit.json, pr7 record) —
/// while the median of independent batches discards such outliers.
template <typename F>
double time_stage_us(F&& run, std::size_t iters) {
  constexpr std::size_t kBatches = 5;
  const std::size_t per_batch =
      std::max<std::size_t>(1, iters / kBatches);
  for (std::size_t i = 0; i < per_batch; ++i) run();  // warmup batch
  double means[kBatches];
  for (double& mean : means) {
    Stopwatch sw;
    for (std::size_t i = 0; i < per_batch; ++i) run();
    mean = sw.seconds() * 1e6 / static_cast<double>(per_batch);
  }
  std::sort(means, means + kBatches);
  return means[kBatches / 2];
}

// ---------------------------------------------------------------------------
// Parity mode
// ---------------------------------------------------------------------------

int run_parity(std::uint64_t seed) {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::printf("  [%s] %s\n", ok ? " ok " : "FAIL", what);
    if (!ok) ++failures;
  };

  const TwoStageOpAmp opamp_sch(DesignStage::kSchematic, ProcessModel::cmos45());
  const TwoStageOpAmp opamp_post(DesignStage::kPostLayout,
                                 ProcessModel::cmos45());
  const FlashAdc adc(DesignStage::kPostLayout, ProcessModel::cmos180());

  std::printf("parity: workspace fast path vs allocating reference "
              "(seed=%llu)\n",
              static_cast<unsigned long long>(seed));

  // Per-sample bitwise parity: one workspace reused across draws, so later
  // draws also exercise the buffer-reuse (not just first-allocation) path.
  const auto sample_parity = [&](const Testbench& bench, std::size_t draws,
                                 const char* what) {
    SimWorkspace ws;
    bool ok = true;
    for (std::size_t i = 0; i < draws; ++i) {
      stats::Xoshiro256pp ref_rng = sample_rng(seed, i);
      const Vector ref = bench.sample_metrics(ref_rng);
      stats::Xoshiro256pp fast_rng = sample_rng(seed, i);
      const Vector& fast = bench.sample_metrics(fast_rng, ws);
      ok = ok && bitwise_equal(ref, fast);
      // Both paths must consume exactly the same random stream.
      ok = ok && ref_rng.next_u64() == fast_rng.next_u64();
    }
    check(ok, what);
  };
  sample_parity(opamp_sch, 8, "op-amp (schematic): 8 draws bitwise identical");
  sample_parity(opamp_post, 8,
                "op-amp (post-layout): 8 draws bitwise identical");
  sample_parity(adc, 4, "flash ADC (post-layout): 4 draws bitwise identical");

  // Thread-count invariance of both Monte Carlo drivers. 70 samples spans
  // a partial trailing streaming block (70 = 64 + 6).
  MonteCarloConfig cfg;
  cfg.sample_count = 70;
  cfg.seed = seed;
  const Dataset d1 = run_monte_carlo(opamp_sch, cfg.with_threads(1));
  const Dataset d2 = run_monte_carlo(opamp_sch, cfg.with_threads(2));
  const Dataset d4 = run_monte_carlo(opamp_sch, cfg.with_threads(4));
  check(bitwise_equal(d1.samples(), d2.samples()) &&
            bitwise_equal(d1.samples(), d4.samples()),
        "op-amp dataset bitwise identical for threads=1/2/4");

  const stats::SufficientStats s1 =
      run_monte_carlo_stats(opamp_sch, cfg.with_threads(1));
  const stats::SufficientStats s2 =
      run_monte_carlo_stats(opamp_sch, cfg.with_threads(2));
  const stats::SufficientStats s4 =
      run_monte_carlo_stats(opamp_sch, cfg.with_threads(4));
  check(s1 == s2 && s1 == s4,
        "op-amp streaming stats bitwise identical for threads=1/2/4");

  // Streaming vs dataset moments agree to rounding (the block-tree
  // accumulation order differs from the row-major one, so bitwise equality
  // is not expected here).
  const stats::SufficientStats from_rows =
      stats::SufficientStats::from_samples(d1.samples());
  check(close(from_rows.mean(), s1.mean(), 1e-12) &&
            close(from_rows.scatter(), s1.scatter(), 1e-9),
        "op-amp streaming moments match the dataset path");

  MonteCarloConfig adc_cfg;
  adc_cfg.sample_count = 9;
  adc_cfg.seed = seed + 1;
  const Dataset a1 = run_monte_carlo(adc, adc_cfg.with_threads(1));
  const Dataset a3 = run_monte_carlo(adc, adc_cfg.with_threads(3));
  check(bitwise_equal(a1.samples(), a3.samples()),
        "flash-ADC dataset bitwise identical for threads=1/3");

  const stats::SufficientStats as1 =
      run_monte_carlo_stats(adc, adc_cfg.with_threads(1));
  const stats::SufficientStats as3 =
      run_monte_carlo_stats(adc, adc_cfg.with_threads(3));
  check(as1 == as3,
        "flash-ADC streaming stats bitwise identical for threads=1/3");

  std::printf("parity: %s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Timing mode
// ---------------------------------------------------------------------------

/// Writes the --telemetry / --trace outputs when requested; returns 1 (and
/// prints to stderr) when a requested write fails, else 0.
int flush_telemetry(const CliParser& cli) {
  const std::string snapshot_path = cli.get_string("telemetry");
  const std::string trace_path = cli.get_string("trace");
  if (snapshot_path.empty() && trace_path.empty()) return 0;
  if (!telemetry::write_outputs(snapshot_path, trace_path)) return 1;
  if (!snapshot_path.empty()) {
    std::printf("  telemetry snapshot written to %s\n", snapshot_path.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("  trace written to %s\n", trace_path.c_str());
  }
  return 0;
}

/// Steady-state heap allocations per sample: warm a workspace up, then
/// count operator-new calls over `meas` further samples.
double alloc_per_sample(const Testbench& bench, std::size_t warmup,
                        std::size_t meas) {
  SimWorkspace ws;
  for (std::size_t i = 0; i < warmup; ++i) {
    stats::Xoshiro256pp rng = sample_rng(5, i);
    (void)bench.sample_metrics(rng, ws);
  }
  const std::uint64_t before = common::allocation_count();
  for (std::size_t i = warmup; i < warmup + meas; ++i) {
    stats::Xoshiro256pp rng = sample_rng(5, i);
    (void)bench.sample_metrics(rng, ws);
  }
  const std::uint64_t after = common::allocation_count();
  return static_cast<double>(after - before) / static_cast<double>(meas);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Circuit substrate micro-bench: stage wall times, Monte Carlo "
      "throughput and steady-state allocations per sample; --parity runs "
      "the bitwise fast-path checks instead.");
  cli.add_flag("samples", "2000", "Monte Carlo sample count for throughput");
  cli.add_flag("threads", "1", "Monte Carlo thread count (0 = hardware)");
  cli.add_flag("seed", "1", "Monte Carlo / parity seed");
  cli.add_flag("iters", "50", "iterations per stage timing (mean)");
  cli.add_flag("parity", "false", "run parity checks only (no timing)");
  cli.add_flag("json", "", "append the results to this JSON array file");
  cli.add_flag("label", "", "free-form label for the JSON record");
  cli.add_flag("git", "", "git revision for the JSON record");
  cli.add_flag("date", "", "ISO date for the JSON record");
  cli.add_flag("telemetry", "", "write a telemetry JSON snapshot here at exit");
  cli.add_flag("trace", "", "write a Chrome trace_event JSON here at exit");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (cli.get_bool("parity")) {
      const int rc = run_parity(seed);
      const int telemetry_rc = flush_telemetry(cli);
      return rc != 0 ? rc : telemetry_rc;
    }

    const auto iters = static_cast<std::size_t>(cli.get_int("iters"));
    const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
    const auto threads = static_cast<std::size_t>(cli.get_int("threads"));

    const TwoStageOpAmp opamp_sch(DesignStage::kSchematic,
                                  ProcessModel::cmos45());
    const TwoStageOpAmp opamp_post(DesignStage::kPostLayout,
                                   ProcessModel::cmos45());
    const FlashAdc adc(DesignStage::kPostLayout, ProcessModel::cmos180());

    // Stage timings (mean over `iters` calls, workspace fast path).
    const Netlist net = opamp_sch.build_netlist({});
    const DcSolver solver;
    SimWorkspace ws;
    const double dc_us =
        time_stage_us([&] { solver.solve_into(net, ws); }, iters);

    solver.solve_into(net, ws);
    ws.ac.bind(net, ws.op);
    const std::vector<double> freqs = log_frequency_grid(10.0, 10e9, 10);
    const NodeId out = net.find_node("out");
    const double ac_us = time_stage_us(
        [&] { ws.ac.amplifier_sweep(freqs, out, ws.ac_sweep, ws.response); },
        iters);
    const std::size_t ac_points = ws.response.size();

    SimWorkspace sample_ws;
    std::size_t draw = 0;
    const double opamp_us = time_stage_us(
        [&] {
          stats::Xoshiro256pp rng = sample_rng(seed, draw++);
          (void)opamp_post.sample_metrics(rng, sample_ws);
        },
        iters);
    draw = 0;
    const double opamp_ref_us = time_stage_us(
        [&] {
          stats::Xoshiro256pp rng = sample_rng(seed, draw++);
          (void)opamp_post.sample_metrics(rng);
        },
        iters);
    draw = 0;
    SimWorkspace adc_ws;
    const double adc_us = time_stage_us(
        [&] {
          stats::Xoshiro256pp rng = sample_rng(seed, draw++);
          (void)adc.sample_metrics(rng, adc_ws);
        },
        std::max<std::size_t>(1, iters / 2));

    // Steady-state allocations per sample (op-amp must be exactly zero).
    const double opamp_alloc = alloc_per_sample(opamp_post, 4, 16);
    const double adc_alloc = alloc_per_sample(adc, 2, 8);

    // Monte Carlo throughput, post-layout op-amp.
    MonteCarloConfig cfg;
    cfg.sample_count = samples;
    cfg.seed = seed;
    cfg.threads = threads;
    Stopwatch sw;
    const Dataset ds = run_monte_carlo(opamp_post, cfg);
    const double mc_seconds = sw.seconds();
    const double sps = static_cast<double>(ds.sample_count()) / mc_seconds;

    // Streaming-stats driver throughput on the same bench/config: this is
    // the path the estimator uses, and the one the parallel reduction was
    // built for, so its scaling is tracked separately from the dataset path.
    Stopwatch stats_sw;
    const stats::SufficientStats mc_stats = run_monte_carlo_stats(opamp_post, cfg);
    const double mc_stats_seconds = stats_sw.seconds();
    const double stats_sps =
        static_cast<double>(mc_stats.count()) / mc_stats_seconds;

    std::printf("micro_circuit (threads=%zu, iters=%zu)\n", threads, iters);
    std::printf("  %-36s %10.3f us\n", "DC solve (schematic op-amp)", dc_us);
    std::printf("  %-36s %10.3f us\n", "AC sweep (to the crossings)", ac_us);
    std::printf("  %-36s %10zu of %zu\n", "AC points solved per die", ac_points,
                freqs.size());
    std::printf("  %-36s %10.3f us\n", "op-amp sample (workspace)", opamp_us);
    std::printf("  %-36s %10.3f us\n", "op-amp sample (reference)",
                opamp_ref_us);
    std::printf("  %-36s %10.3f us\n", "flash-ADC sample (workspace)", adc_us);
    std::printf("  %-36s %10.2f\n", "op-amp allocs/sample (steady)",
                opamp_alloc);
    std::printf("  %-36s %10.2f\n", "flash-ADC allocs/sample (steady)",
                adc_alloc);
    std::printf("  MC op-amp post-layout: %zu samples in %.4f s = %.1f "
                "samples/s\n",
                ds.sample_count(), mc_seconds, sps);
    std::printf("  MC op-amp post-layout (streaming stats): %zu samples in "
                "%.4f s = %.1f samples/s\n",
                mc_stats.count(), mc_stats_seconds, stats_sps);

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      char measurements[832];
      std::snprintf(
          measurements, sizeof measurements,
          "\"stages\": {\"dc_solve_us\": %.3f, \"ac_sweep_us\": %.3f, "
          "\"ac_points\": %zu, "
          "\"opamp_sample_us\": %.3f, \"opamp_sample_ref_us\": %.3f, "
          "\"adc_sample_us\": %.3f}, \"mc_opamp_postlayout\": {\"samples\": "
          "%zu, \"seconds\": %.4f, \"throughput_sps\": %.1f}, "
          "\"mc_stats_opamp_postlayout\": {\"samples\": %zu, \"seconds\": "
          "%.4f, \"throughput_sps\": %.1f}, "
          "\"alloc_per_sample\": {\"opamp\": %.2f, \"adc\": %.2f}",
          dc_us, ac_us, ac_points, opamp_us, opamp_ref_us, adc_us,
          ds.sample_count(), mc_seconds, sps, mc_stats.count(),
          mc_stats_seconds, stats_sps, opamp_alloc, adc_alloc);
      const std::string record = "{\"bench\": \"micro_circuit\", " +
                                 bench::run_metadata_json(cli, threads) +
                                 ", " + measurements + "}";
      bench::append_json_record(json_path, record);
      std::printf("  record appended to %s\n", json_path.c_str());
    }

    const int telemetry_rc = flush_telemetry(cli);
    if (opamp_alloc != 0.0 || adc_alloc != 0.0) {
      std::fprintf(stderr,
                   "micro_circuit: hot path allocated in steady state "
                   "(op-amp %.2f, flash-ADC %.2f allocs/sample, expected "
                   "0 for both)\n",
                   opamp_alloc, adc_alloc);
      return 1;
    }
    return telemetry_rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_circuit: %s\n", e.what());
    return 1;
  }
}
