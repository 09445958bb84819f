// Performance-architecture contract tests for the Monte Carlo hot path:
// thread-count invariance of both engines, bitwise equivalence of the
// workspace fast path and the allocating reference path, exception
// propagation out of worker threads, steady-state allocation freedom,
// pinned per-sample RNG streams (the (seed, index) -> stream mapping is part
// of the reproducibility contract — changing it silently re-rolls every
// recorded experiment), and pinned dies (hashes of whole Monte Carlo
// datasets, so a speed-up of either testbench cannot move a bit).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "circuit/flash_adc.hpp"
#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "circuit/workspace.hpp"
#include "common/alloc_counter.hpp"
#include "common/contracts.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/moments.hpp"
#include "stats/sufficient_stats.hpp"
#include "stats/univariate.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::circuit {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Bit-pattern equality: stricter than operator== (distinguishes -0.0 from
/// 0.0 and would catch a NaN sneaking into only one of the two paths).
bool bitwise_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (!bitwise_equal(a(r, c), b(r, c))) return false;
    }
  }
  return true;
}

TwoStageOpAmp post_layout_opamp() {
  return TwoStageOpAmp(DesignStage::kPostLayout,
                       ProcessModel(TechnologyStatistics{}));
}

// ------------------------------------------------------- per-sample streams

TEST(SampleRng, PinnedStreams) {
  // First three draws of four (seed, index) pairs, recorded when the
  // four-draw SplitMix64 -> xoshiro256++ seeding landed. Any change here
  // re-rolls every die of every recorded run.
  struct Pin {
    std::uint64_t seed;
    std::size_t index;
    std::uint64_t draws[3];
  };
  const Pin pins[] = {
      {1, 0,
       {0x498aa2c40bb7b540ULL, 0xb459c7c9a54b715fULL, 0xd6b761a789afa561ULL}},
      {1, 1,
       {0x4c60074651f0300aULL, 0x87763a2efe7f372dULL, 0xfdbd36bd3fa3b6bbULL}},
      {42, 7,
       {0xe75b7fe39ff22929ULL, 0x937cec00f7843ae0ULL, 0x6b8be11ca45d5628ULL}},
      {2015, 999,
       {0x76f25a05834f6c03ULL, 0x68c66abe6eb348c1ULL, 0x9a856af4ba708315ULL}},
  };
  for (const Pin& pin : pins) {
    stats::Xoshiro256pp rng = sample_rng(pin.seed, pin.index);
    for (const std::uint64_t expected : pin.draws) {
      EXPECT_EQ(rng.next_u64(), expected)
          << "seed=" << pin.seed << " index=" << pin.index;
    }
  }
}

// ------------------------------------------------------------- pinned dies

/// 64-bit FNV-1a over raw bytes: a bit flip anywhere in a die's metrics
/// changes the hash.
std::uint64_t fnv1a(const double* values, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values);
  for (std::size_t i = 0; i < count * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Pins 64 dies (seed 2015) and the nominal run of one bench: the dataset
/// hash must match for 1 and 3 worker threads.
void expect_pinned(const Testbench& bench, std::uint64_t dies_hash,
                   std::uint64_t nominal_hash) {
  const auto base = MonteCarloConfig{}.with_sample_count(64).with_seed(2015);
  for (const std::size_t threads : {1, 3}) {
    const Dataset ds =
        run_monte_carlo(bench, MonteCarloConfig(base).with_threads(threads));
    const Matrix& s = ds.samples();
    EXPECT_EQ(fnv1a(s.data(), s.rows() * s.cols()), dies_hash)
        << std::hex << "threads=" << threads << " dies=0x"
        << fnv1a(s.data(), s.rows() * s.cols());
  }
  const Vector nominal = bench.nominal_metrics();
  EXPECT_EQ(fnv1a(nominal.data(), nominal.size()), nominal_hash)
      << std::hex << "nominal=0x" << fnv1a(nominal.data(), nominal.size());
}

// The die-invariant precomputations (ADC carrier, FFT twiddle table, code
// lookup, inline RNG) must leave every die bit for bit as it was. These
// hashes were recorded before those changes and hold across them. Like
// every bitwise gate here, they depend on the platform's libm (sin, cos,
// log, sqrt, exp): a different libm may legitimately re-roll them.
TEST(PinnedDies, OpAmpSchematic) {
  expect_pinned(TwoStageOpAmp(DesignStage::kSchematic, ProcessModel::cmos45()),
                0x8df728538bac908fULL, 0xce6c0630c69ca99eULL);
}

TEST(PinnedDies, OpAmpPostLayout) {
  expect_pinned(TwoStageOpAmp(DesignStage::kPostLayout, ProcessModel::cmos45()),
                0x97603c7fe9e2763bULL, 0xe9224a38dd547c57ULL);
}

TEST(PinnedDies, FlashAdcSchematic) {
  expect_pinned(FlashAdc(DesignStage::kSchematic, ProcessModel::cmos180()),
                0x0c02bb0554f13a96ULL, 0xc9943f6fd30aa561ULL);
}

TEST(PinnedDies, FlashAdcPostLayout) {
  expect_pinned(FlashAdc(DesignStage::kPostLayout, ProcessModel::cmos180()),
                0x6260afef31146dc5ULL, 0xd13a60d538436ae1ULL);
}

/// Pins the noise-free capture (FlashAdc::measure with a null RNG) of 16
/// dies (seed 2015): no Monte Carlo path reaches it, so the dataset hashes
/// above do not cover its branch of the capture loop. Recorded before the
/// capture's noise draws moved into a pass of their own.
void expect_pinned_noise_free(const FlashAdc& bench, std::uint64_t hash) {
  std::vector<double> metrics;
  for (std::size_t die = 0; die < 16; ++die) {
    stats::Xoshiro256pp rng = sample_rng(2015, die);
    const Vector m = bench.measure(bench.sample_variations(rng), nullptr);
    metrics.insert(metrics.end(), m.data(), m.data() + m.size());
  }
  EXPECT_EQ(fnv1a(metrics.data(), metrics.size()), hash)
      << std::hex << "noise-free=0x" << fnv1a(metrics.data(), metrics.size());
}

TEST(PinnedDies, FlashAdcNoiseFreeSchematic) {
  expect_pinned_noise_free(
      FlashAdc(DesignStage::kSchematic, ProcessModel::cmos180()),
      0x4192b061a003ae4cULL);
}

TEST(PinnedDies, FlashAdcNoiseFreePostLayout) {
  expect_pinned_noise_free(
      FlashAdc(DesignStage::kPostLayout, ProcessModel::cmos180()),
      0x524cbff5afa27311ULL);
}

TEST(SampleRng, NeighboringIndicesDecorrelated) {
  // The old seeding folded the index into a single SplitMix64 draw; the
  // four-draw version must still give unrelated streams for adjacent dies.
  stats::Xoshiro256pp a = sample_rng(7, 100);
  stats::Xoshiro256pp b = sample_rng(7, 101);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// ------------------------------------------------- workspace fast-path parity

TEST(WorkspaceParity, OpAmpSampleBitwiseMatchesReference) {
  const TwoStageOpAmp bench = post_layout_opamp();
  SimWorkspace ws;
  for (std::size_t i = 0; i < 6; ++i) {
    stats::Xoshiro256pp ref_rng = sample_rng(11, i);
    stats::Xoshiro256pp fast_rng = sample_rng(11, i);
    const Vector ref = bench.sample_metrics(ref_rng);
    const Vector& fast = bench.sample_metrics(fast_rng, ws);
    ASSERT_EQ(ref.size(), fast.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_TRUE(bitwise_equal(ref[k], fast[k]))
          << "die " << i << " metric " << k;
    }
    // Both paths must consume identical amounts of randomness, or a mixed
    // warm/cold sweep would shift every subsequent draw.
    EXPECT_EQ(ref_rng.next_u64(), fast_rng.next_u64()) << "die " << i;
  }
}

// -------------------------------------------------------- thread invariance

TEST(ThreadInvariance, DatasetBitwiseIdenticalAcrossThreadCounts) {
  const TwoStageOpAmp bench = post_layout_opamp();
  // 70 samples spans a partial 64-sample streaming block on purpose.
  const auto base = MonteCarloConfig{}.with_sample_count(70).with_seed(3);
  const Dataset one = run_monte_carlo(bench, MonteCarloConfig(base).with_threads(1));
  const Dataset two = run_monte_carlo(bench, MonteCarloConfig(base).with_threads(2));
  const Dataset three =
      run_monte_carlo(bench, MonteCarloConfig(base).with_threads(3));
  EXPECT_TRUE(bitwise_equal(one.samples(), two.samples()));
  EXPECT_TRUE(bitwise_equal(one.samples(), three.samples()));
}

TEST(ThreadInvariance, StreamingStatsBitwiseIdenticalAcrossThreadCounts) {
  const TwoStageOpAmp bench = post_layout_opamp();
  const auto base = MonteCarloConfig{}.with_sample_count(70).with_seed(3);
  const stats::SufficientStats one =
      run_monte_carlo_stats(bench, MonteCarloConfig(base).with_threads(1));
  const stats::SufficientStats two =
      run_monte_carlo_stats(bench, MonteCarloConfig(base).with_threads(2));
  const stats::SufficientStats three =
      run_monte_carlo_stats(bench, MonteCarloConfig(base).with_threads(3));
  EXPECT_TRUE(one == two);
  EXPECT_TRUE(one == three);
}

/// Byte-level equality of the packed moment buffers (count + sum + scatter):
/// the strongest form of the reduction contract — a NaN payload or -0.0/0.0
/// difference that operator== would wave through still fails here.
bool memcmp_stats(const stats::SufficientStats& a,
                  const stats::SufficientStats& b) {
  if (a.count() != b.count() || a.dimension() != b.dimension()) return false;
  const std::size_t d = a.dimension();
  if (std::memcmp(a.sum().data(), b.sum().data(), d * sizeof(double)) != 0) {
    return false;
  }
  return std::memcmp(a.sum_outer().data(), b.sum_outer().data(),
                     d * d * sizeof(double)) == 0;
}

/// Cheap deterministic bench (no circuit solve) so thread-invariance can be
/// exercised over many accumulation blocks without dominating test time.
class SyntheticBench final : public Testbench {
 public:
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return {"x", "y", "z"};
  }
  [[nodiscard]] Vector nominal_metrics() const override {
    return Vector({0.0, 0.0, 0.0});
  }
  [[nodiscard]] Vector sample_metrics(
      stats::Xoshiro256pp& rng) const override {
    Vector v(3);
    v[0] = stats::sample_normal(rng, 0.0, 1.0);
    v[1] = stats::sample_normal(rng, 5.0, 2.0);
    v[2] = v[0] * v[1] + stats::sample_normal(rng, 0.0, 0.1);
    return v;
  }
};

/// Small flash ADC (4 bits, 64-point capture) so the full sample pipeline —
/// including the FFT/spectral stage — runs in microseconds per draw.
FlashAdc small_flash_adc() {
  FlashAdcDesign design;
  design.bits = 4;
  design.capture_points = 64;
  return FlashAdc(DesignStage::kPostLayout, ProcessModel::cmos180(), design,
                  FlashAdcParasitics{});
}

TEST(ThreadInvariance, StreamingStatsMemcmpIdenticalOpAmp) {
  const TwoStageOpAmp bench = post_layout_opamp();
  // 70 = 64 + 6: one full accumulation block plus a partial trailing block,
  // so the non-multiple-of-64 path is covered on a real bench.
  const auto base = MonteCarloConfig{}.with_sample_count(70).with_seed(7);
  const stats::SufficientStats one =
      run_monte_carlo_stats(bench, MonteCarloConfig(base).with_threads(1));
  for (const std::size_t threads : {2, 3, 8}) {
    const stats::SufficientStats other = run_monte_carlo_stats(
        bench, MonteCarloConfig(base).with_threads(threads));
    EXPECT_TRUE(memcmp_stats(one, other)) << "threads=" << threads;
  }
}

TEST(ThreadInvariance, StreamingStatsMemcmpIdenticalFlashAdc) {
  const FlashAdc bench = small_flash_adc();
  const auto base = MonteCarloConfig{}.with_sample_count(70).with_seed(9);
  const stats::SufficientStats one =
      run_monte_carlo_stats(bench, MonteCarloConfig(base).with_threads(1));
  for (const std::size_t threads : {2, 3, 8}) {
    const stats::SufficientStats other = run_monte_carlo_stats(
        bench, MonteCarloConfig(base).with_threads(threads));
    EXPECT_TRUE(memcmp_stats(one, other)) << "threads=" << threads;
  }
}

TEST(ThreadInvariance, StreamingStatsMemcmpIdenticalAcrossBlockLayouts) {
  // Sweep sample counts that hit every interesting block layout: a single
  // partial block, exactly one block, power-of-two block counts, and block
  // counts whose binary decomposition has several set bits plus a trailing
  // partial block. Every worker count must reproduce the 1-thread bytes.
  const SyntheticBench bench;
  for (const std::size_t count : {40UL, 64UL, 65UL, 256UL, 321UL, 593UL}) {
    const auto base =
        MonteCarloConfig{}.with_sample_count(count).with_seed(13);
    const stats::SufficientStats one =
        run_monte_carlo_stats(bench, MonteCarloConfig(base).with_threads(1));
    for (const std::size_t threads : {2, 3, 5, 8}) {
      const stats::SufficientStats other = run_monte_carlo_stats(
          bench, MonteCarloConfig(base).with_threads(threads));
      EXPECT_TRUE(memcmp_stats(one, other))
          << "count=" << count << " threads=" << threads;
    }
  }
}

TEST(ThreadInvariance, StreamingStatsMatchDatasetMoments) {
  const TwoStageOpAmp bench = post_layout_opamp();
  const auto config =
      MonteCarloConfig{}.with_sample_count(70).with_seed(3).with_threads(2);
  const Dataset ds = run_monte_carlo(bench, config);
  const stats::SufficientStats st = run_monte_carlo_stats(bench, config);
  ASSERT_EQ(st.count(), ds.sample_count());
  const Vector mean_ds = stats::sample_mean(ds.samples());
  const Vector mean_st = st.mean();
  for (std::size_t k = 0; k < mean_ds.size(); ++k) {
    const double scale = std::max(1.0, std::abs(mean_ds[k]));
    EXPECT_NEAR(mean_ds[k], mean_st[k], 1e-12 * scale) << "metric " << k;
  }
}

// ----------------------------------------------------- exception propagation

/// Bench whose simulation always fails; exercises error transport out of
/// worker threads in both engines (a lost exception would either hang the
/// reduction or silently drop samples).
class AlwaysThrowingBench final : public Testbench {
 public:
  [[nodiscard]] std::vector<std::string> metric_names() const override {
    return {"m"};
  }
  [[nodiscard]] Vector nominal_metrics() const override {
    return Vector({0.0});
  }
  [[nodiscard]] Vector sample_metrics(
      stats::Xoshiro256pp& rng) const override {
    (void)rng.next_u64();
    throw NumericError("injected sample failure");
  }
};

TEST(ExceptionPropagation, DatasetEngineRethrowsFromWorkers) {
  const AlwaysThrowingBench bench;
  const auto config =
      MonteCarloConfig{}.with_sample_count(16).with_seed(5).with_threads(2);
  EXPECT_THROW((void)run_monte_carlo(bench, config), NumericError);
}

TEST(ExceptionPropagation, StreamingEngineRethrowsFromWorkers) {
  const AlwaysThrowingBench bench;
  const auto config =
      MonteCarloConfig{}.with_sample_count(16).with_seed(5).with_threads(2);
  EXPECT_THROW((void)run_monte_carlo_stats(bench, config), NumericError);
}

// ------------------------------------------------------ allocation contract

TEST(AllocationContract, OpAmpWorkspaceSampleIsAllocationFreeSteadyState) {
  const TwoStageOpAmp bench = post_layout_opamp();
  SimWorkspace ws;
  // Warm-up draws grow every buffer (and the per-workspace netlist cache)
  // to its steady-state capacity and perform the one-time telemetry
  // registrations (metric creation, trace-ring allocation), so the measured
  // loop exercises the instrumented hot path in its steady state — the
  // zero-allocation contract must hold with telemetry enabled.
  for (std::size_t i = 0; i < 4; ++i) {
    stats::Xoshiro256pp rng = sample_rng(17, i);
    (void)bench.sample_metrics(rng, ws);
  }
  const std::uint64_t solves_before =
      telemetry::Registry::instance().counter("circuit.dc.solves").total();
  const std::uint64_t before = common::allocation_count();
  for (std::size_t i = 4; i < 12; ++i) {
    stats::Xoshiro256pp rng = sample_rng(17, i);
    (void)bench.sample_metrics(rng, ws);
  }
  const std::uint64_t after = common::allocation_count();
  EXPECT_EQ(after - before, 0u);
  if (telemetry::enabled()) {
    // The allocation-free draws must still be observed by the telemetry
    // layer: 8 measured samples = 8 DC solves.
    const std::uint64_t solves_after =
        telemetry::Registry::instance().counter("circuit.dc.solves").total();
    EXPECT_EQ(solves_after - solves_before, 8u);
  }
}

TEST(AllocationContract, FlashAdcWorkspaceSampleIsAllocationFreeSteadyState) {
  // Full-size converter (4096-point capture): the whole pipeline — die
  // sampling, threshold sort, waveform reconstruction, windowed FFT and
  // tone analysis — must reuse workspace buffers once they have grown.
  const FlashAdc bench(DesignStage::kPostLayout, ProcessModel::cmos180());
  SimWorkspace ws;
  for (std::size_t i = 0; i < 2; ++i) {
    stats::Xoshiro256pp rng = sample_rng(19, i);
    (void)bench.sample_metrics(rng, ws);
  }
  const std::uint64_t before = common::allocation_count();
  for (std::size_t i = 2; i < 8; ++i) {
    stats::Xoshiro256pp rng = sample_rng(19, i);
    (void)bench.sample_metrics(rng, ws);
  }
  const std::uint64_t after = common::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace bmfusion::circuit
