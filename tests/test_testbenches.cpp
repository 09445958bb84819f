// Tests for the dataset type, the Monte Carlo engine, and the two paper
// workloads (two-stage op-amp, flash ADC).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "circuit/dataset.hpp"
#include "circuit/dc.hpp"
#include "circuit/flash_adc.hpp"
#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "common/contracts.hpp"
#include "dsp/spectrum.hpp"
#include "stats/moments.hpp"
#include "stats/univariate.hpp"

namespace bmfusion::circuit {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ----------------------------------------------------------------- dataset

TEST(Dataset, ConstructionAndAccessors) {
  const Dataset ds({"a", "b"}, Matrix{{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(ds.sample_count(), 2u);
  EXPECT_EQ(ds.metric_count(), 2u);
  EXPECT_EQ(ds.metric_index("b"), 1u);
  EXPECT_THROW((void)ds.metric_index("c"), ContractError);
  EXPECT_TRUE(ds.metric_column("a") == Vector({1.0, 3.0}));
}

TEST(Dataset, ShapeMismatchRejected) {
  EXPECT_THROW(Dataset({"a"}, Matrix(2, 2)), ContractError);
}

TEST(Dataset, SelectRowsAndHead) {
  const Dataset ds({"x"}, Matrix{{1.0}, {2.0}, {3.0}});
  const Dataset sel = ds.select_rows({2, 0});
  EXPECT_EQ(sel.samples()(0, 0), 3.0);
  EXPECT_EQ(sel.samples()(1, 0), 1.0);
  EXPECT_EQ(ds.head(2).sample_count(), 2u);
  EXPECT_THROW((void)ds.head(9), ContractError);
  EXPECT_THROW((void)ds.select_rows({7}), ContractError);
}

TEST(Dataset, CsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bmfusion_dataset.csv";
  const Dataset ds({"m1", "m2"}, Matrix{{0.1 + 0.2, -4e-9}, {1.0, 2.0}});
  ds.save_csv(path);
  const Dataset back = Dataset::load_csv(path);
  EXPECT_EQ(back.metric_names(), ds.metric_names());
  EXPECT_TRUE(back.samples() == ds.samples());  // exact round-trip
  std::remove(path.c_str());
}

// ------------------------------------------------------------- monte carlo

/// Deterministic toy bench: metrics = [uniform, uniform + 1].
class ToyBench final : public Testbench {
 public:
  std::vector<std::string> metric_names() const override {
    return {"u", "u_plus_1"};
  }
  Vector nominal_metrics() const override { return Vector{0.5, 1.5}; }
  Vector sample_metrics(stats::Xoshiro256pp& rng) const override {
    const double u = rng.next_double();
    return Vector{u, u + 1.0};
  }
};

TEST(MonteCarlo, ShapeAndDeterminism) {
  const ToyBench bench;
  MonteCarloConfig cfg;
  cfg.sample_count = 64;
  cfg.seed = 5;
  const Dataset a = run_monte_carlo(bench, cfg);
  const Dataset b = run_monte_carlo(bench, cfg);
  EXPECT_EQ(a.sample_count(), 64u);
  EXPECT_TRUE(a.samples() == b.samples());  // bitwise reproducible
}

TEST(MonteCarlo, ResultIndependentOfThreadCount) {
  const ToyBench bench;
  MonteCarloConfig cfg;
  cfg.sample_count = 100;
  cfg.seed = 6;
  cfg.threads = 1;
  const Dataset serial = run_monte_carlo(bench, cfg);
  cfg.threads = 8;
  const Dataset parallel = run_monte_carlo(bench, cfg);
  EXPECT_TRUE(serial.samples() == parallel.samples());
}

TEST(MonteCarlo, DifferentSeedsProduceDifferentSamples) {
  const ToyBench bench;
  MonteCarloConfig cfg;
  cfg.sample_count = 8;
  cfg.seed = 1;
  const Dataset a = run_monte_carlo(bench, cfg);
  cfg.seed = 2;
  const Dataset b = run_monte_carlo(bench, cfg);
  EXPECT_FALSE(a.samples() == b.samples());
}

TEST(MonteCarlo, SampleRngIsStablePerIndex) {
  stats::Xoshiro256pp a = sample_rng(7, 3);
  stats::Xoshiro256pp b = sample_rng(7, 3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  stats::Xoshiro256pp c = sample_rng(7, 4);
  EXPECT_NE(a.next_u64(), c.next_u64());
}

// ------------------------------------------------------------------ op-amp

class OpAmpFixture : public ::testing::Test {
 protected:
  TwoStageOpAmp schematic_{DesignStage::kSchematic, ProcessModel::cmos45()};
  TwoStageOpAmp post_{DesignStage::kPostLayout, ProcessModel::cmos45()};
};

TEST_F(OpAmpFixture, NominalMetricsInDesignRange) {
  const Vector m = schematic_.nominal_metrics();
  EXPECT_GT(m[0], 50.0);   // gain > 50 dB
  EXPECT_LT(m[0], 90.0);
  EXPECT_GT(m[1], 1e3);    // bandwidth in the kHz range
  EXPECT_LT(m[1], 1e6);
  EXPECT_GT(m[2], 10e-6);  // power 10 uW .. 1 mW
  EXPECT_LT(m[2], 1e-3);
  EXPECT_LT(std::fabs(m[3]), 5e-3);  // offset near zero at nominal
  EXPECT_GT(m[4], 45.0);   // stable: phase margin > 45 deg
  EXPECT_LT(m[4], 95.0);
}

TEST_F(OpAmpFixture, MetricNamesMatchPaperOrder) {
  const std::vector<std::string> names = schematic_.metric_names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "gain_db");
  EXPECT_EQ(names[3], "offset_v");
}

TEST_F(OpAmpFixture, AllDevicesSaturatedAtNominal) {
  const Netlist net = schematic_.build_netlist({});
  const OperatingPoint op = DcSolver().solve(net);
  for (std::size_t i = 0; i < net.mosfets().size(); ++i) {
    EXPECT_EQ(op.mosfet_op(i).region, MosfetRegion::kSaturation)
        << "device " << net.mosfets()[i].name << " not saturated";
  }
}

TEST_F(OpAmpFixture, OffsetRespondsToInputPairImbalance) {
  TwoStageOpAmp::DieVariations v;
  v.devices[0].dvth = 5e-3;  // M1 threshold up 5 mV
  const Vector shifted = schematic_.measure(v);
  const Vector nominal = schematic_.nominal_metrics();
  // Input-referred offset moves by roughly the imposed Vth imbalance.
  EXPECT_NEAR(shifted[3] - nominal[3], 5e-3, 1.5e-3);
}

TEST_F(OpAmpFixture, PowerScalesWithBiasResistor) {
  TwoStageOpAmp::DieVariations v;
  v.r_bias_factor = 1.2;  // weaker bias -> less current -> less power
  const Vector low_bias = schematic_.measure(v);
  EXPECT_LT(low_bias[2], schematic_.nominal_metrics()[2]);
}

TEST_F(OpAmpFixture, MillerCapSetsBandwidth) {
  TwoStageOpAmp::DieVariations v;
  v.cap_factor = 1.3;
  const Vector big_cc = schematic_.measure(v);
  // Larger Cc -> lower -3 dB bandwidth (gain roughly unchanged).
  EXPECT_LT(big_cc[1], schematic_.nominal_metrics()[1] * 0.9);
}

TEST_F(OpAmpFixture, PostLayoutLowersBandwidthAndMargin) {
  const Vector sch = schematic_.nominal_metrics();
  const Vector post = post_.nominal_metrics();
  EXPECT_LT(post[1], sch[1]);  // parasitics slow it down
  EXPECT_LT(post[4], sch[4]);  // and erode phase margin
}

TEST_F(OpAmpFixture, MonteCarloSpreadIsRealistic) {
  MonteCarloConfig cfg;
  cfg.sample_count = 300;
  cfg.seed = 77;
  const Dataset ds = run_monte_carlo(schematic_, cfg);
  const Vector sd = stats::sample_stddev(ds.samples());
  EXPECT_GT(sd[0], 0.2);   // gain sigma a fraction of a dB
  EXPECT_LT(sd[0], 3.0);
  const double offset_sigma = sd[3];
  EXPECT_GT(offset_sigma, 2e-3);   // mV-scale offsets
  EXPECT_LT(offset_sigma, 30e-3);
}

TEST_F(OpAmpFixture, SampleMetricsDeterministicPerRng) {
  stats::Xoshiro256pp rng1(9), rng2(9);
  EXPECT_TRUE(schematic_.sample_metrics(rng1) ==
              schematic_.sample_metrics(rng2));
}

// --------------------------------------------------------------- flash adc

class FlashAdcFixture : public ::testing::Test {
 protected:
  FlashAdc schematic_{DesignStage::kSchematic, ProcessModel::cmos180()};
  FlashAdc post_{DesignStage::kPostLayout, ProcessModel::cmos180()};
};

TEST_F(FlashAdcFixture, NominalMetricsNearIdealSixBit) {
  const Vector m = schematic_.nominal_metrics();
  // Ideal 6-bit SNR is 6.02*6 + 1.76 = 37.9 dB; noise costs a little.
  EXPECT_GT(m[0], 30.0);
  EXPECT_LT(m[0], 39.0);
  EXPECT_LE(m[1], m[0] + 1e-9);  // SINAD <= SNR
  EXPECT_GT(m[2], 25.0);         // SFDR positive and plausible
  EXPECT_LT(m[3], -20.0);        // THD well below carrier
  EXPECT_GT(m[4], 1e-3);         // milliwatt-scale power
  EXPECT_LT(m[4], 50e-3);
}

TEST_F(FlashAdcFixture, ComparatorCount) {
  EXPECT_EQ(schematic_.comparator_count(), 63u);
}

TEST_F(FlashAdcFixture, NominalThresholdsUniformAndMonotone) {
  FlashAdc::DieVariations v;
  v.ladder_factors.assign(64, 1.0);
  v.comparator_offsets.assign(63, 0.0);
  const std::vector<double> taps = schematic_.thresholds(v);
  ASSERT_EQ(taps.size(), 63u);
  const double lsb = (1.6 - 0.2) / 64.0;
  EXPECT_NEAR(taps[0], 0.2 + lsb, 1e-12);
  for (std::size_t i = 1; i < taps.size(); ++i) {
    EXPECT_NEAR(taps[i] - taps[i - 1], lsb, 1e-12);
  }
}

TEST_F(FlashAdcFixture, LadderMismatchMovesInteriorTapsOnly) {
  FlashAdc::DieVariations v;
  v.ladder_factors.assign(64, 1.0);
  v.ladder_factors[10] = 1.5;  // one fat segment
  v.comparator_offsets.assign(63, 0.0);
  const std::vector<double> taps = schematic_.thresholds(v);
  // The references pin the ends: the last tap stays within one (re-scaled)
  // segment of the top reference.
  EXPECT_LT(taps.back(), 1.6);
  EXPECT_GT(taps.back(), 1.5);
  // Taps remain monotone under pure ladder mismatch.
  for (std::size_t i = 1; i < taps.size(); ++i) {
    EXPECT_GT(taps[i], taps[i - 1]);
  }
}

/// The thermometer encoder as a binary search: the first sorted threshold
/// above `vin`.
std::size_t upper_bound_code(const std::vector<double>& sorted, double vin) {
  return static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), vin) - sorted.begin());
}

std::vector<double> sorted_thresholds(const FlashAdc& adc,
                                      const FlashAdc::DieVariations& die) {
  std::vector<double> sorted = adc.thresholds(die);
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// The ideal ladder step of `adc`.
double ideal_lsb(const FlashAdc& adc) {
  return (adc.design().v_high - adc.design().v_low) /
         static_cast<double>(adc.comparator_count() + 1);
}

ThermometerEncoder encoder_for(const FlashAdc& adc,
                               const std::vector<double>& thresholds) {
  ThermometerEncoder encoder;
  encoder.build(thresholds, adc.design().v_low, ideal_lsb(adc));
  return encoder;
}

/// Every threshold exactly and its floating-point neighbours, every bucket
/// edge and its neighbours, inputs outside the ladder, ±DBL_MAX,
/// infinities and NaN.
void expect_code_matches_search(const FlashAdc& adc,
                                const std::vector<double>& sorted) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> inputs = {
      -inf, inf, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::max(), std::numeric_limits<double>::max(),
      -1.0, 0.0, adc.design().v_low - 0.3, adc.design().v_low,
      adc.design().v_high, adc.design().v_high + 0.5, 5.0};
  for (const double t : sorted) {
    inputs.push_back(std::nextafter(t, -inf));
    inputs.push_back(t);
    inputs.push_back(std::nextafter(t, inf));
  }
  const double bucket_width =
      ideal_lsb(adc) / static_cast<double>(ThermometerEncoder::kBucketsPerLsb);
  const std::size_t buckets =
      (sorted.size() + 1) * ThermometerEncoder::kBucketsPerLsb;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge =
        adc.design().v_low + static_cast<double>(b) * bucket_width;
    inputs.push_back(std::nextafter(edge, -inf));
    inputs.push_back(edge);
    inputs.push_back(std::nextafter(edge, inf));
  }
  const ThermometerEncoder encoder = encoder_for(adc, sorted);
  for (const double vin : inputs) {
    EXPECT_EQ(encoder.code(vin), upper_bound_code(sorted, vin))
        << "vin=" << vin;
  }
}

TEST_F(FlashAdcFixture, ThermometerCodeMatchesBinarySearch) {
  stats::Xoshiro256pp rng(21);
  for (const FlashAdc* adc : {&schematic_, &post_}) {
    for (int die = 0; die < 4; ++die) {
      expect_code_matches_search(
          *adc, sorted_thresholds(*adc, adc->sample_variations(rng)));
    }
  }
}

TEST_F(FlashAdcFixture, ThermometerCodeCountsEqualThresholds) {
  // Two (and then three) comparators tripping at the same voltage: the
  // code must count every one of them once the input reaches it.
  stats::Xoshiro256pp rng(22);
  std::vector<double> sorted =
      sorted_thresholds(schematic_, schematic_.sample_variations(rng));
  sorted[31] = sorted[30];
  expect_code_matches_search(schematic_, sorted);
  sorted[32] = sorted[30];
  expect_code_matches_search(schematic_, sorted);
  // Six in one bucket: the window spans three lane pairs.
  std::fill(sorted.begin() + 33, sorted.begin() + 36, sorted[30]);
  EXPECT_GE(encoder_for(schematic_, sorted).window_pairs(), 3u);
  expect_code_matches_search(schematic_, sorted);
}

TEST_F(FlashAdcFixture, ThermometerEncoderThresholdDomain) {
  stats::Xoshiro256pp rng(25);
  const FlashAdc::DieVariations die = schematic_.sample_variations(rng);
  std::vector<double> sorted = sorted_thresholds(schematic_, die);
  // A comparator that always trips (-inf) or never does (+inf) is legal.
  const double inf = std::numeric_limits<double>::infinity();
  sorted.front() = -inf;
  sorted.back() = inf;
  expect_code_matches_search(schematic_, sorted);
  // The bucket map must rise with the input.
  ThermometerEncoder encoder;
  EXPECT_THROW(encoder.build(sorted, schematic_.design().v_low, 0.0),
               ContractError);
  EXPECT_THROW(encoder.build(sorted, schematic_.design().v_low, -0.02),
               ContractError);
  // A NaN threshold has no place among the sorted ones.
  sorted[10] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      encoder.build(sorted, schematic_.design().v_low, ideal_lsb(schematic_)),
      ContractError);
  FlashAdc::DieVariations bad = die;
  bad.comparator_offsets[10] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)schematic_.measure(bad, nullptr), ContractError);
  EXPECT_THROW((void)schematic_.capture_codes(bad, 64, 0.9, nullptr),
               ContractError);
}

/// capture_codes' waveform (carrier, noise, buffer compression) with the
/// encoder written as the binary search.
std::vector<int> reference_capture_codes(const FlashAdc& adc, double atten,
                                         const FlashAdc::DieVariations& die,
                                         std::size_t points,
                                         double amplitude_fraction,
                                         stats::Xoshiro256pp* rng) {
  const FlashAdcDesign& d = adc.design();
  const double two_pi = 6.283185307179586476925286766559005768;
  const double fin =
      dsp::coherent_frequency(d.sample_rate, d.capture_points, d.input_ratio);
  const double vmid = 0.5 * (d.v_low + d.v_high);
  const double halfspan = 0.5 * (d.v_high - d.v_low);
  const double amplitude = halfspan * amplitude_fraction;
  const std::vector<double> sorted = sorted_thresholds(adc, die);
  std::vector<int> codes(points);
  for (std::size_t t = 0; t < points; ++t) {
    const double phase =
        two_pi * fin * static_cast<double>(t) / d.sample_rate;
    double x = atten * amplitude * std::sin(phase);
    if (rng != nullptr) x += stats::sample_normal(*rng, 0.0, d.input_noise_rms);
    const double xn = x / halfspan;
    const double vin = vmid + x * (1.0 + d.buffer_hd3 * xn * xn);
    codes[t] = static_cast<int>(upper_bound_code(sorted, vin));
  }
  return codes;
}

TEST_F(FlashAdcFixture, ClippingCaptureCodesMatchBinarySearch) {
  // Amplitude 1.2 overdrives both ends of the ladder, so the capture holds
  // runs of code 0 and of the full-scale code.
  const double post_atten = FlashAdcParasitics{}.input_attenuation;
  for (const auto& [adc, atten] :
       {std::pair{&schematic_, 1.0}, std::pair{&post_, post_atten}}) {
    stats::Xoshiro256pp die_rng(23);
    const FlashAdc::DieVariations die = adc->sample_variations(die_rng);
    stats::Xoshiro256pp rng(24);
    stats::Xoshiro256pp ref_rng(24);
    const std::vector<int> codes = adc->capture_codes(die, 4096, 1.2, &rng);
    EXPECT_EQ(codes,
              reference_capture_codes(*adc, atten, die, 4096, 1.2, &ref_rng));
    EXPECT_EQ(adc->capture_codes(die, 4096, 1.2, nullptr),
              reference_capture_codes(*adc, atten, die, 4096, 1.2, nullptr));
    const int full_scale = static_cast<int>(adc->comparator_count());
    EXPECT_GT(std::count(codes.begin(), codes.end(), 0), 0);
    EXPECT_GT(std::count(codes.begin(), codes.end(), full_scale), 0);
  }
}

TEST_F(FlashAdcFixture, DesignCaptureCodesMatchBinarySearch) {
  // The Monte Carlo capture: design amplitude, input noise, 200 dies per
  // stage, every code against the binary search. The tiny-device design's
  // offsets of several LSB crowd more thresholds into some buckets.
  FlashAdcDesign tiny;
  tiny.comparator_pair = {0.4e-6, 0.2e-6};
  const FlashAdc sloppy(DesignStage::kSchematic, ProcessModel::cmos180(),
                        tiny);
  const double post_atten = FlashAdcParasitics{}.input_attenuation;
  using Bench = std::pair<const FlashAdc*, double>;
  for (const auto& [adc, atten] : {Bench{&schematic_, 1.0},
                                   Bench{&post_, post_atten},
                                   Bench{&sloppy, 1.0}}) {
    const double amplitude = adc->design().amplitude_fraction;
    std::size_t mismatched_codes = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
      stats::Xoshiro256pp rng = sample_rng(2061, i);
      const FlashAdc::DieVariations die = adc->sample_variations(rng);
      stats::Xoshiro256pp ref_rng = rng;
      const std::vector<int> codes =
          adc->capture_codes(die, 4096, amplitude, &rng);
      const std::vector<int> reference = reference_capture_codes(
          *adc, atten, die, 4096, amplitude, &ref_rng);
      for (std::size_t t = 0; t < codes.size(); ++t) {
        mismatched_codes += codes[t] != reference[t] ? 1 : 0;
      }
    }
    EXPECT_EQ(mismatched_codes, 0u);
  }
}

TEST_F(FlashAdcFixture, LargerOffsetsDegradeSnr) {
  FlashAdcDesign design;
  design.comparator_pair = {0.4e-6, 0.2e-6};  // tiny devices: huge offsets
  const FlashAdc sloppy(DesignStage::kSchematic, ProcessModel::cmos180(),
                        design);
  MonteCarloConfig cfg;
  cfg.sample_count = 40;
  cfg.seed = 3;
  const Dataset good = run_monte_carlo(schematic_, cfg);
  const Dataset bad = run_monte_carlo(sloppy, cfg);
  EXPECT_LT(stats::sample_mean(bad.samples())[0],
            stats::sample_mean(good.samples())[0] - 1.0);
}

TEST_F(FlashAdcFixture, PostLayoutBurnsMorePower) {
  // switched_cap_extra adds deterministic dynamic power.
  EXPECT_GT(post_.nominal_metrics()[4], schematic_.nominal_metrics()[4]);
}

TEST_F(FlashAdcFixture, MonteCarloDeterministicAcrossThreads) {
  MonteCarloConfig cfg;
  cfg.sample_count = 16;
  cfg.seed = 4;
  cfg.threads = 1;
  const Dataset serial = run_monte_carlo(schematic_, cfg);
  cfg.threads = 4;
  const Dataset parallel = run_monte_carlo(schematic_, cfg);
  EXPECT_TRUE(serial.samples() == parallel.samples());
}

TEST_F(FlashAdcFixture, MetricsCorrelated) {
  MonteCarloConfig cfg;
  cfg.sample_count = 300;
  cfg.seed = 5;
  const Dataset ds = run_monte_carlo(schematic_, cfg);
  const Matrix cov = stats::sample_covariance_mle(ds.samples());
  // SNR and SINAD must be strongly positively correlated.
  const double rho_snr_sinad =
      cov(0, 1) / std::sqrt(cov(0, 0) * cov(1, 1));
  EXPECT_GT(rho_snr_sinad, 0.5);
}

TEST_F(FlashAdcFixture, InvalidDesignsRejected) {
  FlashAdcDesign bad;
  bad.bits = 1;
  EXPECT_THROW(
      FlashAdc(DesignStage::kSchematic, ProcessModel::cmos180(), bad),
      ContractError);
  FlashAdcDesign bad2;
  bad2.capture_points = 1000;  // not a power of two
  EXPECT_THROW(
      FlashAdc(DesignStage::kSchematic, ProcessModel::cmos180(), bad2),
      ContractError);
  FlashAdcDesign bad3;
  bad3.v_low = 1.0;
  bad3.v_high = 0.5;
  EXPECT_THROW(
      FlashAdc(DesignStage::kSchematic, ProcessModel::cmos180(), bad3),
      ContractError);
}

TEST(DesignStageNames, ToString) {
  EXPECT_EQ(to_string(DesignStage::kSchematic), "schematic");
  EXPECT_EQ(to_string(DesignStage::kPostLayout), "post-layout");
}

}  // namespace
}  // namespace bmfusion::circuit
