// Tests for the dsp substrate: FFT, windows, single-tone spectral analysis,
// and INL/DNL extraction (closed-form cases, the ideal converter, and the
// cross-check between the histogram *measurement* and the threshold *truth*
// on a simulated flash-ADC die).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "circuit/flash_adc.hpp"
#include "common/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/linearity.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/window.hpp"
#include "stats/rng.hpp"
#include "stats/univariate.hpp"

namespace bmfusion::dsp {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

std::vector<double> make_tone(std::size_t n, double cycles, double amplitude,
                              double phase = 0.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amplitude *
           std::sin(2.0 * kPi * cycles * static_cast<double>(i) /
                        static_cast<double>(n) +
                    phase);
  }
  return x;
}

// --------------------------------------------------------------------- fft

TEST(Fft, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(1000));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(3);
  EXPECT_THROW(fft_inplace(data, false), ContractError);
}

TEST(Fft, DcSignalConcentratesInBinZero) {
  const std::vector<Complex> spec = fft_real(std::vector<double>(16, 2.0));
  EXPECT_NEAR(spec[0].real(), 32.0, 1e-12);
  for (std::size_t k = 1; k < 16; ++k) {
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInExpectedBin) {
  const std::size_t n = 64;
  const std::vector<Complex> spec = fft_real(make_tone(n, 5.0, 1.0));
  // sin tone of amplitude 1: |X[5]| = n/2.
  EXPECT_NEAR(std::abs(spec[5]), 32.0, 1e-9);
  EXPECT_NEAR(std::abs(spec[n - 5]), 32.0, 1e-9);
  EXPECT_NEAR(std::abs(spec[4]), 0.0, 1e-9);
}

TEST(Fft, InverseRoundTrip) {
  stats::Xoshiro256pp rng(1);
  std::vector<Complex> data(128);
  for (Complex& c : data) {
    c = Complex{rng.next_uniform(-1, 1), rng.next_uniform(-1, 1)};
  }
  const std::vector<Complex> back = ifft(fft(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(back[i] - data[i]), 0.0, 1e-12);
  }
}

TEST(Fft, LinearityHolds) {
  const auto x = make_tone(32, 3.0, 1.0);
  const auto y = make_tone(32, 7.0, 0.5);
  std::vector<double> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = x[i] + y[i];
  const auto fx = fft_real(x);
  const auto fy = fft_real(y);
  const auto fsum = fft_real(sum);
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_NEAR(std::abs(fsum[k] - fx[k] - fy[k]), 0.0, 1e-10);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  stats::Xoshiro256pp rng(2);
  std::vector<double> x(256);
  double time_energy = 0.0;
  for (double& v : x) {
    v = rng.next_uniform(-1, 1);
    time_energy += v * v;
  }
  const auto spec = fft_real(x);
  double freq_energy = 0.0;
  for (const Complex& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-9);
}

TEST(Fft, SizeOneIsIdentity) {
  std::vector<Complex> data{Complex{3.0, 4.0}};
  fft_inplace(data, false);
  EXPECT_EQ(data[0], (Complex{3.0, 4.0}));
}

/// Reference transform: the radix-2 FFT with its twiddle factor advanced by
/// a std::complex product inside the butterfly loop. fft_inplace's table and
/// component-wise product must reproduce it bit for bit.
void reference_fft_inplace(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterfly stages.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * kPi /
                         static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (Complex& c : data) c *= scale;
  }
}

std::vector<Complex> random_complex(std::size_t n, stats::Xoshiro256pp& rng) {
  std::vector<Complex> data(n);
  for (Complex& c : data) {
    c = Complex{stats::sample_normal(rng, 0.0, 1.0),
                stats::sample_normal(rng, 0.0, 1.0)};
  }
  return data;
}

bool same_bytes(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

TEST(Fft, BitwiseMatchesRecurrenceReference) {
  stats::Xoshiro256pp rng(8192);
  for (std::size_t n = 1; n <= 8192; n <<= 1) {
    for (const bool inverse : {false, true}) {
      std::vector<Complex> data = random_complex(n, rng);
      std::vector<Complex> expected = data;
      reference_fft_inplace(expected, inverse);
      fft_inplace(data, inverse);
      EXPECT_TRUE(same_bytes(data, expected))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

/// Bitwise equality that lets two NaNs differ in sign and payload: IEEE 754
/// leaves those unspecified for a NaN result, and the compiler may commute
/// the operands of an addition or of the complex product's libcall, so two
/// compilations of one source can disagree there. Every other bit counts.
bool same_bits_or_both_nan(const std::vector<Complex>& a,
                           const std::vector<Complex>& b) {
  if (a.size() != b.size()) return false;
  const auto same = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) ||
           std::memcmp(&x, &y, sizeof x) == 0;
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i].real(), b[i].real()) || !same(a[i].imag(), b[i].imag())) {
      return false;
    }
  }
  return true;
}

TEST(Fft, MatchesReferenceWithInfAndNan) {
  // Infinities turn butterfly products NaN, which is where std::complex
  // hands over to its NaN-recovering library product.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  stats::Xoshiro256pp rng(7);
  for (const std::size_t n : {8, 64, 1024}) {
    for (const bool inverse : {false, true}) {
      for (const bool with_nan : {false, true}) {
        std::vector<Complex> data = random_complex(n, rng);
        data[1] = Complex{inf, 0.0};
        data[n / 2] = Complex{-inf, 2.0};
        data[n / 4] = Complex{1.0, inf};
        data[3] = Complex{inf, inf};
        if (with_nan) {
          data[n - 1] = Complex{nan, -1.0};
          data[5] = Complex{inf, nan};
        }
        std::vector<Complex> expected = data;
        reference_fft_inplace(expected, inverse);
        fft_inplace(data, inverse);
        EXPECT_TRUE(same_bits_or_both_nan(data, expected))
            << "n=" << n << " inverse=" << inverse << " nan=" << with_nan;
      }
    }
  }
}

TEST(Fft, MatchesReferenceAroundTheOverflowGuard) {
  // fft_inplace runs its branch-free loop only on finite input with
  // |x| <= 2^1000 / n, which no stage can overflow. Input at the bound and
  // one ulp past it must match the reference on either loop. Finite input
  // large enough for the butterflies to overflow must take the checked
  // loop: a product such as (inf, inf) * (1, 0) is NaN in both parts, and
  // only the library product's recovery turns it into infinities, as
  // std::complex does. A guard that admitted such input fails here.
  stats::Xoshiro256pp rng(1000);
  for (const std::size_t n : {8, 64, 1024, 4096}) {
    const double bound = std::ldexp(1.0, 1000) / static_cast<double>(n);
    for (const bool inverse : {false, true}) {
      // Uniform in (-bound, bound): scaling by a power of two is exact.
      std::vector<Complex> inside(n);
      for (Complex& c : inside) {
        c = Complex{rng.next_uniform(-1.0, 1.0) * bound,
                    rng.next_uniform(-1.0, 1.0) * bound};
      }
      inside[1] = Complex{bound, -bound};
      std::vector<Complex> outside = inside;
      outside[n / 2] = Complex{0.5, std::nextafter(bound, 2.0 * bound)};
      // Finite same-sign components near 2^1026 / n (about 1e306 at
      // n = 1024): the partial sums overflow by the stage before the last.
      const double huge = std::ldexp(1.0 / static_cast<double>(n), 1026);
      std::vector<Complex> overflowing(n);
      for (Complex& c : overflowing) {
        c = Complex{huge * rng.next_uniform(0.99, 1.01),
                    huge * rng.next_uniform(0.99, 1.01)};
        ASSERT_TRUE(std::isfinite(c.real()) && std::isfinite(c.imag()));
      }
      const std::pair<const char*, std::vector<Complex>*> cases[] = {
          {"inside", &inside},
          {"outside", &outside},
          {"overflowing", &overflowing}};
      for (const auto& [name, data] : cases) {
        std::vector<Complex> expected = *data;
        reference_fft_inplace(expected, inverse);
        fft_inplace(*data, inverse);
        EXPECT_TRUE(same_bits_or_both_nan(*data, expected))
            << name << " n=" << n << " inverse=" << inverse;
      }
      // The finite overflow case really overflowed.
      EXPECT_FALSE(std::all_of(overflowing.begin(), overflowing.end(),
                               [](const Complex& c) {
                                 return std::isfinite(c.real()) &&
                                        std::isfinite(c.imag());
                               }))
          << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(Fft, ReusedTwiddleTableRekeysOnSizeAndDirection) {
  stats::Xoshiro256pp rng(11);
  FftTwiddles twiddles;
  const std::pair<std::size_t, bool> calls[] = {
      {64, false}, {64, true},    {4096, false}, {16, false},
      {4096, true}, {4096, true}, {1, false},    {2, true}};
  for (const auto& [n, inverse] : calls) {
    std::vector<Complex> data = random_complex(n, rng);
    std::vector<Complex> expected = data;
    reference_fft_inplace(expected, inverse);
    fft_inplace(data, inverse, twiddles);
    EXPECT_TRUE(same_bytes(data, expected))
        << "n=" << n << " inverse=" << inverse;
  }
}

// ------------------------------------------------------------------ window

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowKind::kRectangular, 8);
  for (const double v : w) EXPECT_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(window_coherent_gain(w), 1.0);
  EXPECT_DOUBLE_EQ(window_noise_gain(w), 8.0);
}

TEST(Window, HannProperties) {
  const auto w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);             // periodic Hann starts at 0
  EXPECT_NEAR(w[32], 1.0, 1e-12);            // peak mid-window
  EXPECT_NEAR(window_coherent_gain(w), 0.5, 1e-12);
}

TEST(Window, BlackmanHarrisPositiveAndPeaked) {
  const auto w = make_window(WindowKind::kBlackmanHarris, 64);
  double max = 0.0;
  for (const double v : w) {
    EXPECT_GT(v, -1e-6);
    max = std::max(max, v);
  }
  EXPECT_NEAR(max, 1.0, 0.01);
}

TEST(Window, ToneHalfwidths) {
  EXPECT_EQ(window_tone_halfwidth(WindowKind::kRectangular), 0u);
  EXPECT_EQ(window_tone_halfwidth(WindowKind::kHann), 2u);
  EXPECT_EQ(window_tone_halfwidth(WindowKind::kBlackmanHarris), 4u);
}

TEST(Window, ZeroLengthRejected) {
  EXPECT_THROW((void)make_window(WindowKind::kHann, 0), ContractError);
}

// ---------------------------------------------------------------- spectrum

TEST(Spectrum, PowerOfPureToneIsHalfAmplitudeSquared) {
  const auto power =
      power_spectrum(make_tone(1024, 11.0, 0.8), WindowKind::kRectangular);
  // Tone power = A^2/2 = 0.32, all in bin 11.
  EXPECT_NEAR(power[11], 0.32, 1e-9);
  EXPECT_NEAR(power[12], 0.0, 1e-12);
}

TEST(Spectrum, CoherentFrequencyIsOddBin) {
  const double fs = 100e6;
  const std::size_t n = 4096;
  const double f = coherent_frequency(fs, n, 0.23);
  const double cycles = f * static_cast<double>(n) / fs;
  EXPECT_NEAR(cycles, std::round(cycles), 1e-9);  // integer cycles
  EXPECT_EQ(static_cast<long>(std::lround(cycles)) % 2, 1);  // odd
}

TEST(Spectrum, AnalyzeCleanToneHasHugeSnr) {
  ToneAnalysis t = analyze_tone(make_tone(4096, 231.0, 1.0));
  EXPECT_EQ(t.fundamental_bin, 231u);
  EXPECT_GT(t.snr_db, 200.0);
  EXPECT_GT(t.sfdr_db, 200.0);
  EXPECT_LT(t.thd_db, -200.0);
}

TEST(Spectrum, SnrMatchesAnalyticForAdditiveNoise) {
  // Tone A = 1 (power 0.5) plus white noise sigma = 0.01 (power 1e-4):
  // SNR = 10 log10(0.5 / 1e-4) = 37 dB approximately.
  stats::Xoshiro256pp rng(3);
  auto x = make_tone(4096, 231.0, 1.0);
  for (double& v : x) v += stats::sample_normal(rng, 0.0, 0.01);
  const ToneAnalysis t = analyze_tone(x);
  EXPECT_NEAR(t.snr_db, 37.0, 1.0);
  EXPECT_NEAR(t.enob_bits, (t.sinad_db - 1.76) / 6.02, 1e-12);
}

TEST(Spectrum, ThdMeasuresKnownHarmonicRatio) {
  // Fundamental A1 = 1, third harmonic A3 = 0.01 -> THD = -40 dB.
  auto x = make_tone(4096, 101.0, 1.0);
  const auto h3 = make_tone(4096, 303.0, 0.01);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += h3[i];
  const ToneAnalysis t = analyze_tone(x);
  EXPECT_NEAR(t.thd_db, -40.0, 0.5);
  EXPECT_NEAR(t.sfdr_db, 40.0, 0.5);
}

TEST(Spectrum, AliasedHarmonicIsStillCounted) {
  // Fundamental at bin 1500 of 4096: 2nd harmonic (3000) aliases to 1096.
  auto x = make_tone(4096, 1500.0, 1.0);
  const auto h2 = make_tone(4096, 3000.0, 0.02);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += h2[i];
  const ToneAnalysis t = analyze_tone(x);
  EXPECT_NEAR(t.thd_db, 10.0 * std::log10(0.02 * 0.02 / 2.0 / 0.5), 1.0);
}

TEST(Spectrum, QuantizedSineSnrNearTheoreticalLimit) {
  // 8-bit quantization of a full-scale sine: SNR ~ 6.02*8 + 1.76 = 49.9 dB.
  const std::size_t n = 4096;
  auto x = make_tone(n, 231.0, 1.0);
  for (double& v : x) {
    v = std::round(v * 128.0) / 128.0;
  }
  const ToneAnalysis t = analyze_tone(x);
  EXPECT_NEAR(t.sinad_db, 49.9, 3.0);
  EXPECT_NEAR(t.enob_bits, 8.0, 0.5);
}

TEST(Spectrum, WindowsContainLeakageOfNonCoherentTone) {
  // Non-integer cycle count: rectangular analysis smears badly; tapering
  // recovers SNR in proportion to the window's sidelobe suppression.
  const std::size_t n = 4096;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * kPi * 231.37 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  const auto snr_with = [&](WindowKind w) {
    ToneAnalysisConfig cfg;
    cfg.window = w;
    return analyze_tone(x, cfg).snr_db;
  };
  const double rect = snr_with(WindowKind::kRectangular);
  const double hann = snr_with(WindowKind::kHann);
  const double bh = snr_with(WindowKind::kBlackmanHarris);
  EXPECT_GT(hann, rect + 10.0);
  EXPECT_GT(bh, hann + 5.0);
}

TEST(Spectrum, ScratchPathBitwiseMatchesAllocatingPath) {
  // analyze_tone_into is the Monte Carlo hot path; its contract is bitwise
  // equality with analyze_tone, including across reuses of one scratch with
  // different signals, windows and capture lengths (window-cache and
  // twiddle-table turnover).
  stats::Xoshiro256pp rng(99);
  ToneScratch scratch;
  const WindowKind kinds[] = {WindowKind::kRectangular, WindowKind::kHann,
                              WindowKind::kBlackmanHarris};
  const std::size_t lengths[] = {64, 256, 256, 4096, 16, 64};
  std::size_t round = 0;
  for (const std::size_t n : lengths) {
    for (const WindowKind kind : kinds) {
      std::vector<double> x =
          make_tone(n, 9.0, 0.8, 0.1 * static_cast<double>(round));
      for (double& v : x) v += 1e-3 * stats::sample_normal(rng, 0.0, 1.0);
      ToneAnalysisConfig cfg;
      cfg.window = kind;
      const ToneAnalysis ref = analyze_tone(x, cfg);
      const ToneAnalysis fast = analyze_tone_into(x, cfg, scratch);
      EXPECT_EQ(ref.fundamental_bin, fast.fundamental_bin);
      const double refs[] = {ref.signal_power,  ref.noise_power,
                             ref.distortion_power, ref.worst_spur_power,
                             ref.snr_db,        ref.sinad_db,
                             ref.thd_db,        ref.sfdr_db,
                             ref.enob_bits};
      const double fasts[] = {fast.signal_power,  fast.noise_power,
                              fast.distortion_power, fast.worst_spur_power,
                              fast.snr_db,        fast.sinad_db,
                              fast.thd_db,        fast.sfdr_db,
                              fast.enob_bits};
      EXPECT_EQ(0, std::memcmp(refs, fasts, sizeof refs))
          << "n=" << n << " window=" << static_cast<int>(kind);
      ++round;
    }
  }
}

TEST(Spectrum, ScratchPowerSpectrumMatchesAllocatingPath) {
  const std::vector<double> x = make_tone(256, 7.0, 0.5);
  ToneScratch scratch;
  const std::vector<double> ref = power_spectrum(x, WindowKind::kHann);
  const std::vector<double>& fast =
      power_spectrum_into(x, WindowKind::kHann, scratch);
  ASSERT_EQ(ref.size(), fast.size());
  EXPECT_EQ(0, std::memcmp(ref.data(), fast.data(),
                           ref.size() * sizeof(double)));
}

TEST(Spectrum, RejectsShortOrNonPowerOfTwoCaptures) {
  EXPECT_THROW((void)analyze_tone(std::vector<double>(8, 0.0)),
               ContractError);
  EXPECT_THROW((void)analyze_tone(std::vector<double>(100, 0.0)),
               ContractError);
}

TEST(Spectrum, CoherentFrequencyDomainChecks) {
  EXPECT_THROW((void)coherent_frequency(-1.0, 64, 0.2), ContractError);
  EXPECT_THROW((void)coherent_frequency(1e6, 100, 0.2), ContractError);
  EXPECT_THROW((void)coherent_frequency(1e6, 64, 0.7), ContractError);
}

class SpectrumAmplitudeSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpectrumAmplitudeSweep, SignalPowerTracksAmplitude) {
  const double a = GetParam();
  const ToneAnalysis t = analyze_tone(make_tone(1024, 77.0, a));
  EXPECT_NEAR(t.signal_power, a * a / 2.0, 1e-9 * (1.0 + a * a));
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, SpectrumAmplitudeSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 10.0));

// -------------------------------------------------------------- linearity

std::vector<double> uniform_thresholds(std::size_t count, double lo,
                                       double hi) {
  std::vector<double> taps(count);
  for (std::size_t i = 0; i < count; ++i) {
    taps[i] = lo + (hi - lo) * static_cast<double>(i + 1) /
                       static_cast<double>(count + 1);
  }
  return taps;
}

TEST(Linearity, IdealThresholdsAreZeroDnlInl) {
  const LinearityResult r =
      linearity_from_thresholds(uniform_thresholds(63, 0.2, 1.6));
  EXPECT_NEAR(r.max_abs_dnl, 0.0, 1e-9);
  EXPECT_NEAR(r.max_abs_inl, 0.0, 1e-9);
  EXPECT_EQ(r.dnl.size(), 62u);
  EXPECT_EQ(r.inl.size(), 63u);
}

TEST(Linearity, SingleWideBinShowsInDnl) {
  // Shift one threshold by +0.5 LSB: the bin below widens (+0.5 DNL) and
  // the bin above narrows (-0.5 DNL).
  std::vector<double> taps = uniform_thresholds(15, 0.0, 1.6);
  const double lsb = taps[1] - taps[0];
  taps[7] += 0.5 * lsb;
  const LinearityResult r = linearity_from_thresholds(taps);
  EXPECT_NEAR(r.dnl[6], 0.5, 0.02);
  EXPECT_NEAR(r.dnl[7], -0.5, 0.02);
  EXPECT_NEAR(r.max_abs_inl, 0.5, 0.05);
}

TEST(Linearity, BowedThresholdsShowInInlNotDnl) {
  // A smooth quadratic bow: INL large, per-step DNL small.
  std::vector<double> taps = uniform_thresholds(63, 0.0, 1.0);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double x = static_cast<double>(i) / 62.0;
    taps[i] += 0.02 * x * (1.0 - x);  // peak bow 5 mLSB*... in volts
  }
  const LinearityResult r = linearity_from_thresholds(taps);
  EXPECT_GT(r.max_abs_inl, 4.0 * r.max_abs_dnl);
}

TEST(Linearity, ValidatesInput) {
  EXPECT_THROW((void)linearity_from_thresholds({1.0, 2.0}), ContractError);
  EXPECT_THROW((void)linearity_from_thresholds({1.0, 0.5, 2.0}),
               ContractError);
  EXPECT_THROW(
      (void)sine_histogram_linearity(std::vector<int>(10, 0), 8),
      ContractError);
}

TEST(Linearity, HistogramTestRecoversIdealConverter) {
  // Ideal mid-rise quantizer measured with an overdriven sine. Random
  // phases make the arcsine amplitude distribution exact (a coherent ramp
  // would add phase-equidistribution artifacts to the *stimulus*).
  const std::size_t code_count = 64;
  const std::vector<double> taps = uniform_thresholds(63, -1.0, 1.0);
  std::vector<int> codes;
  stats::Xoshiro256pp rng(42);
  // INL from a histogram test carries random-walk noise of roughly
  // A*pi*sqrt(0.25/n)/lsb LSB (~0.04 LSB at n = 2e6); the tolerances
  // reflect that statistical floor, not algorithmic error.
  const std::size_t n = 2000000;
  for (std::size_t t = 0; t < n; ++t) {
    const double x =
        1.1 * std::sin(rng.next_uniform(0.0, 2.0 * 3.14159265358979));
    int code = 0;
    while (code < 63 && x > taps[static_cast<std::size_t>(code)]) ++code;
    codes.push_back(code);
  }
  const LinearityResult r = sine_histogram_linearity(codes, code_count);
  EXPECT_LT(r.max_abs_dnl, 0.05);
  EXPECT_LT(r.max_abs_inl, 0.15);
}

TEST(Linearity, HistogramMeasurementMatchesThresholdTruthOnFlashAdc) {
  // One mismatched flash-ADC die: the code-density *measurement* must
  // reproduce the INL/DNL computed directly from its decision thresholds.
  using namespace bmfusion::circuit;
  const FlashAdc adc(DesignStage::kSchematic, ProcessModel::cmos180());
  stats::Xoshiro256pp rng(7);
  const FlashAdc::DieVariations die = adc.sample_variations(rng);

  // Truth from the thresholds (ladder taps + offsets).
  const LinearityResult truth =
      linearity_from_thresholds([&] {
        std::vector<double> taps = adc.thresholds(die);
        std::sort(taps.begin(), taps.end());
        return taps;
      }());

  // Measurement: long noise-free overdriven capture.
  const std::vector<int> codes =
      adc.capture_codes(die, 400000, 1.05, nullptr);
  const LinearityResult measured = sine_histogram_linearity(codes, 64);

  ASSERT_EQ(measured.inl.size(), truth.inl.size());
  EXPECT_NEAR(measured.max_abs_dnl, truth.max_abs_dnl,
              0.25 * (truth.max_abs_dnl + 0.05));
  // Per-code INL agreement within a tenth of an LSB plus the buffer-HD3
  // bow the measurement sees through the nonlinear front end.
  double max_gap = 0.0;
  for (std::size_t k = 0; k < truth.inl.size(); ++k) {
    max_gap = std::max(max_gap, std::fabs(measured.inl[k] - truth.inl[k]));
  }
  EXPECT_LT(max_gap, 0.45);
}

TEST(Linearity, FlashAdcDnlGrowsWithComparatorOffsets) {
  // Note the comparison runs between a large-comparator (low-offset)
  // design and the default: once offsets exceed ~1 LSB the sorted-
  // threshold DNL saturates to the Gaussian order-statistics shape, so
  // "default vs even sloppier" would show nothing.
  using namespace bmfusion::circuit;
  FlashAdcDesign good_design;
  good_design.comparator_pair = {8e-6, 2e-6};  // large -> small offsets
  const FlashAdc good(DesignStage::kSchematic, ProcessModel::cmos180(),
                      good_design);
  const FlashAdc sloppy(DesignStage::kSchematic, ProcessModel::cmos180());
  double good_dnl = 0.0;
  double sloppy_dnl = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    stats::Xoshiro256pp rng(100 + seed);
    stats::Xoshiro256pp rng2(100 + seed);
    const auto taps_of = [](const FlashAdc& adc,
                            stats::Xoshiro256pp& r) {
      std::vector<double> taps = adc.thresholds(adc.sample_variations(r));
      std::sort(taps.begin(), taps.end());
      return taps;
    };
    good_dnl += linearity_from_thresholds(taps_of(good, rng)).max_abs_dnl;
    sloppy_dnl +=
        linearity_from_thresholds(taps_of(sloppy, rng2)).max_abs_dnl;
  }
  EXPECT_GT(sloppy_dnl, 2.0 * good_dnl);
}

}  // namespace
}  // namespace bmfusion::dsp
