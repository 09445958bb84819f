#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "dsp/fft.hpp"

namespace bmfusion::dsp {

namespace {

/// Folds harmonic bin index into the first Nyquist zone [0, n/2].
std::size_t fold_bin(std::size_t bin, std::size_t n) {
  bin %= n;
  if (bin > n / 2) bin = n - bin;
  return bin;
}

/// Sums spectrum power over [center - halfwidth, center + halfwidth],
/// clamped to the one-sided range, and zeroes the summed bins in `claimed`.
double claim_band(const std::vector<double>& spectrum,
                  std::vector<bool>& claimed, std::size_t center,
                  std::size_t halfwidth) {
  const std::size_t lo = center > halfwidth ? center - halfwidth : 0;
  const std::size_t hi =
      std::min(center + halfwidth, spectrum.size() - 1);
  double acc = 0.0;
  for (std::size_t b = lo; b <= hi; ++b) {
    if (!claimed[b]) {
      acc += spectrum[b];
      claimed[b] = true;
    }
  }
  return acc;
}

}  // namespace

std::vector<double> power_spectrum(const std::vector<double>& samples,
                                   WindowKind window) {
  ToneScratch scratch;
  return power_spectrum_into(samples, window, scratch);
}

const std::vector<double>& power_spectrum_into(
    const std::vector<double>& samples, WindowKind window,
    ToneScratch& scratch) {
  const std::size_t n = samples.size();
  BMFUSION_REQUIRE(is_power_of_two(n) && n >= 16,
                   "capture length must be a power of two >= 16");
  if (scratch.window_n != n || scratch.window_kind != window) {
    make_window_into(window, n, scratch.window);
    scratch.window_gain = window_coherent_gain(scratch.window);
    scratch.window_n = n;
    scratch.window_kind = window;
  }
  const std::vector<double>& w = scratch.window;
  scratch.spectrum.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.spectrum[i] = Complex(samples[i] * w[i], 0.0);
  }
  fft_inplace(scratch.spectrum, /*inverse=*/false, scratch.twiddles);

  // One-sided power, normalized by the coherent gain so absolute tone power
  // is window-independent. Interior bins get the x2 one-sided factor.
  const double cg = scratch.window_gain;
  const double norm = 1.0 / (cg * cg * static_cast<double>(n) *
                             static_cast<double>(n));
  scratch.power.resize(n / 2 + 1);
  for (std::size_t b = 0; b <= n / 2; ++b) {
    const double mag2 = std::norm(scratch.spectrum[b]);
    const double one_sided = (b == 0 || b == n / 2) ? 1.0 : 2.0;
    scratch.power[b] = one_sided * mag2 * norm;
  }
  return scratch.power;
}

ToneAnalysis analyze_tone(const std::vector<double>& samples,
                          const ToneAnalysisConfig& config) {
  ToneScratch scratch;
  return analyze_tone_into(samples, config, scratch);
}

ToneAnalysis analyze_tone_into(const std::vector<double>& samples,
                               const ToneAnalysisConfig& config,
                               ToneScratch& scratch) {
  const std::size_t n = samples.size();
  const std::vector<double>& spectrum =
      power_spectrum_into(samples, config.window, scratch);
  const std::size_t half = window_tone_halfwidth(config.window);
  const std::size_t dc_guard = half + 1;

  ToneAnalysis result;
  // Fundamental: strongest bin beyond the DC guard band.
  std::size_t fund = dc_guard;
  for (std::size_t b = dc_guard; b < spectrum.size(); ++b) {
    if (spectrum[b] > spectrum[fund]) fund = b;
  }
  result.fundamental_bin = fund;

  std::vector<bool>& claimed = scratch.claimed;
  claimed.assign(spectrum.size(), false);
  // DC leakage is excluded from every power bucket.
  for (std::size_t b = 0; b < dc_guard && b < spectrum.size(); ++b) {
    claimed[b] = true;
  }
  result.signal_power = claim_band(spectrum, claimed, fund, half);

  // Harmonics 2..H+1, folded into the first Nyquist zone. claim_band
  // returns the integrated power of the bins it newly claims, which is
  // both this harmonic's distortion contribution and its spur power.
  double worst_spur = 0.0;
  for (std::size_t h = 2; h <= config.harmonic_count + 1; ++h) {
    const std::size_t bin = fold_bin(fund * h, n);
    if (bin >= spectrum.size()) continue;
    const double band = claim_band(spectrum, claimed, bin, half);
    worst_spur = std::max(worst_spur, band);
    result.distortion_power += band;
  }

  // Noise: all remaining unclaimed bins; also scan them for non-harmonic
  // spurs.
  for (std::size_t b = 0; b < spectrum.size(); ++b) {
    if (!claimed[b]) {
      result.noise_power += spectrum[b];
      worst_spur = std::max(worst_spur, spectrum[b]);
    }
  }
  result.worst_spur_power = worst_spur;

  const double tiny = 1e-300;
  result.snr_db =
      10.0 * std::log10(result.signal_power / (result.noise_power + tiny));
  result.sinad_db =
      10.0 * std::log10(result.signal_power /
                        (result.noise_power + result.distortion_power + tiny));
  result.thd_db =
      10.0 * std::log10((result.distortion_power + tiny) /
                        (result.signal_power + tiny));
  result.sfdr_db =
      10.0 * std::log10(result.signal_power / (worst_spur + tiny));
  result.enob_bits = (result.sinad_db - 1.76) / 6.02;
  return result;
}

double coherent_frequency(double fs, std::size_t n, double target_ratio) {
  BMFUSION_REQUIRE(fs > 0.0, "sample rate must be positive");
  BMFUSION_REQUIRE(is_power_of_two(n), "capture length must be power of two");
  BMFUSION_REQUIRE(target_ratio > 0.0 && target_ratio < 0.5,
                   "target ratio must lie in (0, 0.5)");
  // Nearest odd cycle count: odd m is automatically coprime with 2^k.
  long m = std::lround(target_ratio * static_cast<double>(n));
  if (m % 2 == 0) ++m;
  if (m < 1) m = 1;
  const long max_m = static_cast<long>(n / 2) - 1;
  if (m > max_m) m = (max_m % 2 == 1) ? max_m : max_m - 1;
  return static_cast<double>(m) * fs / static_cast<double>(n);
}

}  // namespace bmfusion::dsp
