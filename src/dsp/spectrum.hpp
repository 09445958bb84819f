// Single-tone spectral analysis: SNR / SINAD / SFDR / THD / ENOB.
//
// Implements standard ADC dynamic testing (IEEE 1241-style): windowed FFT of
// a captured sine record, fundamental and harmonic integration with aliased
// harmonic folding, and noise as the remaining in-band power.
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace bmfusion::dsp {

/// Result of analyzing one single-tone capture.
struct ToneAnalysis {
  std::size_t fundamental_bin = 0;  ///< bin index of the fundamental
  double signal_power = 0.0;        ///< integrated fundamental power
  double noise_power = 0.0;         ///< in-band power excl. signal+harmonics
  double distortion_power = 0.0;    ///< integrated harmonic power
  double worst_spur_power = 0.0;    ///< largest non-fundamental component
  double snr_db = 0.0;              ///< 10log10(Psig/Pnoise)
  double sinad_db = 0.0;            ///< 10log10(Psig/(Pnoise+Pdist))
  double thd_db = 0.0;              ///< 10log10(Pdist/Psig) (negative = good)
  double sfdr_db = 0.0;             ///< 10log10(Psig/Pworst_spur)
  double enob_bits = 0.0;           ///< (SINAD - 1.76)/6.02
};

/// Configuration for tone analysis.
struct ToneAnalysisConfig {
  WindowKind window = WindowKind::kRectangular;  ///< coherent default
  std::size_t harmonic_count = 9;  ///< harmonics 2..harmonic_count+1 counted
};

/// Reusable buffers for the tone-analysis pipeline. One scratch per
/// worker/workspace: every vector grows to the capture size on the first
/// call and is reused verbatim afterwards, so steady-state analysis is
/// allocation-free (the flash-ADC Monte Carlo contract). The window and its
/// coherent gain are cached per (kind, length) and the FFT tables per
/// length; each is regenerated only when its key changes.
struct ToneScratch {
  std::vector<double> window;      ///< cached window coefficients
  double window_gain = 0.0;        ///< window_coherent_gain(window)
  WindowKind window_kind = WindowKind::kRectangular;
  std::size_t window_n = 0;        ///< 0 = window not generated yet
  FftTwiddles twiddles;            ///< cached forward FFT tables
  std::vector<Complex> spectrum;   ///< complex FFT work buffer
  std::vector<double> power;       ///< one-sided power bins [0, n/2]
  std::vector<bool> claimed;       ///< per-bin claim map for band integration
};

/// Analyzes one real capture. `samples.size()` must be a power of two >= 16.
/// The fundamental is located as the strongest non-DC bin; harmonics fold
/// (alias) back into the first Nyquist zone as a real sampled system would.
[[nodiscard]] ToneAnalysis analyze_tone(const std::vector<double>& samples,
                                        const ToneAnalysisConfig& config = {});

/// Workspace variant of analyze_tone: identical (bitwise) results, but all
/// transient buffers live in `scratch` so repeated calls allocate nothing
/// once the buffers have grown to the capture size.
[[nodiscard]] ToneAnalysis analyze_tone_into(const std::vector<double>& samples,
                                             const ToneAnalysisConfig& config,
                                             ToneScratch& scratch);

/// Picks a coherent tone frequency for an n-point capture at sample rate
/// `fs`: the odd cycle count m closest to `target_ratio * n` (coprime with
/// any power-of-two n), returning m * fs / n.
[[nodiscard]] double coherent_frequency(double fs, std::size_t n,
                                        double target_ratio);

/// One-sided power spectrum (bins 0..n/2) of a windowed real capture,
/// normalized so a full-scale coherent sine reports its power in its bin.
[[nodiscard]] std::vector<double> power_spectrum(
    const std::vector<double>& samples, WindowKind window);

/// Workspace variant of power_spectrum: computes into scratch.power (also
/// returned by reference) using scratch's window cache and FFT buffer.
const std::vector<double>& power_spectrum_into(
    const std::vector<double>& samples, WindowKind window,
    ToneScratch& scratch);

}  // namespace bmfusion::dsp
