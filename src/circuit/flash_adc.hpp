// Flash analog-to-digital converter testbench (behavioral, 0.18 um).
//
// This is the paper's Section 5.2 workload: a flash ADC measured for SNR,
// SINAD, SFDR, THD and power at schematic level and post-layout. The model
// is behavioral but physically grounded:
//   * a 2^B-resistor reference ladder with per-resistor mismatch (and, in
//     the extracted view, an IR-drop gradient),
//   * 2^B - 1 comparators with Pelgrom input-referred offsets,
//   * a coherently sampled sine capture, thermometer encoding by
//     ones-counting (bubble tolerant), and FFT-based spectral metrics,
//   * a power model combining static ladder power, comparator bias power
//     and clock/dynamic power.
// All five metrics are nonlinear functionals of the same mismatch draw, so
// they are strongly correlated — matching the paper's setting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "circuit/process.hpp"
#include "circuit/stage.hpp"
#include "dsp/spectrum.hpp"

namespace bmfusion::circuit {

/// The ones-counting (bubble-tolerant) thermometer encoder of one die: the
/// code of input `vin` is the number of comparator thresholds `s` with
/// `!(vin < s)`, i.e. those at or below it (NaN input: all of them).
///
/// build() sorts the thresholds and splits the ladder into kBucketsPerLsb
/// buckets per ideal LSB; code() reads, from a per-die table, where the
/// input's bucket begins in the sorted thresholds and counts, two lanes at a
/// time, how many of the thresholds in that bucket lie at or below the
/// input. The count's width is the fullest bucket of the die, rounded up to
/// whole lane pairs, so every input of a die runs the same loop. Storage is
/// reused across build() calls: after the first die, building allocates
/// nothing.
class ThermometerEncoder {
 public:
  static constexpr std::size_t kBucketsPerLsb = 8;

  /// Prepares the encoder for one die's `thresholds`, in any order; ±inf
  /// thresholds are allowed, a NaN one throws ContractError. The buckets
  /// tile a ladder of `thresholds.size() + 1` steps of `lsb` upward from
  /// `v_low` (finite, lsb > 0); where they lie affects only the speed,
  /// never a code.
  void build(std::span<const double> thresholds, double v_low, double lsb);

  /// The code of `vin` (any double). Requires a prior build(). Defined
  /// here so that the capture's encode pass inlines it.
  [[nodiscard]] std::size_t code(double vin) const {
    const std::size_t start = first_[bucket(vin)];
    const double* const window = padded_.data() + start;
    const V2 x = {vin, vin};
    // The first pair is peeled: on most dies it is the whole window, and
    // the loop, whose trip count is fixed per die, then never runs.
    M2 at_or_below = load(window) <= x;
    for (std::size_t j = 1; j < pairs_; ++j) {
      at_or_below += load(window + 2 * j) <= x;
    }
    const auto inside =
        static_cast<std::size_t>(-(at_or_below[0] + at_or_below[1]));
    return std::isnan(vin) ? count_ : start + inside;
  }

  /// Lane pairs code() compares per input: at least one, more only when
  /// a bucket holds more than two thresholds.
  [[nodiscard]] std::size_t window_pairs() const { return pairs_; }

 private:
  /// Two thresholds in 2-double GCC vector lanes (baseline SSE2 on x86-64,
  /// scalar code on a target without such registers).
  using V2 = double __attribute__((vector_size(16)));
  /// Per-lane comparison results: all bits set where true.
  using M2 = std::int64_t __attribute__((vector_size(16)));

  /// Unaligned load: a window may start at any threshold.
  static V2 load(const double* p) {
    V2 v{};
    std::memcpy(&v, p, sizeof v);
    return v;
  }

  // Why the count is exact. bucket() is a chain of monotone operations: a
  // correctly rounded subtraction of v_low_ and multiplication by the
  // positive scale_, a clamp, and a truncating cast of a value the clamp
  // has put in [0, last_bucket_]. So bucket(s) < bucket(vin) implies
  // s < vin, and bucket(s) > bucket(vin) implies s > vin. build() files
  // every threshold under the bucket this same function gives it, so the
  // first_[b] thresholds of lower buckets all count, and those of higher
  // buckets, in the window or past it, count none; for the input's own
  // bucket `s <= vin` equals `!(vin < s)` when vin is not NaN. No rounding
  // margin enters, so this holds whatever the magnitudes of v_low_, the
  // lsb and the input.
  [[nodiscard]] std::size_t bucket(double vin) const {
    // max(0, u) comes first and maps NaN to bucket 0, so only a value in
    // [0, last_bucket_] reaches the cast.
    const double u =
        std::min(std::max(0.0, (vin - v_low_) * scale_), last_bucket_);
    return static_cast<std::size_t>(u);
  }

  double v_low_ = 0.0;
  double scale_ = 1.0;        ///< buckets per volt
  double last_bucket_ = 0.0;  ///< index of the top bucket
  std::size_t count_ = 0;     ///< thresholds
  std::size_t pairs_ = 1;     ///< lane pairs per window
  /// Per bucket: how many thresholds lie in lower buckets, which is where
  /// the bucket's window starts in padded_.
  std::vector<std::size_t> first_;
  /// The sorted thresholds and a NaN tail of 2 * pairs_ entries, which no
  /// comparison counts, so that every window can be read whole.
  std::vector<double> padded_;
};

/// Nominal flash ADC design (0.18 um, VDD = 1.8 V).
struct FlashAdcDesign {
  std::size_t bits = 6;          ///< resolution: 2^bits - 1 comparators
  double vdd = 1.8;              ///< supply [V]
  double v_low = 0.2;            ///< ladder bottom reference [V]
  double v_high = 1.6;           ///< ladder top reference [V]
  double ladder_unit_res = 120.0;///< per-segment resistance [ohm]

  // Comparator front end (sets the offset sigma via Pelgrom).
  MosfetGeometry comparator_pair{1.2e-6, 0.35e-6};
  double comparator_bias = 35e-6;  ///< per-comparator bias current [A]

  // Capture setup.
  std::size_t capture_points = 4096;
  double sample_rate = 100e6;        ///< [Hz]
  double input_ratio = 0.23;         ///< target fin/fs (odd-bin coherent)
  double amplitude_fraction = 0.90;  ///< of half the ladder span
  double input_noise_rms = 0.4e-3;   ///< input-referred noise [V]

  /// Third-order compression of the input buffer / track-and-hold,
  /// x -> x (1 + hd3 (x/halfspan)^2). This deterministic distortion
  /// dominates the quantization-harmonic residue (as in a real converter),
  /// which keeps single-capture THD/SFDR numbers stable.
  double buffer_hd3 = 0.04;

  // Dynamic power: effective switched capacitance at the clock rate.
  double switched_cap = 3.0e-12;     ///< [F]
};

/// Post-layout deltas for the extracted ADC.
struct FlashAdcParasitics {
  double input_attenuation = 0.998; ///< parasitic divider at the input
  double ladder_gradient = 0.0;     ///< relative end-to-end IR-drop gradient
  /// The extracted ADC's stage differences are deliberately *deterministic*
  /// (attenuation, ladder gradient, extra capacitance): the single nominal
  /// late-stage run then captures them, the shift step removes them, and
  /// both early-stage moments stay trustworthy — the Section 5.2 regime
  /// where cross validation assigns large kappa0 *and* large nu0. The two
  /// inflation knobs below re-introduce stochastic stage differences; they
  /// default to 1 (off) and are exercised by the prior-quality ablation.
  double offset_inflation = 1.0;    ///< comparator offset sigma multiplier
  double noise_inflation = 1.0;     ///< input noise multiplier
  double switched_cap_extra = 1.2e-12;  ///< extra wiring capacitance [F]
};

/// The five metrics, in column order:
///   snr_db, sinad_db, sfdr_db, thd_db (negative), power_w.
class FlashAdc final : public Testbench {
 public:
  FlashAdc(DesignStage stage, ProcessModel process, FlashAdcDesign design = {},
           FlashAdcParasitics parasitics = {});

  [[nodiscard]] std::vector<std::string> metric_names() const override;
  [[nodiscard]] linalg::Vector nominal_metrics() const override;
  [[nodiscard]] linalg::Vector sample_metrics(
      stats::Xoshiro256pp& rng) const override;

  /// Buffer-reusing draw: the variation vectors, thresholds, encoder table,
  /// capture waveform and tone-analysis buffers (FFT work array, twiddle
  /// table, window) live in `ws`'s cached scratch, so a steady-state draw
  /// allocates nothing. Bitwise identical to the allocating overload.
  [[nodiscard]] const linalg::Vector& sample_metrics(
      stats::Xoshiro256pp& rng, SimWorkspace& ws) const override;

  [[nodiscard]] std::size_t comparator_count() const {
    return (std::size_t{1} << design_.bits) - 1;
  }
  [[nodiscard]] const FlashAdcDesign& design() const { return design_; }

  /// One die's random state, exposed for tests.
  struct DieVariations {
    GlobalVariation global;
    std::vector<double> ladder_factors;      ///< per-segment R multipliers
    std::vector<double> comparator_offsets;  ///< input-referred [V]
    double bias_factor = 1.0;                ///< comparator bias multiplier
    double cap_factor = 1.0;                 ///< switched-cap multiplier
  };

  [[nodiscard]] DieVariations sample_variations(
      stats::Xoshiro256pp& rng) const;

  /// Draws one die's variations into `v`, reusing its vector storage (same
  /// draw order and values as sample_variations).
  void sample_variations_into(stats::Xoshiro256pp& rng,
                              DieVariations& v) const;

  /// Effective comparator thresholds (ladder taps + offsets) for a die.
  [[nodiscard]] std::vector<double> thresholds(
      const DieVariations& variations) const;

  /// Workspace variant of thresholds(): fills `taps` (resized, capacity
  /// reused).
  void thresholds_into(const DieVariations& variations,
                       std::vector<double>& taps) const;

  /// Simulates one die. When `rng` is null the capture is noise-free. The
  /// nominal run does not use that: nominal_metrics() measures with a
  /// fixed-seed noise RNG, because a noiseless capture would report an SNR
  /// far from every real die.
  [[nodiscard]] linalg::Vector measure(const DieVariations& variations,
                                       stats::Xoshiro256pp* rng) const;

  /// Workspace variant of measure(): the thresholds, the die's
  /// ThermometerEncoder and the waveform come from `ws`'s cached scratch
  /// and the result lands in `ws.metrics`. Bitwise identical to measure().
  /// The capture runs in three passes over the waveform buffer: the noise
  /// draws (stats::sample_normal_into, consuming `rng` exactly as one
  /// sample_normal call per point would), the encoder inputs, and the codes,
  /// which overwrite the inputs in place.
  void measure_into(const DieVariations& variations, stats::Xoshiro256pp* rng,
                    SimWorkspace& ws) const;

  /// Raw output codes for a sine capture at an arbitrary amplitude (as a
  /// fraction of half the ladder span; > 1 clips, as the code-density
  /// linearity test requires). `rng` null = noise-free. `points` need not
  /// be a power of two here (no FFT involved). The codes come from the same
  /// ThermometerEncoder as measure_into()'s.
  [[nodiscard]] std::vector<int> capture_codes(
      const DieVariations& variations, std::size_t points,
      double amplitude_fraction, stats::Xoshiro256pp* rng) const;

 private:
  bool post_layout_;
  ProcessModel process_;
  FlashAdcDesign design_;
  FlashAdcParasitics parasitics_;
  double offset_sigma_;  ///< per-comparator input-referred offset sigma [V]
  double lsb_;           ///< ideal ladder step [V]
  /// Noise-free input tone of one capture. It is the same for every die, so
  /// the constructor computes it once and every Monte Carlo worker reads it.
  std::vector<double> carrier_;
};

}  // namespace bmfusion::circuit
