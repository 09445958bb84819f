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

#include "circuit/montecarlo.hpp"
#include "circuit/process.hpp"
#include "circuit/stage.hpp"
#include "dsp/spectrum.hpp"

namespace bmfusion::circuit {

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

  /// Buffer-reusing draw: the variation vectors, sorted thresholds, capture
  /// waveform and tone-analysis buffers (FFT work array, twiddle table,
  /// window) live in `ws`'s cached scratch, so a steady-state draw allocates
  /// nothing. Bitwise identical to the allocating overload.
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

  /// Workspace variant of measure(): the sorted-threshold and waveform
  /// buffers come from `ws`'s cached scratch and the result lands in
  /// `ws.metrics`. Bitwise identical to measure(). The capture's noise is
  /// drawn in one pass (stats::sample_normal_into) before the encode pass,
  /// consuming `rng` exactly as one sample_normal call per point would.
  void measure_into(const DieVariations& variations, stats::Xoshiro256pp* rng,
                    SimWorkspace& ws) const;

  /// Output code of the ones-counting (bubble-tolerant) thermometer encoder
  /// for input `vin`: the number of `sorted` thresholds at or below it, i.e.
  /// the index of the first threshold above it (NaN: all of them). Starts
  /// from the ideal ladder's code and walks to the exact count; mismatch
  /// keeps the walk to a step or two.
  [[nodiscard]] std::size_t thermometer_code(const std::vector<double>& sorted,
                                             double vin) const;

  /// Raw output codes for a sine capture at an arbitrary amplitude (as a
  /// fraction of half the ladder span; > 1 clips, as the code-density
  /// linearity test requires). `rng` null = noise-free. `points` need not
  /// be a power of two here (no FFT involved).
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
