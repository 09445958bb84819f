#include "circuit/flash_adc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "dsp/fft.hpp"
#include "stats/univariate.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::circuit {

using linalg::Vector;

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559005768;
}

void ThermometerEncoder::build(std::span<const double> thresholds,
                               double v_low, double lsb) {
  const std::size_t count = thresholds.size();
  const std::size_t buckets = (count + 1) * kBucketsPerLsb;
  const double scale = static_cast<double>(kBucketsPerLsb) / lsb;
  BMFUSION_REQUIRE(std::isfinite(v_low) && lsb > 0.0 && std::isfinite(scale),
                   "encoder ladder needs a finite v_low and a positive lsb");
  // std::sort gives a NaN no defined place, and no input compares with it.
  for (const double s : thresholds) {
    BMFUSION_REQUIRE(!std::isnan(s), "comparator threshold is NaN");
  }
  v_low_ = v_low;
  scale_ = scale;
  last_bucket_ = static_cast<double>(buckets - 1);
  count_ = count;

  // The widest window is every threshold, so the padded buffer never needs
  // more than 2 * count + 2 entries; reserving them on the first die keeps
  // every later build allocation-free.
  padded_.reserve(2 * count + 2);
  padded_.assign(thresholds.begin(), thresholds.end());
  std::sort(padded_.begin(), padded_.end());

  // One merge of the sorted thresholds into the buckets: first_[b] is the
  // number of thresholds in buckets below b, `widest` the most thresholds
  // one bucket holds.
  first_.resize(buckets);
  std::size_t filled = 0;  // first_[0, filled) is written
  std::size_t widest = 0;
  for (std::size_t i = 0, run = 0; i < count; ++i) {
    const std::size_t b = bucket(padded_[i]);
    run = b + 1 == filled ? run + 1 : 1;
    widest = std::max(widest, run);
    for (; filled <= b; ++filled) first_[filled] = i;
  }
  for (; filled < buckets; ++filled) first_[filled] = count;

  pairs_ = std::max<std::size_t>(1, (widest + 1) / 2);
  padded_.resize(count + 2 * pairs_, std::numeric_limits<double>::quiet_NaN());
  BMF_COUNTER_ADD("circuit.adc.wide_windows", pairs_ > 1 ? 1 : 0);
}

FlashAdc::FlashAdc(DesignStage stage, ProcessModel process,
                   FlashAdcDesign design, FlashAdcParasitics parasitics)
    : post_layout_(stage == DesignStage::kPostLayout),
      process_(std::move(process)),
      design_(design),
      parasitics_(parasitics) {
  BMFUSION_REQUIRE(design_.bits >= 2 && design_.bits <= 12,
                   "flash adc resolution out of supported range");
  BMFUSION_REQUIRE(design_.v_high > design_.v_low,
                   "ladder references must be ordered");
  BMFUSION_REQUIRE(dsp::is_power_of_two(design_.capture_points) &&
                       design_.capture_points >= 64,
                   "capture length must be a power of two >= 64");
  offset_sigma_ = process_.local_vth_sigma(design_.comparator_pair) *
                  std::sqrt(2.0);  // differential pair: two devices
  if (post_layout_) offset_sigma_ *= parasitics_.offset_inflation;
  lsb_ = (design_.v_high - design_.v_low) /
         static_cast<double>(std::size_t{1} << design_.bits);

  const std::size_t n = design_.capture_points;
  const double fin =
      dsp::coherent_frequency(design_.sample_rate, n, design_.input_ratio);
  const double amplitude =
      0.5 * (design_.v_high - design_.v_low) * design_.amplitude_fraction;
  const double atten = post_layout_ ? parasitics_.input_attenuation : 1.0;
  carrier_.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = kTwoPi * fin * static_cast<double>(t) /
                         design_.sample_rate;
    carrier_[t] = atten * amplitude * std::sin(phase);
  }
}

std::vector<std::string> FlashAdc::metric_names() const {
  return {"snr_db", "sinad_db", "sfdr_db", "thd_db", "power_w"};
}

FlashAdc::DieVariations FlashAdc::sample_variations(
    stats::Xoshiro256pp& rng) const {
  DieVariations v;
  sample_variations_into(rng, v);
  return v;
}

void FlashAdc::sample_variations_into(stats::Xoshiro256pp& rng,
                                      DieVariations& v) const {
  const std::size_t segments = std::size_t{1} << design_.bits;
  v.global = process_.sample_global(rng);
  v.ladder_factors.resize(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    v.ladder_factors[i] = process_.sample_resistor_factor(rng, v.global);
  }
  v.comparator_offsets.resize(comparator_count());
  for (double& off : v.comparator_offsets) {
    off = stats::sample_normal(rng, 0.0, offset_sigma_);
  }
  // Comparator bias tracks the NMOS transconductance corner.
  v.bias_factor = v.global.kp_factor_nmos;
  v.cap_factor = process_.sample_capacitor_factor(rng, v.global);
}

std::vector<double> FlashAdc::thresholds(const DieVariations& v) const {
  std::vector<double> taps;
  thresholds_into(v, taps);
  return taps;
}

void FlashAdc::thresholds_into(const DieVariations& v,
                               std::vector<double>& taps) const {
  const std::size_t segments = std::size_t{1} << design_.bits;
  BMFUSION_REQUIRE(v.ladder_factors.size() == segments,
                   "ladder variation size mismatch");
  BMFUSION_REQUIRE(v.comparator_offsets.size() == comparator_count(),
                   "comparator variation size mismatch");

  // Tap voltages from the resistive divider: mismatch redistributes the
  // span across segments; the end points stay pinned by the references.
  double total = 0.0;
  for (const double f : v.ladder_factors) total += f;
  const double span = design_.v_high - design_.v_low;

  taps.resize(comparator_count());
  double acc = 0.0;
  for (std::size_t i = 0; i < comparator_count(); ++i) {
    acc += v.ladder_factors[i];
    double tap = design_.v_low + span * acc / total;
    if (post_layout_) {
      // IR-drop gradient in the extracted ladder: a bow peaking mid-ladder.
      const double x =
          static_cast<double>(i + 1) / static_cast<double>(comparator_count());
      tap += span * parasitics_.ladder_gradient * x * (1.0 - x);
    }
    taps[i] = tap + v.comparator_offsets[i];
  }
}

Vector FlashAdc::measure(const DieVariations& v,
                         stats::Xoshiro256pp* rng) const {
  SimWorkspace ws;
  measure_into(v, rng, ws);
  return std::move(ws.metrics);
}

namespace {

/// Per-workspace capture scratch (see SimWorkspace::cache_as): the
/// thresholds, the encoder's table and the reconstructed waveform reach
/// their full size on the first sample and are reused verbatim afterwards.
struct AdcScratch {
  FlashAdc::DieVariations v;       ///< draw target for the workspace path
  std::vector<double> thresholds;  ///< effective thresholds, unsorted
  ThermometerEncoder encoder;      ///< the die's buckets and sorted thresholds
  std::vector<double> wave;        ///< reconstructed capture waveform
  dsp::ToneScratch tone;           ///< FFT / spectrum buffers for analyze_tone
};

}  // namespace

void FlashAdc::measure_into(const DieVariations& v, stats::Xoshiro256pp* rng,
                            SimWorkspace& ws) const {
  AdcScratch& scratch =
      ws.cache_as<AdcScratch>(this, [] { return AdcScratch{}; });
  const std::size_t n = design_.capture_points;
  const double vmid = 0.5 * (design_.v_low + design_.v_high);
  double noise_rms = design_.input_noise_rms;
  if (post_layout_) noise_rms *= parasitics_.noise_inflation;

  thresholds_into(v, scratch.thresholds);
  ThermometerEncoder& encoder = scratch.encoder;
  encoder.build(scratch.thresholds, design_.v_low, lsb_);

  // The capture's noise draws, the encoder inputs and the codes each get a
  // pass of their own over `wave`: no encode step can then stall the
  // log -> sqrt -> divide chains of draws in flight, and the input pass,
  // free of table lookups, runs on vector lanes.
  std::vector<double>& wave = scratch.wave;
  wave.resize(n);
  const bool noisy = rng != nullptr && noise_rms > 0.0;
  if (noisy) stats::sample_normal_into(*rng, 0.0, noise_rms, wave);
  const double halfspan = 0.5 * (design_.v_high - design_.v_low);
  for (std::size_t t = 0; t < n; ++t) {
    double x = carrier_[t];
    if (noisy) x += wave[t];
    // Input buffer compression (see FlashAdcDesign::buffer_hd3).
    const double xn = x / halfspan;
    wave[t] = vmid + x * (1.0 + design_.buffer_hd3 * xn * xn);
  }
  // Ideal back-end DAC for analysis.
  for (double& w : wave) {
    w = static_cast<double>(encoder.code(w)) * lsb_;
  }

  dsp::ToneAnalysisConfig cfg;
  cfg.window = dsp::WindowKind::kRectangular;  // capture is coherent
  const dsp::ToneAnalysis tone = dsp::analyze_tone_into(wave, cfg, scratch.tone);

  // Power: static ladder + comparator bias + clock/dynamic switching.
  double ladder_res = 0.0;
  for (const double f : v.ladder_factors) {
    ladder_res += design_.ladder_unit_res * f;
  }
  const double p_ladder =
      (design_.v_high - design_.v_low) * (design_.v_high - design_.v_low) /
      ladder_res;
  const double p_bias = static_cast<double>(comparator_count()) *
                        design_.comparator_bias * v.bias_factor * design_.vdd;
  double csw = design_.switched_cap;
  if (post_layout_) csw += parasitics_.switched_cap_extra;
  const double p_dyn = csw * v.cap_factor * design_.vdd * design_.vdd *
                       design_.sample_rate;

  ws.metrics.resize(5);
  ws.metrics[0] = tone.snr_db;
  ws.metrics[1] = tone.sinad_db;
  ws.metrics[2] = tone.sfdr_db;
  ws.metrics[3] = tone.thd_db;
  ws.metrics[4] = p_ladder + p_bias + p_dyn;
}

std::vector<int> FlashAdc::capture_codes(const DieVariations& v,
                                         std::size_t points,
                                         double amplitude_fraction,
                                         stats::Xoshiro256pp* rng) const {
  BMFUSION_REQUIRE(points >= 16, "capture needs >= 16 points");
  BMFUSION_REQUIRE(amplitude_fraction > 0.0,
                   "amplitude fraction must be positive");
  const double fin =
      dsp::coherent_frequency(design_.sample_rate, design_.capture_points,
                              design_.input_ratio);
  const double vmid = 0.5 * (design_.v_low + design_.v_high);
  const double halfspan = 0.5 * (design_.v_high - design_.v_low);
  const double amplitude = halfspan * amplitude_fraction;
  const double atten = post_layout_ ? parasitics_.input_attenuation : 1.0;
  double noise_rms = design_.input_noise_rms;
  if (post_layout_) noise_rms *= parasitics_.noise_inflation;

  ThermometerEncoder encoder;
  encoder.build(thresholds(v), design_.v_low, lsb_);

  std::vector<int> codes(points);
  for (std::size_t t = 0; t < points; ++t) {
    const double phase =
        kTwoPi * fin * static_cast<double>(t) / design_.sample_rate;
    double x = atten * amplitude * std::sin(phase);
    if (rng != nullptr && noise_rms > 0.0) {
      x += stats::sample_normal(*rng, 0.0, noise_rms);
    }
    const double xn = x / halfspan;
    const double vin = vmid + x * (1.0 + design_.buffer_hd3 * xn * xn);
    codes[t] = static_cast<int>(encoder.code(vin));
  }
  return codes;
}

Vector FlashAdc::nominal_metrics() const {
  DieVariations v;
  const std::size_t segments = std::size_t{1} << design_.bits;
  v.ladder_factors.assign(segments, 1.0);
  v.comparator_offsets.assign(comparator_count(), 0.0);
  // The nominal run measures a variation-free die on the same bench, which
  // still has input-referred noise: a noiseless capture would report an
  // SNR several sigma away from every real die, defeating the shift step.
  // A fixed seed keeps the nominal deterministic.
  stats::Xoshiro256pp noise_rng(0x5EEDAD0C0FFEE123ULL);
  return measure(v, &noise_rng);
}

Vector FlashAdc::sample_metrics(stats::Xoshiro256pp& rng) const {
  const DieVariations v = sample_variations(rng);
  return measure(v, &rng);
}

const Vector& FlashAdc::sample_metrics(stats::Xoshiro256pp& rng,
                                       SimWorkspace& ws) const {
  AdcScratch& scratch =
      ws.cache_as<AdcScratch>(this, [] { return AdcScratch{}; });
  sample_variations_into(rng, scratch.v);
  measure_into(scratch.v, &rng, ws);
  return ws.metrics;
}

}  // namespace bmfusion::circuit
