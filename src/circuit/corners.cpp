#include "circuit/corners.hpp"

#include <cmath>
#include <cstdio>

#include "circuit/montecarlo.hpp"
#include "common/contracts.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::circuit {
namespace {

const char* corner_tag(ProcessCorner corner) {
  switch (corner) {
    case ProcessCorner::kTypical: return "tt";
    case ProcessCorner::kFastFast: return "ff";
    case ProcessCorner::kSlowSlow: return "ss";
    case ProcessCorner::kFastSlow: return "fs";
    case ProcessCorner::kSlowFast: return "sf";
  }
  return "??";
}

/// Mobility multiplier at `temperature_c` relative to the 27 C reference.
double mobility_factor(double temperature_c) {
  return std::pow((temperature_c + 273.15) / 300.15, kTempMobilityExponent);
}

/// Threshold shift at `temperature_c` relative to 27 C [V].
double vth_shift(double temperature_c) {
  return kTempVthSlope * (temperature_c - 27.0);
}

/// Resistance tempco of the poly ladder (relative, per kelvin).
constexpr double kResTempco = 2.0e-3;

void apply_condition(TwoStageOpAmp::DieVariations& v,
                     const GlobalVariation& corner_gv,
                     const CornerPoint& point) {
  const double dvth_t = vth_shift(point.temperature_c);
  const double kp_t = mobility_factor(point.temperature_c);
  for (int i = 0; i < 8; ++i) {
    const bool nmos = TwoStageOpAmp::kDeviceTypes[i] == MosfetType::kNmos;
    v.devices[i].dvth +=
        (nmos ? corner_gv.dvth_nmos : corner_gv.dvth_pmos) + dvth_t;
    v.devices[i].kp_factor *=
        (nmos ? corner_gv.kp_factor_nmos : corner_gv.kp_factor_pmos) * kp_t;
  }
  v.r_bias_factor *= corner_gv.res_factor *
                     (1.0 + kResTempco * (point.temperature_c - 27.0));
  v.cap_factor *= corner_gv.cap_factor;
}

}  // namespace

std::string CornerPoint::name() const {
  char buf[64];
  const double t = temperature_c;
  std::snprintf(buf, sizeof buf, "%s_%s%.0fc_v%.2f", corner_tag(corner),
                t < 0.0 ? "m" : "", std::abs(t), vdd_factor);
  return buf;
}

std::vector<CornerPoint> make_corner_grid(const CornerGridConfig& config) {
  BMFUSION_REQUIRE(!config.corners.empty() &&
                       !config.temperatures_c.empty() &&
                       !config.vdd_factors.empty(),
                   "corner grid needs >= 1 value per axis");
  BMFUSION_REQUIRE(config.sigma_count >= 0.0,
                   "corner grid sigma count must be non-negative");
  std::vector<CornerPoint> grid;
  grid.reserve(config.corners.size() * config.temperatures_c.size() *
               config.vdd_factors.size());
  for (const ProcessCorner corner : config.corners) {
    for (const double temperature : config.temperatures_c) {
      for (const double vdd : config.vdd_factors) {
        BMFUSION_REQUIRE(vdd > 0.0, "vdd factor must be positive");
        grid.push_back(CornerPoint{corner, temperature, vdd});
      }
    }
  }
  return grid;
}

CornerPopulations sweep_opamp_corners(DesignStage stage,
                                      const ProcessModel& process,
                                      const CornerGridConfig& grid_config,
                                      std::size_t sample_count,
                                      std::uint64_t seed,
                                      const OpAmpDesign& design,
                                      const OpAmpParasitics& parasitics) {
  BMFUSION_REQUIRE(sample_count >= 1, "corner sweep needs >= 1 die");
  BMF_SPAN("corner_sweep_opamp");
  CornerPopulations out;
  out.grid = make_corner_grid(grid_config);
  for (const CornerPoint& point : out.grid) {
    OpAmpDesign corner_design = design;
    corner_design.vdd *= point.vdd_factor;
    const TwoStageOpAmp bench(stage, process, corner_design, parasitics);
    if (out.metric_names.empty()) out.metric_names = bench.metric_names();
    const GlobalVariation corner_gv =
        process.corner(point.corner, grid_config.sigma_count);

    TwoStageOpAmp::DieVariations nominal_die;
    apply_condition(nominal_die, corner_gv, point);
    out.nominals.push_back(bench.measure(nominal_die));

    linalg::Matrix samples(sample_count, out.metric_names.size());
    for (std::size_t die = 0; die < sample_count; ++die) {
      stats::Xoshiro256pp rng = sample_rng(seed, die);
      TwoStageOpAmp::DieVariations v = bench.sample_variations(rng);
      apply_condition(v, corner_gv, point);
      const linalg::Vector row = bench.measure(v);
      for (std::size_t m = 0; m < row.size(); ++m) samples(die, m) = row[m];
    }
    out.samples.push_back(std::move(samples));
    BMF_COUNTER_ADD("fusion.corner_samples", sample_count);
  }
  return out;
}

}  // namespace bmfusion::circuit
