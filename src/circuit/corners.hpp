// Corner-sweep generator: genuinely correlated populations for
// multi-population fusion.
//
// A corner grid is the cartesian product {process corner} x {temperature}
// x {supply}. Sweeping it samples the SAME die (the same per-index process
// draw via sample_rng(seed, die)) at every grid point: row i of population
// k and row i of population l describe one piece of silicon measured under
// two conditions, so the populations are correlated through the shared
// process variation — exactly the structure MultiPopulationEstimator
// exploits, and exactly how a validation lab produces corner data.
//
// Condition modeling on top of the drawn op-amp DieVariations:
//   * process corner: ProcessModel::corner() offsets applied per device
//     polarity,
//   * temperature: threshold shift of kTempVthSlope V/K (both polarities,
//     "fast" negative convention) and mobility scaling (T/T0)^-1.3,
//   * supply: the design's vdd field, rebuilt per grid point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/opamp.hpp"
#include "circuit/process.hpp"
#include "circuit/stage.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace bmfusion::circuit {

/// One grid point of the sweep.
struct CornerPoint {
  ProcessCorner corner = ProcessCorner::kTypical;
  double temperature_c = 27.0;
  double vdd_factor = 1.0;  ///< multiplies the design's nominal supply

  /// Stable label, e.g. "ff_85c_v1.05".
  [[nodiscard]] std::string name() const;
};

/// Sweep configuration; the grid is the cartesian product of the axes.
struct CornerGridConfig {
  std::vector<ProcessCorner> corners = {ProcessCorner::kTypical};
  std::vector<double> temperatures_c = {27.0};
  std::vector<double> vdd_factors = {1.0};
  double sigma_count = 1.5;  ///< corner offset strength, in global sigmas
};

/// Expands the grid (corner-major, then temperature, then vdd).
[[nodiscard]] std::vector<CornerPoint> make_corner_grid(
    const CornerGridConfig& config);

/// Paired corner populations of one testbench family.
struct CornerPopulations {
  std::vector<CornerPoint> grid;
  std::vector<std::string> metric_names;
  /// samples[k](i, m): die i of grid point k — rows are paired across k.
  std::vector<linalg::Matrix> samples;
  /// Variation-free nominal metrics per grid point.
  std::vector<linalg::Vector> nominals;
};

/// Temperature coefficients of the sweep.
inline constexpr double kTempVthSlope = -1.5e-3;  ///< [V/K], both polarities
inline constexpr double kTempMobilityExponent = -1.3;

/// Sweeps the two-stage op-amp across the grid: `sample_count` paired dies
/// per grid point, drawn with sample_rng(seed, die). Deterministic in
/// (config, grid, seed).
[[nodiscard]] CornerPopulations sweep_opamp_corners(
    DesignStage stage, const ProcessModel& process,
    const CornerGridConfig& grid, std::size_t sample_count,
    std::uint64_t seed, const OpAmpDesign& design = {},
    const OpAmpParasitics& parasitics = {});

}  // namespace bmfusion::circuit
