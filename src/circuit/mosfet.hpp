// Square-law MOSFET model (SPICE level-1 style) with small-signal
// extraction.
//
// The model covers cutoff, triode and saturation with channel-length
// modulation, handles reverse (drain/source swapped) operation symmetrically,
// and reports terminal conductances directly with respect to the node
// voltages (a_g, a_d, a_s with a_s = -a_g - a_d), which makes DC Newton and
// AC stamping sign-safe for both polarities.
#pragma once

#include <string>

namespace bmfusion::circuit {

enum class MosfetType { kNmos, kPmos };

enum class MosfetRegion { kCutoff, kTriode, kSaturation };

/// Which current equation the device uses.
enum class MosfetEquation {
  kSquareLaw,  ///< piecewise level-1: fast, no subthreshold conduction
  kEkv,        ///< smooth EKV-style interpolation: continuous through weak
               ///< inversion, C-infinity in the terminal voltages
};

/// Technology-level model card (nominal values; variations are per-device).
struct MosfetModel {
  MosfetType type = MosfetType::kNmos;
  MosfetEquation equation = MosfetEquation::kSquareLaw;
  double vth0 = 0.4;      ///< |threshold voltage| [V]
  double kp = 200e-6;     ///< transconductance parameter mu*Cox [A/V^2]
  double lambda = 0.1;    ///< channel-length modulation [1/V]
  double slope_n = 1.3;   ///< EKV subthreshold slope factor (dimensionless)
  double thermal_v = 0.02585;  ///< kT/q at 300 K [V] (EKV only)
  double cox_area = 8e-3; ///< gate-oxide capacitance per area [F/m^2]
  double cov_width = 3e-10; ///< gate overlap capacitance per width [F/m]
  double cj_width = 4e-10;  ///< junction capacitance per width [F/m]
};

/// Instance geometry.
struct MosfetGeometry {
  double w = 1e-6;  ///< channel width [m]
  double l = 1e-7;  ///< channel length [m]
};

/// Per-instance process variation, produced by the ProcessModel.
struct MosfetVariation {
  double dvth = 0.0;     ///< additive threshold shift [V]
  double kp_factor = 1.0; ///< multiplicative transconductance factor
};

/// Evaluated large- plus small-signal state at one bias point.
struct MosfetOp {
  double id = 0.0;   ///< drain-to-source current (positive into drain) [A]
  double a_g = 0.0;  ///< dId/dVg [S]
  double a_d = 0.0;  ///< dId/dVd [S]
  double a_s = 0.0;  ///< dId/dVs = -(a_g + a_d) [S]
  MosfetRegion region = MosfetRegion::kCutoff;
  double cgs = 0.0;  ///< gate-source capacitance [F]
  double cgd = 0.0;  ///< gate-drain capacitance [F]
  double cdb = 0.0;  ///< drain-bulk capacitance [F]
  double csb = 0.0;  ///< source-bulk capacitance [F]
};

/// Evaluates the device at node voltages (vg, vd, vs). Bulk is assumed tied
/// to the appropriate rail (source-bulk effect is not modeled). The returned
/// currents/conductances are with respect to the *node* voltages, so callers
/// stamp them without polarity case analysis.
[[nodiscard]] MosfetOp evaluate_mosfet(const MosfetModel& model,
                                       const MosfetGeometry& geometry,
                                       const MosfetVariation& variation,
                                       double vg, double vd, double vs);

/// Human-readable region name for diagnostics.
[[nodiscard]] std::string to_string(MosfetRegion region);

}  // namespace bmfusion::circuit
