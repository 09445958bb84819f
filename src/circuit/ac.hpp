// Small-signal AC analysis.
//
// Linearizes every device at a previously solved operating point and solves
// the complex MNA system (G + j*omega*C) x = b over a frequency sweep.
#pragma once

#include <vector>

#include "circuit/dc.hpp"
#include "circuit/netlist.hpp"
#include "linalg/complex_lu.hpp"
#include "linalg/matrix.hpp"

namespace bmfusion::circuit {

/// AC analysis bound to one netlist + operating point. The real conductance
/// and capacitance stamps are assembled once; each frequency point costs one
/// complex LU solve.
class AcAnalysis {
 public:
  /// Unbound analysis; call bind() before any query (workspace reuse).
  AcAnalysis() = default;

  AcAnalysis(const Netlist& netlist, const OperatingPoint& op);

  /// Re-stamps this analysis for a (netlist, operating point) pair, reusing
  /// the G/C/rhs storage. Equivalent to constructing a fresh AcAnalysis.
  void bind(const Netlist& netlist, const OperatingPoint& op);

  /// Complex node voltages and branch currents at `freq_hz` (>= 0).
  [[nodiscard]] linalg::ComplexVector response(double freq_hz) const;

  /// Workspace variant of response(): assembles G + j*omega*C into `system`,
  /// factors into `lu` and solves into `solution`, all reusing the caller's
  /// storage. Bitwise identical to response().
  void response_into(double freq_hz, linalg::ComplexMatrix& system,
                     linalg::ComplexLu& lu,
                     linalg::ComplexVector& solution) const;

  /// Complex voltage of one node at `freq_hz`.
  [[nodiscard]] linalg::Complex node_response(double freq_hz,
                                              NodeId node) const;

  /// Transfer sweep: node voltage at each frequency (the AC sources in the
  /// netlist are the stimulus).
  [[nodiscard]] std::vector<linalg::Complex> sweep(
      const std::vector<double>& freqs_hz, NodeId probe) const;

  /// Workspace variant of sweep(): one complex system/LU/solution buffer is
  /// reused across every frequency point and the probe responses land in
  /// `out` (resized, capacity reused). Bitwise identical to sweep().
  void sweep_into(const std::vector<double>& freqs_hz, NodeId probe,
                  linalg::ComplexMatrix& system, linalg::ComplexLu& lu,
                  linalg::ComplexVector& solution,
                  std::vector<linalg::Complex>& out) const;

 private:
  std::size_t n_nodes_ = 0;
  std::size_t n_unknowns_ = 0;
  linalg::Matrix g_;  ///< conductance stamps
  linalg::Matrix c_;  ///< capacitance stamps
  linalg::ComplexVector rhs_;
};

/// Logarithmic frequency grid from `f_start` to `f_stop` (inclusive) with
/// `points_per_decade` points per decade.
[[nodiscard]] std::vector<double> log_frequency_grid(double f_start,
                                                     double f_stop,
                                                     std::size_t
                                                         points_per_decade);

/// Amplifier metrics extracted from a transfer-function sweep.
struct AmplifierAcMetrics {
  double dc_gain_db = 0.0;        ///< gain at the first sweep point
  double f3db_hz = 0.0;           ///< -3 dB corner (log-interpolated)
  double unity_gain_freq_hz = 0.0;///< |H| = 1 crossing
  double phase_margin_deg = 0.0;  ///< 180 + unwrapped phase at unity
  bool unity_crossing_found = false;
};

/// Extracts gain/bandwidth/phase margin from a Bode sweep. `freqs_hz` must be
/// ascending and the same length as `response`. The phase is unwrapped along
/// the sweep before the margin is read.
[[nodiscard]] AmplifierAcMetrics measure_amplifier(
    const std::vector<double>& freqs_hz,
    const std::vector<linalg::Complex>& response);

/// Workspace variant: the phase-unwrap scratch lives in `phase_scratch`
/// (resized, capacity reused) so the Monte Carlo loop avoids reallocating it
/// per sample. Bitwise identical to the two-argument overload.
[[nodiscard]] AmplifierAcMetrics measure_amplifier(
    const std::vector<double>& freqs_hz,
    const std::vector<linalg::Complex>& response,
    std::vector<double>& phase_scratch);

}  // namespace bmfusion::circuit
