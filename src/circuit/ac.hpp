// Small-signal AC analysis.
//
// Linearizes every device at a previously solved operating point and solves
// the complex MNA system (G + j*omega*C) x = b over a frequency sweep.
#pragma once

#include <span>
#include <vector>

#include "circuit/dc.hpp"
#include "circuit/netlist.hpp"
#include "linalg/complex_lu.hpp"
#include "linalg/matrix.hpp"

namespace bmfusion::circuit {

/// One matrix entry at the two frequency points of a pair, as 2-double GCC
/// vector lanes: lane l holds point l's value. Baseline SSE2 registers on
/// x86-64; each lane operation is one IEEE operation.
struct alignas(16) AcLanePair {
  using V2 = double __attribute__((vector_size(16)));
  V2 re;
  V2 im;
};

/// Buffers of AcAnalysis::amplifier_sweep, one per workspace: grown by the
/// first sweep and reused without allocation afterwards.
struct AcSweepScratch {
  std::vector<double> re;           ///< one point's system, factored in place
  std::vector<double> im;
  std::vector<AcLanePair> pair;     ///< a pair's system, factored in place
  std::vector<std::size_t> perm;    ///< row permutation
  std::vector<std::size_t> cols;    ///< nonzero columns of the pivot row
  std::vector<linalg::Complex> x;   ///< one point's solution
  std::vector<AcLanePair> pair_x;   ///< a pair's solutions
};

/// AC analysis bound to one netlist + operating point. The real conductance
/// and capacitance stamps are assembled once. response() and sweep() solve
/// the whole system with one dense ComplexLu per frequency point;
/// amplifier_sweep() computes only the probe node, two points per
/// elimination pass, and only up to the crossings measure_amplifier reads.
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

  /// Transfer sweep: node voltage at each frequency (the AC sources in the
  /// netlist are the stimulus).
  [[nodiscard]] std::vector<linalg::Complex> sweep(
      const std::vector<double>& freqs_hz, NodeId probe) const;

  /// The probe voltages measure_amplifier needs, in `out` (resized,
  /// capacity reused): points 0, 1, ... of `freqs_hz` (ascending, >= 0),
  /// stopping once both first crossings that measure_amplifier reads have
  /// been seen (|H| below |H[0]|/sqrt(2) and |H| below 1), so that
  /// measure_amplifier over the prefix equals measure_amplifier over the
  /// whole sweep. Without both crossings every point is solved. Each point
  /// bitwise equals sweep()'s (up to the sign of an exact zero); points
  /// are solved in pairs on two-lane vectors, one at a time where the two
  /// eliminations would differ. Throws NumericError when a point
  /// up to the stop is singular; a point above the stop may be singular
  /// without throwing. out.size() is the number of points solved.
  void amplifier_sweep(const std::vector<double>& freqs_hz, NodeId probe,
                       AcSweepScratch& scratch,
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
/// the sweep before the margin is read. Only the points up to the first
/// unity crossing and the first -3 dB crossing are read, so a prefix that
/// holds both gives the same metrics as the whole sweep.
[[nodiscard]] AmplifierAcMetrics measure_amplifier(
    const std::vector<double>& freqs_hz,
    const std::vector<linalg::Complex>& response);

/// Workspace variant: the phase-unwrap scratch lives in `phase_scratch`
/// (resized, capacity reused) so the Monte Carlo loop avoids reallocating it
/// per sample, and the spans may be prefixes of a sweep (see
/// AcAnalysis::amplifier_sweep). Bitwise identical to the two-argument
/// overload.
[[nodiscard]] AmplifierAcMetrics measure_amplifier(
    std::span<const double> freqs_hz,
    std::span<const linalg::Complex> response,
    std::vector<double>& phase_scratch);

}  // namespace bmfusion::circuit
