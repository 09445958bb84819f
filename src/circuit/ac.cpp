#include "circuit/ac.hpp"

#include <cmath>

#include "common/contracts.hpp"

namespace bmfusion::circuit {

using linalg::Complex;
using linalg::ComplexLu;
using linalg::ComplexMatrix;
using linalg::ComplexVector;
using linalg::Matrix;

namespace {
constexpr double kPi = 3.141592653589793238462643383279502884;
}

AcAnalysis::AcAnalysis(const Netlist& netlist, const OperatingPoint& op) {
  bind(netlist, op);
}

void AcAnalysis::bind(const Netlist& netlist, const OperatingPoint& op) {
  n_nodes_ = netlist.node_count();
  n_unknowns_ = netlist.unknown_count();
  g_.assign_zero(n_unknowns_, n_unknowns_);
  c_.assign_zero(n_unknowns_, n_unknowns_);
  rhs_.assign_zero(n_unknowns_);
  BMFUSION_REQUIRE(op.node_voltages().size() == n_nodes_,
                   "operating point does not match netlist");
  BMFUSION_REQUIRE(op.mosfet_ops().size() == netlist.mosfets().size(),
                   "operating point mosfet count mismatch");

  const auto vid = [&](NodeId id) -> std::ptrdiff_t {
    return id == kGround ? -1 : static_cast<std::ptrdiff_t>(id - 1);
  };
  const auto add = [](Matrix& m, std::ptrdiff_t r, std::ptrdiff_t c,
                      double value) {
    if (r >= 0 && c >= 0) {
      m(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += value;
    }
  };
  // Two-terminal admittance stamp between nodes a and b.
  const auto stamp_pair = [&](Matrix& m, NodeId na, NodeId nb, double value) {
    const std::ptrdiff_t a = vid(na);
    const std::ptrdiff_t b = vid(nb);
    add(m, a, a, value);
    add(m, b, b, value);
    add(m, a, b, -value);
    add(m, b, a, -value);
  };
  // VCCS stamp: current from np to nn controlled by (cp - cn).
  const auto stamp_vccs = [&](Matrix& m, NodeId np, NodeId nn, NodeId cp,
                              NodeId cn, double gm) {
    const std::ptrdiff_t p = vid(np);
    const std::ptrdiff_t n = vid(nn);
    const std::ptrdiff_t a = vid(cp);
    const std::ptrdiff_t b = vid(cn);
    add(m, p, a, gm);
    add(m, p, b, -gm);
    add(m, n, a, -gm);
    add(m, n, b, gm);
  };

  for (const Resistor& r : netlist.resistors()) {
    stamp_pair(g_, r.n1, r.n2, 1.0 / r.resistance);
  }
  for (const Capacitor& cap : netlist.capacitors()) {
    stamp_pair(c_, cap.n1, cap.n2, cap.capacitance);
  }
  for (const Vccs& v : netlist.vccs()) {
    stamp_vccs(g_, v.np, v.nn, v.cp, v.cn, v.gm);
  }
  for (const CurrentSource& s : netlist.current_sources()) {
    const std::ptrdiff_t p = vid(s.np);
    const std::ptrdiff_t n = vid(s.nn);
    // The AC current flows from np through the source into nn.
    if (p >= 0) rhs_[static_cast<std::size_t>(p)] -= Complex{s.ac, 0.0};
    if (n >= 0) rhs_[static_cast<std::size_t>(n)] += Complex{s.ac, 0.0};
  }
  for (std::size_t b = 0; b < netlist.voltage_sources().size(); ++b) {
    const VoltageSource& s = netlist.voltage_sources()[b];
    const std::size_t brow = n_nodes_ + b;
    const std::ptrdiff_t p = vid(s.np);
    const std::ptrdiff_t n = vid(s.nn);
    add(g_, p, static_cast<std::ptrdiff_t>(brow), 1.0);
    add(g_, n, static_cast<std::ptrdiff_t>(brow), -1.0);
    add(g_, static_cast<std::ptrdiff_t>(brow), p, 1.0);
    add(g_, static_cast<std::ptrdiff_t>(brow), n, -1.0);
    rhs_[brow] = Complex{s.ac, 0.0};
  }
  for (std::size_t m = 0; m < netlist.mosfets().size(); ++m) {
    const MosfetInstance& inst = netlist.mosfets()[m];
    const MosfetOp& mop = op.mosfet_op(m);
    // Drain-current linearization: row drain gets +a_*, row source -a_*.
    const std::ptrdiff_t d = vid(inst.drain);
    const std::ptrdiff_t g = vid(inst.gate);
    const std::ptrdiff_t s = vid(inst.source);
    add(g_, d, g, mop.a_g);
    add(g_, d, d, mop.a_d);
    add(g_, d, s, mop.a_s);
    add(g_, s, g, -mop.a_g);
    add(g_, s, d, -mop.a_d);
    add(g_, s, s, -mop.a_s);
    // Device capacitances; bulk terminals are AC ground.
    stamp_pair(c_, inst.gate, inst.source, mop.cgs);
    stamp_pair(c_, inst.gate, inst.drain, mop.cgd);
    stamp_pair(c_, inst.drain, kGround, mop.cdb);
    stamp_pair(c_, inst.source, kGround, mop.csb);
  }

  // Tiny leak keeps floating nodes (e.g. capacitor-only paths) solvable.
  for (std::size_t k = 0; k < n_nodes_; ++k) g_(k, k) += 1e-12;
}

void AcAnalysis::response_into(double freq_hz, ComplexMatrix& system,
                               ComplexLu& lu, ComplexVector& solution) const {
  BMFUSION_REQUIRE(freq_hz >= 0.0, "frequency must be non-negative");
  const double omega = 2.0 * kPi * freq_hz;
  system.assign_zero(n_unknowns_, n_unknowns_);
  Complex* const a = system.data();
  const double* const g = g_.data();
  const double* const c = c_.data();
  const std::size_t total = n_unknowns_ * n_unknowns_;
  for (std::size_t i = 0; i < total; ++i) a[i] = Complex{g[i], omega * c[i]};
  lu.factor(system);
  lu.solve_into(rhs_, solution);
}

ComplexVector AcAnalysis::response(double freq_hz) const {
  ComplexMatrix system;
  ComplexLu lu;
  ComplexVector x;
  response_into(freq_hz, system, lu, x);
  return x;
}

Complex AcAnalysis::node_response(double freq_hz, NodeId node) const {
  if (node == kGround) return Complex{};
  BMFUSION_REQUIRE(node - 1 < n_nodes_, "node id out of range");
  const ComplexVector x = response(freq_hz);
  return x[node - 1];
}

void AcAnalysis::sweep_into(const std::vector<double>& freqs_hz, NodeId probe,
                            ComplexMatrix& system, ComplexLu& lu,
                            ComplexVector& solution,
                            std::vector<Complex>& out) const {
  BMFUSION_REQUIRE(probe == kGround || probe - 1 < n_nodes_,
                   "node id out of range");
  out.resize(freqs_hz.size());
  for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
    if (probe == kGround) {
      out[i] = Complex{};
      continue;
    }
    response_into(freqs_hz[i], system, lu, solution);
    out[i] = solution[probe - 1];
  }
}

std::vector<Complex> AcAnalysis::sweep(const std::vector<double>& freqs_hz,
                                       NodeId probe) const {
  std::vector<Complex> out;
  ComplexMatrix system;
  ComplexLu lu;
  ComplexVector solution;
  sweep_into(freqs_hz, probe, system, lu, solution, out);
  return out;
}

std::vector<double> log_frequency_grid(double f_start, double f_stop,
                                       std::size_t points_per_decade) {
  BMFUSION_REQUIRE(f_start > 0.0 && f_stop > f_start,
                   "need 0 < f_start < f_stop");
  BMFUSION_REQUIRE(points_per_decade >= 1, "need >= 1 point per decade");
  const double decades = std::log10(f_stop / f_start);
  const std::size_t count = static_cast<std::size_t>(
                                std::ceil(decades *
                                          static_cast<double>(
                                              points_per_decade))) +
                            1;
  std::vector<double> freqs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(count - 1);
    freqs[i] = f_start * std::pow(10.0, t * decades);
  }
  return freqs;
}

AmplifierAcMetrics measure_amplifier(
    const std::vector<double>& freqs_hz,
    const std::vector<Complex>& response) {
  std::vector<double> phase_scratch;
  return measure_amplifier(freqs_hz, response, phase_scratch);
}

AmplifierAcMetrics measure_amplifier(
    const std::vector<double>& freqs_hz,
    const std::vector<Complex>& response,
    std::vector<double>& phase_scratch) {
  BMFUSION_REQUIRE(freqs_hz.size() == response.size(),
                   "frequency/response length mismatch");
  BMFUSION_REQUIRE(freqs_hz.size() >= 2, "sweep needs >= 2 points");

  AmplifierAcMetrics metrics;
  const double g0 = std::abs(response.front());
  BMFUSION_REQUIRE(g0 > 0.0, "zero response at the first sweep point");
  metrics.dc_gain_db = 20.0 * std::log10(g0);

  // Unwrapped phase along the sweep.
  std::vector<double>& phase = phase_scratch;
  phase.resize(response.size());
  phase[0] = std::arg(response[0]);
  for (std::size_t i = 1; i < response.size(); ++i) {
    double p = std::arg(response[i]);
    while (p - phase[i - 1] > kPi) p -= 2.0 * kPi;
    while (p - phase[i - 1] < -kPi) p += 2.0 * kPi;
    phase[i] = p;
  }

  // -3 dB corner: first crossing of g0/sqrt(2), log-log interpolated.
  const double target3 = g0 / std::sqrt(2.0);
  metrics.f3db_hz = freqs_hz.back();
  for (std::size_t i = 1; i < response.size(); ++i) {
    const double a = std::abs(response[i - 1]);
    const double b = std::abs(response[i]);
    if (a >= target3 && b < target3) {
      const double t = (std::log(target3) - std::log(a)) /
                       (std::log(b) - std::log(a));
      metrics.f3db_hz = std::exp(std::log(freqs_hz[i - 1]) +
                                 t * (std::log(freqs_hz[i]) -
                                      std::log(freqs_hz[i - 1])));
      break;
    }
  }

  // Unity-gain crossing and phase margin.
  for (std::size_t i = 1; i < response.size(); ++i) {
    const double a = std::abs(response[i - 1]);
    const double b = std::abs(response[i]);
    if (a >= 1.0 && b < 1.0) {
      const double t = (std::log(1.0) - std::log(a)) /
                       (std::log(b) - std::log(a));
      metrics.unity_gain_freq_hz =
          std::exp(std::log(freqs_hz[i - 1]) +
                   t * (std::log(freqs_hz[i]) - std::log(freqs_hz[i - 1])));
      const double phase_at_unity =
          phase[i - 1] + t * (phase[i] - phase[i - 1]);
      // Phase margin relative to the low-frequency phase (an inverting DC
      // response contributes 180 degrees that is not excess phase lag).
      const double excess_lag = phase_at_unity - phase[0];
      metrics.phase_margin_deg = 180.0 + excess_lag * 180.0 / kPi;
      metrics.unity_crossing_found = true;
      break;
    }
  }
  return metrics;
}

}  // namespace bmfusion::circuit
