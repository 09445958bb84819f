#include "circuit/ac.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/contracts.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::circuit {

using linalg::Complex;
using linalg::ComplexLu;
using linalg::ComplexMatrix;
using linalg::ComplexVector;
using linalg::Matrix;

namespace {
constexpr double kPi = 3.141592653589793238462643383279502884;

using V2 = AcLanePair::V2;
/// Per-lane comparison results: all bits set where true.
using M2 = std::int64_t __attribute__((vector_size(16)));

/// Smith's complex division, the expression ComplexLu factors and solves
/// with; the sweep kernels repeat it so that their bits match ComplexLu's.
inline Complex complex_div(double ar, double ai, double br, double bi) {
  if (std::fabs(br) >= std::fabs(bi)) {
    const double r = bi / br;
    const double den = br + bi * r;
    return Complex{(ar + ai * r) / den, (ai - ar * r) / den};
  }
  const double r = br / bi;
  const double den = bi + br * r;
  return Complex{(ar * r + ai) / den, (ai * r - ar) / den};
}

/// ComplexLu's singularity test: a pivot fails when |z| < 1e-250 or |z|
/// is not finite. A squared magnitude inside [1e-200, 1e300] puts |z|
/// inside [1e-100, 1e150], where the test passes, so std::abs (hypot) runs
/// only outside that range.
bool singular_pivot(double re, double im, double mag2) {
  if (mag2 >= 1e-200 && mag2 <= 1e300) return false;
  const double mag = std::abs(Complex{re, im});
  return mag < 1e-250 || !std::isfinite(mag);
}

/// The bound system G + j*omega*C, x = b, and the unknown the sweep reads.
struct ProbeSystem {
  std::size_t n;
  const double* g;
  const double* c;
  const Complex* rhs;
  std::size_t probe;
};

/// x[probe] at one frequency: ComplexLu::factor and solve_into on
/// G + j*omega*C, with the same operations on the same operands in the same
/// order, except that
///  - the system is assembled straight into the factor buffer;
///  - an elimination step updates only the columns where the pivot row is
///    nonzero: skipping x -= f*0 changes at most the sign of an exact zero
///    (for finite f), the rule ComplexLu's zero-multiplier skip relies on;
///  - the backward pass stops at the probe row, since x[probe] depends
///    only on x[k] for k > probe.
/// Throws NumericError on a singular pivot, as ComplexLu does.
Complex solve_probe(const ProbeSystem& s, double omega, AcSweepScratch& w) {
  const std::size_t n = s.n;
  double* const re = w.re.data();
  double* const im = w.im.data();
  std::size_t* const perm = w.perm.data();
  std::size_t* const cols = w.cols.data();
  for (std::size_t i = 0; i < n * n; ++i) {
    re[i] = s.g[i];
    im[i] = omega * s.c[i];
  }
  std::iota(perm, perm + n, std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag2 = re[k * n + k] * re[k * n + k] +
                        im[k * n + k] * im[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m2 = re[i * n + k] * re[i * n + k] +
                        im[i * n + k] * im[i * n + k];
      if (m2 > pivot_mag2) {
        pivot_mag2 = m2;
        pivot_row = i;
      }
    }
    if (singular_pivot(re[pivot_row * n + k], im[pivot_row * n + k],
                       pivot_mag2)) {
      throw NumericError("ac sweep: matrix is numerically singular");
    }
    if (pivot_row != k) {
      std::swap_ranges(re + k * n, re + k * n + n, re + pivot_row * n);
      std::swap_ranges(im + k * n, im + k * n + n, im + pivot_row * n);
      std::swap(perm[k], perm[pivot_row]);
    }
    const Complex inv_pivot =
        complex_div(1.0, 0.0, re[k * n + k], im[k * n + k]);
    const double pr = inv_pivot.real();
    const double pi = inv_pivot.imag();
    const double* const rk = re + k * n;
    const double* const ik = im + k * n;
    std::size_t ncols = 0;
    for (std::size_t c = k + 1; c < n; ++c) {
      if (rk[c] != 0.0 || ik[c] != 0.0) cols[ncols++] = c;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      double* const ri = re + i * n;
      double* const ii = im + i * n;
      const double er = ri[k];
      const double ei = ii[k];
      const double fr = er * pr - ei * pi;
      const double fi = er * pi + ei * pr;
      ri[k] = fr;
      ii[k] = fi;
      if (fr == 0.0 && fi == 0.0) continue;
      for (std::size_t j = 0; j < ncols; ++j) {
        const std::size_t c = cols[j];
        const double ar = rk[c];
        const double ai = ik[c];
        ri[c] -= fr * ar - fi * ai;
        ii[c] -= fr * ai + fi * ar;
      }
    }
  }

  Complex* const x = w.x.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* const ri = re + i * n;
    const double* const ii = im + i * n;
    double ar = s.rhs[perm[i]].real();
    double ai = s.rhs[perm[i]].imag();
    for (std::size_t k = 0; k < i; ++k) {
      const double lr = ri[k];
      const double li = ii[k];
      const double xr = x[k].real();
      const double xi = x[k].imag();
      ar -= lr * xr - li * xi;
      ai -= lr * xi + li * xr;
    }
    x[i] = Complex{ar, ai};
  }
  for (std::size_t row = n; row-- > s.probe;) {
    const double* const ri = re + row * n;
    const double* const ii = im + row * n;
    double ar = x[row].real();
    double ai = x[row].imag();
    for (std::size_t k = row + 1; k < n; ++k) {
      const double ur = ri[k];
      const double ui = ii[k];
      const double xr = x[k].real();
      const double xi = x[k].imag();
      ar -= ur * xr - ui * xi;
      ai -= ur * xi + ui * xr;
    }
    x[row] = complex_div(ar, ai, ri[row], ii[row]);
  }
  return x[s.probe];
}

/// solve_probe at two frequencies in one pass, lane l computing point l.
/// Each lane does solve_probe's operations on the same operands in the
/// same order: the vector products and sums are lane-wise IEEE operations,
/// and Smith's division, which branches on its operands, runs per lane.
/// Returns false, with `h` untouched, when the lanes would part ways:
///  - a step picks different pivot rows (the search is branch-free: strict
///    `>` on mag2, row index selected per lane);
///  - a pivot-row entry or a multiplier is zero in one lane only (the
///    column list and the zero-multiplier skip must fit both lanes);
///  - a pivot is singular (solve_probe then throws, unless the sweep stops
///    before that point).
/// The caller then reruns both points on solve_probe.
bool solve_probe_pair(const ProbeSystem& s, double omega0, double omega1,
                      AcSweepScratch& w, Complex (&h)[2]) {
  const std::size_t n = s.n;
  AcLanePair* const a = w.pair.data();
  std::size_t* const perm = w.perm.data();
  std::size_t* const cols = w.cols.data();
  const V2 omega = {omega0, omega1};
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i].re = V2{s.g[i], s.g[i]};
    a[i].im = omega * V2{s.c[i], s.c[i]};
  }
  std::iota(perm, perm + n, std::size_t{0});

  const auto mag2 = [](const AcLanePair& z) {
    return z.re * z.re + z.im * z.im;
  };
  const V2 zero = {0.0, 0.0};
  for (std::size_t k = 0; k < n; ++k) {
    V2 pivot_mag2 = mag2(a[k * n + k]);
    M2 pivot_row = {static_cast<std::int64_t>(k), static_cast<std::int64_t>(k)};
    for (std::size_t i = k + 1; i < n; ++i) {
      const V2 m2 = mag2(a[i * n + k]);
      const M2 larger = m2 > pivot_mag2;
      const auto row = static_cast<std::int64_t>(i);
      pivot_mag2 = larger ? m2 : pivot_mag2;
      pivot_row = larger ? M2{row, row} : pivot_row;
    }
    if (pivot_row[0] != pivot_row[1]) return false;
    const auto p = static_cast<std::size_t>(pivot_row[0]);
    for (int l = 0; l < 2; ++l) {
      if (singular_pivot(a[p * n + k].re[l], a[p * n + k].im[l],
                         pivot_mag2[l])) {
        return false;
      }
    }
    if (p != k) {
      std::swap_ranges(a + k * n, a + k * n + n, a + p * n);
      std::swap(perm[k], perm[p]);
    }
    const AcLanePair& d = a[k * n + k];
    const Complex inv0 = complex_div(1.0, 0.0, d.re[0], d.im[0]);
    const Complex inv1 = complex_div(1.0, 0.0, d.re[1], d.im[1]);
    const V2 pr = {inv0.real(), inv1.real()};
    const V2 pi = {inv0.imag(), inv1.imag()};
    const AcLanePair* const row_k = a + k * n;
    std::size_t ncols = 0;
    for (std::size_t c = k + 1; c < n; ++c) {
      const M2 nonzero = (row_k[c].re != zero) | (row_k[c].im != zero);
      if (nonzero[0] != nonzero[1]) return false;
      if (nonzero[0] != 0) cols[ncols++] = c;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      AcLanePair* const row_i = a + i * n;
      const V2 er = row_i[k].re;
      const V2 ei = row_i[k].im;
      const V2 fr = er * pr - ei * pi;
      const V2 fi = er * pi + ei * pr;
      row_i[k].re = fr;
      row_i[k].im = fi;
      const M2 skip = (fr == zero) & (fi == zero);
      if (skip[0] != skip[1]) return false;
      if (skip[0] != 0) continue;
      for (std::size_t j = 0; j < ncols; ++j) {
        const std::size_t c = cols[j];
        const V2 ar = row_k[c].re;
        const V2 ai = row_k[c].im;
        row_i[c].re -= fr * ar - fi * ai;
        row_i[c].im -= fr * ai + fi * ar;
      }
    }
  }

  AcLanePair* const x = w.pair_x.data();
  for (std::size_t i = 0; i < n; ++i) {
    const AcLanePair* const row_i = a + i * n;
    const Complex b = s.rhs[perm[i]];
    V2 ar = {b.real(), b.real()};
    V2 ai = {b.imag(), b.imag()};
    for (std::size_t k = 0; k < i; ++k) {
      const V2 lr = row_i[k].re;
      const V2 li = row_i[k].im;
      ar -= lr * x[k].re - li * x[k].im;
      ai -= lr * x[k].im + li * x[k].re;
    }
    x[i].re = ar;
    x[i].im = ai;
  }
  for (std::size_t row = n; row-- > s.probe;) {
    const AcLanePair* const row_r = a + row * n;
    V2 ar = x[row].re;
    V2 ai = x[row].im;
    for (std::size_t k = row + 1; k < n; ++k) {
      const V2 ur = row_r[k].re;
      const V2 ui = row_r[k].im;
      ar -= ur * x[k].re - ui * x[k].im;
      ai -= ur * x[k].im + ui * x[k].re;
    }
    const AcLanePair& d = row_r[row];
    const Complex x0 = complex_div(ar[0], ai[0], d.re[0], d.im[0]);
    const Complex x1 = complex_div(ar[1], ai[1], d.re[1], d.im[1]);
    x[row].re = V2{x0.real(), x1.real()};
    x[row].im = V2{x0.imag(), x1.imag()};
  }
  h[0] = Complex{x[s.probe].re[0], x[s.probe].im[0]};
  h[1] = Complex{x[s.probe].re[1], x[s.probe].im[1]};
  return true;
}

/// The two first crossings measure_amplifier reads, watched point by point
/// with its own expressions: |H[i-1]| >= target and |H[i]| < target, for
/// the -3 dB target |H[0]|/sqrt(2) and for 1.
class CrossingWatch {
 public:
  /// Adds point `index` (points arrive in order); true once both first
  /// crossings have been seen.
  bool add(std::size_t index, const Complex& h) {
    const double mag = std::abs(h);
    if (index == 0) {
      target3_ = mag / std::sqrt(2.0);
    } else {
      seen3_ = seen3_ || (prev_ >= target3_ && mag < target3_);
      seen_unity_ = seen_unity_ || (prev_ >= 1.0 && mag < 1.0);
    }
    prev_ = mag;
    return seen3_ && seen_unity_;
  }

 private:
  double target3_ = 0.0;
  double prev_ = 0.0;
  bool seen3_ = false;
  bool seen_unity_ = false;
};

}  // namespace

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

ComplexVector AcAnalysis::response(double freq_hz) const {
  BMFUSION_REQUIRE(freq_hz >= 0.0, "frequency must be non-negative");
  const double omega = 2.0 * kPi * freq_hz;
  ComplexMatrix system(n_unknowns_, n_unknowns_);
  Complex* const a = system.data();
  const double* const g = g_.data();
  const double* const c = c_.data();
  const std::size_t total = n_unknowns_ * n_unknowns_;
  for (std::size_t i = 0; i < total; ++i) a[i] = Complex{g[i], omega * c[i]};
  return ComplexLu(system).solve(rhs_);
}

std::vector<Complex> AcAnalysis::sweep(const std::vector<double>& freqs_hz,
                                       NodeId probe) const {
  BMFUSION_REQUIRE(probe == kGround || probe - 1 < n_nodes_,
                   "node id out of range");
  std::vector<Complex> out(freqs_hz.size());
  if (probe == kGround) return out;
  for (std::size_t i = 0; i < freqs_hz.size(); ++i) {
    out[i] = response(freqs_hz[i])[probe - 1];
  }
  return out;
}

void AcAnalysis::amplifier_sweep(const std::vector<double>& freqs_hz,
                                 NodeId probe, AcSweepScratch& scratch,
                                 std::vector<Complex>& out) const {
  BMFUSION_REQUIRE(probe == kGround || probe - 1 < n_nodes_,
                   "node id out of range");
  for (const double f : freqs_hz) {
    BMFUSION_REQUIRE(f >= 0.0, "frequency must be non-negative");
  }
  const std::size_t count = freqs_hz.size();
  if (probe == kGround) {
    out.assign(count, Complex{});
    return;
  }
  const std::size_t n = n_unknowns_;
  scratch.re.resize(n * n);
  scratch.im.resize(n * n);
  scratch.pair.resize(n * n);
  scratch.perm.resize(n);
  scratch.cols.resize(n);
  scratch.x.resize(n);
  scratch.pair_x.resize(n);
  const ProbeSystem system{n, g_.data(), c_.data(), rhs_.data(), probe - 1};
  const auto omega = [&](std::size_t i) { return 2.0 * kPi * freqs_hz[i]; };

  out.clear();
  CrossingWatch watch;
  std::size_t fallbacks = 0;
  const auto solve_one = [&](std::size_t i) {
    out.push_back(solve_probe(system, omega(i), scratch));
    return watch.add(i, out.back());
  };
  // Point 0 alone, then pairs (1, 2), (3, 4), ...: most op-amp dies stop
  // at point 65, which then ends a pair.
  bool done = count == 0 || solve_one(0);
  for (std::size_t i = 1; !done && i < count; i += 2) {
    Complex h[2];
    if (i + 1 == count) {
      done = solve_one(i);
    } else if (solve_probe_pair(system, omega(i), omega(i + 1), scratch, h)) {
      out.push_back(h[0]);
      out.push_back(h[1]);
      done = watch.add(i, h[0]) || watch.add(i + 1, h[1]);
    } else {
      ++fallbacks;
      done = solve_one(i) || solve_one(i + 1);
    }
  }
  BMF_COUNTER_ADD("circuit.ac.points", out.size());
  BMF_COUNTER_ADD("circuit.ac.pair_fallbacks", fallbacks);
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
    std::span<const double> freqs_hz, std::span<const Complex> response,
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
