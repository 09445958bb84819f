// Tests for the DC Newton solver and AC small-signal analysis against
// circuits with closed-form solutions, and for the op-amp's AC sweep kernel
// against the dense ComplexLu solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/montecarlo.hpp"
#include "circuit/netlist.hpp"
#include "circuit/opamp.hpp"
#include "circuit/workspace.hpp"
#include "common/contracts.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::circuit {
namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

MosfetModel nmos_model() {
  MosfetModel m;
  m.type = MosfetType::kNmos;
  m.vth0 = 0.4;
  m.kp = 400e-6;
  m.lambda = 0.1;
  return m;
}

// ---------------------------------------------------------------------- dc

TEST(DcSolver, ResistorDivider) {
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId mid = net.node("mid");
  net.add_voltage_source("V1", in, kGround, 3.0);
  net.add_resistor("R1", in, mid, 1e3);
  net.add_resistor("R2", mid, kGround, 2e3);
  const OperatingPoint op = DcSolver().solve(net);
  // Accuracy limit: the residual gmin leak (1e-12 S) at the mid node.
  EXPECT_NEAR(op.voltage(mid), 2.0, 1e-6);
  // Source current: 1 mA flows out of the source's + terminal, so the
  // branch current (np -> through source -> nn) is -1 mA.
  EXPECT_NEAR(op.source_current(0), -1e-3, 1e-8);
}

TEST(DcSolver, CurrentSourceIntoResistor) {
  Netlist net;
  const NodeId a = net.node("a");
  // 2 mA pulled from ground, pushed into node a, through 1k to ground.
  net.add_current_source("I1", kGround, a, 2e-3);
  net.add_resistor("R1", a, kGround, 1e3);
  const OperatingPoint op = DcSolver().solve(net);
  EXPECT_NEAR(op.voltage(a), 2.0, 1e-6);
}

TEST(DcSolver, VccsAmplifier) {
  // VCCS: i = gm * v(in), pulled from node out into ground; out = -gm*R*vin.
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VIN", in, kGround, 0.1);
  net.add_resistor("RL", out, kGround, 10e3);
  net.add_vccs("G1", out, kGround, in, kGround, 1e-3);
  const OperatingPoint op = DcSolver().solve(net);
  EXPECT_NEAR(op.voltage(out), -1.0, 1e-6);
}

TEST(DcSolver, DiodeConnectedNmosBias) {
  // VDD -- R -- diode NMOS: analytic solve of R*Id + Vgs = VDD.
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId d = net.node("d");
  net.add_voltage_source("VDD", vdd, kGround, 1.1);
  net.add_resistor("R", vdd, d, 27.5e3);
  net.add_mosfet("M1", d, d, kGround, nmos_model(), {3.6e-6, 0.8e-6}, {});
  const OperatingPoint op = DcSolver().solve(net);
  const double vgs = op.voltage(d);
  const double id = (1.1 - vgs) / 27.5e3;
  // The device must satisfy its own square law at the solution.
  const double beta = 400e-6 * 3.6 / 0.8;
  const double expected_id =
      0.5 * beta * (vgs - 0.4) * (vgs - 0.4) * (1.0 + 0.1 * vgs);
  EXPECT_NEAR(id, expected_id, 1e-9);
  EXPECT_GT(vgs, 0.4);  // conducting
  EXPECT_EQ(op.mosfet_op(0).region, MosfetRegion::kSaturation);
}

TEST(DcSolver, CurrentMirrorCopiesCurrent) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId bias = net.node("bias");
  const NodeId out = net.node("out");
  net.add_voltage_source("VDD", vdd, kGround, 1.1);
  net.add_current_source("IREF", vdd, bias, 20e-6);
  net.add_mosfet("M1", bias, bias, kGround, nmos_model(), {2e-6, 0.4e-6}, {});
  net.add_mosfet("M2", out, bias, kGround, nmos_model(), {2e-6, 0.4e-6}, {});
  net.add_resistor("RL", vdd, out, 10e3);
  const OperatingPoint op = DcSolver().solve(net);
  // Mirror output current ~ 20 uA (lambda mismatch gives a few percent).
  const double i_out = (1.1 - op.voltage(out)) / 10e3;
  EXPECT_NEAR(i_out, 20e-6, 2e-6);
}

TEST(DcSolver, FloatingNodeHandledByGmin) {
  // A node connected only through a capacitor is floating at DC; the gmin
  // leak pins it near ground instead of blowing up.
  Netlist net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.add_voltage_source("V1", a, kGround, 1.0);
  net.add_capacitor("C1", a, b, 1e-12);
  const OperatingPoint op = DcSolver().solve(net);
  EXPECT_NEAR(op.voltage(b), 0.0, 1e-6);
}

TEST(DcSolver, EmptyNetlistRejected) {
  Netlist net;
  EXPECT_THROW((void)DcSolver().solve(net), ContractError);
}

TEST(DcSolver, OperatingPointAccessorsValidateIndices) {
  Netlist net;
  const NodeId a = net.node("a");
  net.add_voltage_source("V", a, kGround, 1.0);
  const OperatingPoint op = DcSolver().solve(net);
  EXPECT_EQ(op.voltage(kGround), 0.0);
  EXPECT_THROW((void)op.voltage(99), ContractError);
  EXPECT_THROW((void)op.source_current(5), ContractError);
  EXPECT_THROW((void)op.mosfet_op(0), ContractError);
}

// ---------------------------------------------------------------------- ac

TEST(AcAnalysis, RcLowpassPole) {
  // R = 1k, C = 1uF: f3db = 1/(2 pi R C) ~ 159.15 Hz.
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VIN", in, kGround, 0.0, 1.0);
  net.add_resistor("R", in, out, 1e3);
  net.add_capacitor("C", out, kGround, 1e-6);
  const OperatingPoint op = DcSolver().solve(net);
  const AcAnalysis ac(net, op);

  const double f3 = 1.0 / (2.0 * kPi * 1e3 * 1e-6);
  EXPECT_NEAR(std::abs(ac.response(f3)[out - 1]), 1.0 / std::sqrt(2.0),
              1e-6);
  EXPECT_NEAR(std::abs(ac.response(0.01)[out - 1]), 1.0, 1e-3);
  // Phase at the pole is -45 degrees.
  EXPECT_NEAR(std::arg(ac.response(f3)[out - 1]) * 180.0 / kPi, -45.0,
              0.01);
}

TEST(AcAnalysis, MeasureAmplifierOnSinglePoleResponse) {
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  // Single-pole "amplifier": VCCS with gm = 1e-3 into R = 100k || C = 1nF.
  // DC gain = 100 (40 dB), pole at 1/(2 pi 1e5 1e-9) = 1.59 kHz,
  // unity at ~159 kHz.
  net.add_voltage_source("VIN", in, kGround, 0.0, 1.0);
  net.add_vccs("G", out, kGround, in, kGround, -1e-3);
  net.add_resistor("RL", out, kGround, 1e5);
  net.add_capacitor("CL", out, kGround, 1e-9);
  const OperatingPoint op = DcSolver().solve(net);
  const AcAnalysis ac(net, op);
  const std::vector<double> freqs = log_frequency_grid(10.0, 10e6, 20);
  const AmplifierAcMetrics m = measure_amplifier(freqs, ac.sweep(freqs, out));
  EXPECT_NEAR(m.dc_gain_db, 40.0, 0.05);
  EXPECT_NEAR(m.f3db_hz, 1591.5, 30.0);
  ASSERT_TRUE(m.unity_crossing_found);
  EXPECT_NEAR(m.unity_gain_freq_hz, 159.15e3, 3e3);
  // Single pole: phase margin ~ 90 degrees.
  EXPECT_NEAR(m.phase_margin_deg, 90.0, 2.0);
}

TEST(AcAnalysis, TwoPoleResponseReducesPhaseMargin) {
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId mid = net.node("mid");
  const NodeId out = net.node("out");
  net.add_voltage_source("VIN", in, kGround, 0.0, 1.0);
  net.add_vccs("G1", mid, kGround, in, kGround, -1e-3);
  net.add_resistor("R1", mid, kGround, 1e5);
  net.add_capacitor("C1", mid, kGround, 1e-9);
  // Second stage with a pole right at the first stage's unity frequency.
  net.add_vccs("G2", out, kGround, mid, kGround, -1e-5);
  net.add_resistor("R2", out, kGround, 1e5);
  net.add_capacitor("C2", out, kGround, 1e-11);
  const OperatingPoint op = DcSolver().solve(net);
  const AcAnalysis ac(net, op);
  const std::vector<double> freqs = log_frequency_grid(10.0, 100e6, 20);
  const AmplifierAcMetrics m = measure_amplifier(freqs, ac.sweep(freqs, out));
  ASSERT_TRUE(m.unity_crossing_found);
  EXPECT_LT(m.phase_margin_deg, 80.0);
  EXPECT_GT(m.phase_margin_deg, 10.0);
}

TEST(AcAnalysis, CurrentSourceStimulus) {
  // AC current of 1 mA into 2k resistor -> 2 V at the node.
  Netlist net;
  const NodeId a = net.node("a");
  net.add_current_source("I1", kGround, a, 0.0, 1e-3);
  net.add_resistor("R1", a, kGround, 2e3);
  const OperatingPoint op = DcSolver().solve(net);
  const AcAnalysis ac(net, op);
  EXPECT_NEAR(std::abs(ac.response(100.0)[a - 1]), 2.0, 1e-6);
}

TEST(AcAnalysis, GroundProbeIsZero) {
  Netlist net;
  const NodeId a = net.node("a");
  net.add_voltage_source("V", a, kGround, 0.0, 1.0);
  net.add_resistor("R", a, kGround, 1e3);
  const AcAnalysis ac(net, DcSolver().solve(net));
  const std::vector<linalg::Complex> h = ac.sweep({1e3, 1e4}, kGround);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(std::abs(h[0]), 0.0);
  EXPECT_EQ(std::abs(h[1]), 0.0);
}

TEST(AcAnalysis, NegativeFrequencyRejected) {
  Netlist net;
  const NodeId a = net.node("a");
  net.add_voltage_source("V", a, kGround, 1.0);
  const AcAnalysis ac(net, DcSolver().solve(net));
  EXPECT_THROW((void)ac.response(-1.0), ContractError);
}

TEST(AcAnalysis, LogFrequencyGridProperties) {
  const std::vector<double> freqs = log_frequency_grid(10.0, 1e6, 10);
  EXPECT_DOUBLE_EQ(freqs.front(), 10.0);
  EXPECT_NEAR(freqs.back(), 1e6, 1e-6);
  for (std::size_t i = 1; i < freqs.size(); ++i) {
    EXPECT_GT(freqs[i], freqs[i - 1]);
  }
  EXPECT_EQ(freqs.size(), 51u);  // 5 decades x 10 + 1
  EXPECT_THROW((void)log_frequency_grid(10.0, 1.0, 10), ContractError);
}

TEST(AcAnalysis, MeasureAmplifierInputValidation) {
  EXPECT_THROW(
      (void)measure_amplifier({1.0}, {linalg::Complex{1.0, 0.0}}),
      ContractError);
  EXPECT_THROW((void)measure_amplifier({1.0, 2.0},
                                       {linalg::Complex{1.0, 0.0}}),
               ContractError);
}

// ---------------------------------------------------------------- ac sweep

using linalg::Complex;

/// Bit-pattern equality: distinguishes -0.0 from 0.0 and NaN payloads.
bool same_bits(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

bool same_bits(const Complex& a, const Complex& b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

bool same_bits(const AmplifierAcMetrics& a, const AmplifierAcMetrics& b) {
  return same_bits(a.dc_gain_db, b.dc_gain_db) &&
         same_bits(a.f3db_hz, b.f3db_hz) &&
         same_bits(a.unity_gain_freq_hz, b.unity_gain_freq_hz) &&
         same_bits(a.phase_margin_deg, b.phase_margin_deg) &&
         a.unity_crossing_found == b.unity_crossing_found;
}

std::uint64_t counter_total(const char* name) {
  return telemetry::Registry::instance().counter(name).total();
}

/// amplifier_sweep over `freqs` against the dense reference: every point
/// it solves is sweep()'s point (ComplexLu, the whole system) bit for bit,
/// and measure_amplifier over that prefix is measure_amplifier over the
/// whole reference sweep bit for bit. Returns the points solved.
std::size_t expect_sweep_matches_reference(const AcAnalysis& ac,
                                           const std::vector<double>& freqs,
                                           NodeId probe,
                                           AcSweepScratch& scratch) {
  std::vector<Complex> h;
  const std::uint64_t points_before = counter_total("circuit.ac.points");
  ac.amplifier_sweep(freqs, probe, scratch, h);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("circuit.ac.points") - points_before, h.size());
  }
  const std::vector<Complex> full = ac.sweep(freqs, probe);
  EXPECT_GE(h.size(), 1u);
  EXPECT_LE(h.size(), full.size());
  for (std::size_t i = 0; i < h.size() && i < full.size(); ++i) {
    EXPECT_TRUE(same_bits(h[i], full[i])) << "point " << i;
  }
  std::vector<double> phase;
  const AmplifierAcMetrics ref = measure_amplifier(freqs, full);
  const AmplifierAcMetrics got = measure_amplifier(
      std::span(freqs).first(h.size()), h, phase);
  EXPECT_TRUE(same_bits(ref, got)) << "points solved " << h.size();
  return h.size();
}

/// 1000 dies of one op-amp stage, DC-solved as the Monte Carlo path does
/// (warm-started from the nominal die), each checked against the
/// reference. The unity crossing sits near point 65 of 91, so no die may
/// solve more than 67 points, and over 1000 dies some pairs of
/// frequencies pivot differently and rerun on the one-point kernel.
void expect_opamp_dies_match_reference(DesignStage stage,
                                       std::uint64_t seed) {
  const TwoStageOpAmp bench(stage, ProcessModel::cmos45());
  const OpAmpDesign& design = bench.design();
  const std::vector<double> freqs = log_frequency_grid(
      design.f_start, design.f_stop, design.points_per_decade);
  const DcSolver solver;
  SimWorkspace ws;
  solver.solve_into(bench.build_netlist({}), ws);
  const linalg::Vector warm = ws.state;
  AcSweepScratch scratch;
  const std::uint64_t fallbacks_before =
      counter_total("circuit.ac.pair_fallbacks");
  std::size_t most_points = 0;
  for (std::size_t die = 0; die < 1000; ++die) {
    stats::Xoshiro256pp rng = sample_rng(seed, die);
    const Netlist net = bench.build_netlist(bench.sample_variations(rng));
    solver.solve_into(net, ws, &warm);
    const AcAnalysis ac(net, ws.op);
    const std::size_t points =
        expect_sweep_matches_reference(ac, freqs, net.find_node("out"),
                                       scratch);
    most_points = std::max(most_points, points);
    if (testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing die " << die;
      return;
    }
  }
  EXPECT_LE(most_points, 67u);
  if (telemetry::enabled()) {
    EXPECT_GT(counter_total("circuit.ac.pair_fallbacks") - fallbacks_before,
              0u);
  }
}

TEST(AcSweep, SchematicOpAmpDiesMatchDenseReference) {
  expect_opamp_dies_match_reference(DesignStage::kSchematic, 4801);
}

TEST(AcSweep, PostLayoutOpAmpDiesMatchDenseReference) {
  expect_opamp_dies_match_reference(DesignStage::kPostLayout, 4802);
}

TEST(AcSweep, UnityBeforeMinus3dbSweepsOnToBothCrossings) {
  // gm R = 1.2: |H| falls below 1 at 0.66 fp, before the -3 dB point at
  // fp = 1/(2 pi R C) ~ 159 Hz, so the sweep must not stop at the first
  // crossing it sees.
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VIN", in, kGround, 0.0, 1.0);
  net.add_vccs("G", out, kGround, in, kGround, -1.2e-3);
  net.add_resistor("RL", out, kGround, 1e3);
  net.add_capacitor("CL", out, kGround, 1e-6);
  const AcAnalysis ac(net, DcSolver().solve(net));
  const std::vector<double> freqs = log_frequency_grid(1.0, 1e6, 10);
  AcSweepScratch scratch;
  const std::size_t points =
      expect_sweep_matches_reference(ac, freqs, out, scratch);
  const AmplifierAcMetrics m = measure_amplifier(freqs, ac.sweep(freqs, out));
  ASSERT_TRUE(m.unity_crossing_found);
  EXPECT_LT(m.unity_gain_freq_hz, m.f3db_hz);
  EXPECT_NEAR(m.f3db_hz, 1.0 / (2.0 * kPi * 1e3 * 1e-6), 5.0);
  // Point 23 (~200 Hz) is the first below the -3 dB target; the pair
  // (23, 24) holds it.
  EXPECT_EQ(points, 25u);
}

TEST(AcSweep, NoUnityCrossingSweepsEveryPoint) {
  // Divider with a pole: |H| starts at 0.5 and never crosses 1.
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_voltage_source("VIN", in, kGround, 0.0, 1.0);
  net.add_resistor("R1", in, out, 1e3);
  net.add_resistor("R2", out, kGround, 1e3);
  net.add_capacitor("C", out, kGround, 1e-6);
  const AcAnalysis ac(net, DcSolver().solve(net));
  const std::vector<double> freqs = log_frequency_grid(1.0, 1e6, 10);
  AcSweepScratch scratch;
  EXPECT_EQ(expect_sweep_matches_reference(ac, freqs, out, scratch),
            freqs.size());
  EXPECT_FALSE(measure_amplifier(freqs, ac.sweep(freqs, out))
                   .unity_crossing_found);
}

TEST(AcSweep, SingularSystemThrows) {
  // Two ideal voltage sources in parallel: their branch rows are equal.
  Netlist net;
  const NodeId a = net.node("a");
  net.add_voltage_source("V1", a, kGround, 0.0, 1.0);
  net.add_voltage_source("V2", a, kGround, 0.0, 1.0);
  const OperatingPoint op(linalg::Vector(1), {0.0, 0.0}, {});
  const AcAnalysis ac(net, op);
  const std::vector<double> freqs = log_frequency_grid(10.0, 1e3, 10);
  AcSweepScratch scratch;
  std::vector<Complex> h;
  EXPECT_THROW(ac.amplifier_sweep(freqs, a, scratch, h), NumericError);
  EXPECT_THROW((void)ac.response(10.0), NumericError);
}

}  // namespace
}  // namespace bmfusion::circuit
