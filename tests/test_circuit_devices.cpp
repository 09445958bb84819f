// Tests for the MOSFET model (square law and EKV), netlist construction and
// the process model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/netlist.hpp"
#include "circuit/opamp.hpp"
#include "circuit/process.hpp"
#include "common/contracts.hpp"
#include "stats/rng.hpp"

namespace bmfusion::circuit {
namespace {

MosfetModel nmos_model() {
  MosfetModel m;
  m.type = MosfetType::kNmos;
  m.vth0 = 0.4;
  m.kp = 400e-6;
  m.lambda = 0.1;
  return m;
}

MosfetModel pmos_model() {
  MosfetModel m = nmos_model();
  m.type = MosfetType::kPmos;
  m.vth0 = 0.42;
  m.kp = 180e-6;
  return m;
}

constexpr MosfetGeometry kGeom{2e-6, 0.2e-6};  // W/L = 10

// ------------------------------------------------------------------ mosfet

TEST(Mosfet, CutoffBelowThreshold) {
  const MosfetOp op = evaluate_mosfet(nmos_model(), kGeom, {}, 0.3, 1.0, 0.0);
  EXPECT_EQ(op.region, MosfetRegion::kCutoff);
  EXPECT_EQ(op.id, 0.0);
  EXPECT_EQ(op.a_g, 0.0);
}

TEST(Mosfet, SaturationCurrentMatchesSquareLaw) {
  // vgs = 0.6, vds = 1.0 >= vov = 0.2 -> saturation.
  const MosfetOp op = evaluate_mosfet(nmos_model(), kGeom, {}, 0.6, 1.0, 0.0);
  EXPECT_EQ(op.region, MosfetRegion::kSaturation);
  const double beta = 400e-6 * 10.0;
  const double expected = 0.5 * beta * 0.04 * (1.0 + 0.1 * 1.0);
  EXPECT_NEAR(op.id, expected, 1e-12);
}

TEST(Mosfet, TriodeCurrentMatchesSquareLaw) {
  // vgs = 1.0 (vov = 0.6), vds = 0.2 < vov -> triode.
  const MosfetOp op = evaluate_mosfet(nmos_model(), kGeom, {}, 1.0, 0.2, 0.0);
  EXPECT_EQ(op.region, MosfetRegion::kTriode);
  const double beta = 400e-6 * 10.0;
  const double expected =
      beta * (0.6 * 0.2 - 0.5 * 0.04) * (1.0 + 0.1 * 0.2);
  EXPECT_NEAR(op.id, expected, 1e-12);
}

TEST(Mosfet, CurrentContinuousAtRegionBoundary) {
  // At vds = vov the triode and saturation formulas agree.
  const double vov = 0.2;
  const MosfetOp sat = evaluate_mosfet(nmos_model(), kGeom, {}, 0.4 + vov,
                                       vov + 1e-9, 0.0);
  const MosfetOp tri = evaluate_mosfet(nmos_model(), kGeom, {}, 0.4 + vov,
                                       vov - 1e-9, 0.0);
  EXPECT_NEAR(sat.id, tri.id, 1e-10);
}

TEST(Mosfet, ReverseOperationIsAntisymmetric) {
  // Swapping drain and source negates the current (ignoring lambda asymmetry
  // the square law is symmetric; with same vch magnitude this holds).
  const MosfetOp fwd = evaluate_mosfet(nmos_model(), kGeom, {}, 0.8, 0.3, 0.0);
  const MosfetOp rev = evaluate_mosfet(nmos_model(), kGeom, {}, 0.8, 0.0, 0.3);
  EXPECT_NEAR(fwd.id, -rev.id, 1e-12);
}

TEST(Mosfet, PmosConductsWithNegativeGate) {
  // PMOS source at 1.1 V, gate at 0.5 V -> vsg = 0.6 > vth: conducting,
  // current flows source->drain so drain current is negative.
  const MosfetOp op =
      evaluate_mosfet(pmos_model(), kGeom, {}, 0.5, 0.0, 1.1);
  EXPECT_EQ(op.region, MosfetRegion::kSaturation);
  EXPECT_LT(op.id, 0.0);
}

TEST(Mosfet, PmosCutoffWithHighGate) {
  const MosfetOp op =
      evaluate_mosfet(pmos_model(), kGeom, {}, 1.1, 0.0, 1.1);
  EXPECT_EQ(op.region, MosfetRegion::kCutoff);
  EXPECT_EQ(op.id, 0.0);
}

TEST(Mosfet, DerivativesMatchFiniteDifferences) {
  // Check a_g, a_d, a_s against central differences in all four cases:
  // NMOS/PMOS x forward/reverse.
  const double h = 1e-7;
  struct Case {
    MosfetModel model;
    double vg, vd, vs;
  };
  const Case cases[] = {
      {nmos_model(), 0.7, 0.8, 0.0},   // NMOS saturation
      {nmos_model(), 0.9, 0.1, 0.0},   // NMOS triode
      {nmos_model(), 0.9, 0.0, 0.25},  // NMOS reversed
      {pmos_model(), 0.3, 0.2, 1.1},   // PMOS saturation
      {pmos_model(), 0.3, 1.0, 1.1},   // PMOS triode
      {pmos_model(), 0.3, 1.1, 0.2},   // PMOS reversed
  };
  for (const Case& c : cases) {
    const MosfetOp op =
        evaluate_mosfet(c.model, kGeom, {}, c.vg, c.vd, c.vs);
    const auto id_at = [&](double vg, double vd, double vs) {
      return evaluate_mosfet(c.model, kGeom, {}, vg, vd, vs).id;
    };
    const double fd_g =
        (id_at(c.vg + h, c.vd, c.vs) - id_at(c.vg - h, c.vd, c.vs)) / (2 * h);
    const double fd_d =
        (id_at(c.vg, c.vd + h, c.vs) - id_at(c.vg, c.vd - h, c.vs)) / (2 * h);
    const double fd_s =
        (id_at(c.vg, c.vd, c.vs + h) - id_at(c.vg, c.vd, c.vs - h)) / (2 * h);
    EXPECT_NEAR(op.a_g, fd_g, 1e-6) << "a_g mismatch";
    EXPECT_NEAR(op.a_d, fd_d, 1e-6) << "a_d mismatch";
    EXPECT_NEAR(op.a_s, fd_s, 1e-6) << "a_s mismatch";
    EXPECT_NEAR(op.a_s, -(op.a_g + op.a_d), 1e-15);
  }
}

TEST(Mosfet, VariationShiftsThresholdAndGain) {
  MosfetVariation v;
  v.dvth = 0.05;
  const MosfetOp shifted =
      evaluate_mosfet(nmos_model(), kGeom, v, 0.6, 1.0, 0.0);
  const MosfetOp nominal =
      evaluate_mosfet(nmos_model(), kGeom, {}, 0.6, 1.0, 0.0);
  EXPECT_LT(shifted.id, nominal.id);  // higher vth -> less current

  MosfetVariation g;
  g.kp_factor = 1.2;
  const MosfetOp boosted =
      evaluate_mosfet(nmos_model(), kGeom, g, 0.6, 1.0, 0.0);
  EXPECT_NEAR(boosted.id, 1.2 * nominal.id, 1e-15);
}

TEST(Mosfet, CapacitancesFollowRegion) {
  const MosfetOp sat = evaluate_mosfet(nmos_model(), kGeom, {}, 0.6, 1.0, 0.0);
  const MosfetOp tri = evaluate_mosfet(nmos_model(), kGeom, {}, 1.0, 0.1, 0.0);
  const MosfetOp off = evaluate_mosfet(nmos_model(), kGeom, {}, 0.0, 1.0, 0.0);
  // Saturation: cgs dominated by 2/3 channel; cgd only overlap.
  EXPECT_GT(sat.cgs, sat.cgd);
  // Triode: symmetric split.
  EXPECT_NEAR(tri.cgs, tri.cgd, 1e-18);
  // Cutoff: only overlap on both.
  EXPECT_NEAR(off.cgs, off.cgd, 1e-20);
  EXPECT_LT(off.cgs, sat.cgs);
}

TEST(Mosfet, InvalidInputsRejected) {
  EXPECT_THROW(
      (void)evaluate_mosfet(nmos_model(), {0.0, 1e-7}, {}, 0, 0, 0),
      ContractError);
  MosfetVariation bad;
  bad.kp_factor = 0.0;
  EXPECT_THROW((void)evaluate_mosfet(nmos_model(), kGeom, bad, 0, 0, 0),
               ContractError);
}

TEST(Mosfet, RegionNames) {
  EXPECT_EQ(to_string(MosfetRegion::kCutoff), "cutoff");
  EXPECT_EQ(to_string(MosfetRegion::kTriode), "triode");
  EXPECT_EQ(to_string(MosfetRegion::kSaturation), "saturation");
}

// --------------------------------------------------------------------- ekv

MosfetModel ekv_model() {
  MosfetModel m;
  m.equation = MosfetEquation::kEkv;
  m.vth0 = 0.4;
  m.kp = 400e-6;
  m.lambda = 0.1;
  m.slope_n = 1.3;
  return m;
}

TEST(Ekv, StrongInversionMatchesScaledSquareLaw) {
  // Deep strong inversion & saturation: Id -> beta/(2n) (vgs - vth)^2 clm.
  const MosfetModel m = ekv_model();
  const double vgs = 1.2;  // vov = 0.8 >> n vt
  const double vds = 1.5;
  const MosfetOp op = evaluate_mosfet(m, kGeom, {}, vgs, vds, 0.0);
  const double beta = m.kp * 10.0;
  const double expected =
      0.5 * beta / m.slope_n * 0.8 * 0.8 * (1.0 + m.lambda * vds);
  EXPECT_NEAR(op.id, expected, 0.03 * expected);
}

TEST(Ekv, SubthresholdSlopeMatchesTheory) {
  // Weak inversion: Id proportional to exp(vgs/(n vt)); one n*vt*ln(10)
  // of gate drive changes the current by 10x.
  const MosfetModel m = ekv_model();
  // Deep weak inversion (vov ~ -0.25 V, several n*vt below threshold) so
  // softplus^2 is in its exponential asymptote.
  const double decade = m.slope_n * m.thermal_v * std::log(10.0);
  const double i1 = evaluate_mosfet(m, kGeom, {}, 0.15, 0.5, 0.0).id;
  const double i2 =
      evaluate_mosfet(m, kGeom, {}, 0.15 + decade, 0.5, 0.0).id;
  EXPECT_GT(i1, 0.0);  // conducts below threshold (square law would not)
  EXPECT_NEAR(i2 / i1, 10.0, 0.5);
}

TEST(Ekv, SquareLawHasNoSubthresholdCurrent) {
  MosfetModel m = ekv_model();
  m.equation = MosfetEquation::kSquareLaw;
  EXPECT_EQ(evaluate_mosfet(m, kGeom, {}, 0.25, 0.5, 0.0).id, 0.0);
}

TEST(Ekv, CurrentIsSmoothAcrossThreshold) {
  // Scan vgs through vth: the EKV current and its finite-difference gm must
  // show no kinks (relative jump bounded), unlike the square law whose gm
  // jumps at vov = 0.
  const MosfetModel m = ekv_model();
  double prev_gm = -1.0;
  for (double vgs = 0.30; vgs <= 0.50; vgs += 0.005) {
    const MosfetOp op = evaluate_mosfet(m, kGeom, {}, vgs, 0.8, 0.0);
    EXPECT_GT(op.id, 0.0);
    EXPECT_GT(op.a_g, 0.0);
    if (prev_gm > 0.0) {
      EXPECT_LT(op.a_g / prev_gm, 1.6);  // smooth growth, no jump
    }
    prev_gm = op.a_g;
  }
}

TEST(Ekv, DerivativesMatchFiniteDifferences) {
  const MosfetModel m = ekv_model();
  const double h = 1e-7;
  const struct {
    double vg, vd, vs;
  } cases[] = {
      {0.7, 0.9, 0.0},   // strong inversion saturation
      {0.9, 0.1, 0.0},   // triode
      {0.35, 0.5, 0.0},  // subthreshold
      {0.8, 0.0, 0.3},   // reverse
  };
  for (const auto& c : cases) {
    const MosfetOp op = evaluate_mosfet(m, kGeom, {}, c.vg, c.vd, c.vs);
    const auto id_at = [&](double vg, double vd, double vs) {
      return evaluate_mosfet(m, kGeom, {}, vg, vd, vs).id;
    };
    const double fd_g =
        (id_at(c.vg + h, c.vd, c.vs) - id_at(c.vg - h, c.vd, c.vs)) / (2 * h);
    const double fd_d =
        (id_at(c.vg, c.vd + h, c.vs) - id_at(c.vg, c.vd - h, c.vs)) / (2 * h);
    const double scale = std::max(1e-9, std::fabs(fd_g));
    EXPECT_NEAR(op.a_g, fd_g, 1e-5 * scale + 1e-12);
    EXPECT_NEAR(op.a_d, fd_d, 1e-5 * std::max(1e-9, std::fabs(fd_d)) + 1e-12);
    EXPECT_NEAR(op.a_s, -(op.a_g + op.a_d), 1e-15);
  }
}

TEST(Ekv, ZeroVdsGivesZeroCurrent) {
  const MosfetOp op = evaluate_mosfet(ekv_model(), kGeom, {}, 0.8, 0.3, 0.3);
  EXPECT_NEAR(op.id, 0.0, 1e-15);
}

TEST(Ekv, ReverseOperationAntisymmetric) {
  const MosfetModel m = ekv_model();
  const double fwd = evaluate_mosfet(m, kGeom, {}, 0.8, 0.3, 0.0).id;
  const double rev = evaluate_mosfet(m, kGeom, {}, 0.8, 0.0, 0.3).id;
  EXPECT_NEAR(fwd, -rev, 1e-12);
}

TEST(Ekv, DiodeConnectedBiasSolvesWithNewton) {
  // The smooth equation must work inside the DC solver.
  Netlist net;
  const auto vdd = net.node("vdd");
  const auto d = net.node("d");
  net.add_voltage_source("VDD", vdd, kGround, 1.1);
  net.add_resistor("R", vdd, d, 50e3);
  net.add_mosfet("M1", d, d, kGround, ekv_model(), kGeom, {});
  const OperatingPoint op = DcSolver().solve(net);
  const double vgs = op.voltage(d);
  EXPECT_GT(vgs, 0.3);
  EXPECT_LT(vgs, 0.7);
  // KCL: resistor current equals device current.
  EXPECT_NEAR((1.1 - vgs) / 50e3, op.mosfet_op(0).id, 1e-9);
}

TEST(NumericsCrossCheck, EkvAndSquareLawAgreeOnStrongInversionGain) {
  // A resistor-loaded CS stage biased deep in strong inversion: the two
  // equations should predict gains within ~n (slope factor) bookkeeping.
  const auto gain_with = [&](MosfetEquation eq, double kp) {
    Netlist net;
    const NodeId vdd = net.node("vdd");
    const NodeId in = net.node("in");
    const NodeId out = net.node("out");
    net.add_voltage_source("VDD", vdd, kGround, 2.5);
    net.add_voltage_source("VIN", in, kGround, 1.2, 1.0);
    net.add_resistor("RL", vdd, out, 5e3);
    MosfetModel m;
    m.equation = eq;
    m.vth0 = 0.4;
    m.kp = kp;
    m.lambda = 0.05;
    net.add_mosfet("M1", out, in, kGround, m, {4e-6, 0.4e-6}, {});
    const OperatingPoint op = DcSolver().solve(net);
    const AcAnalysis ac(net, op);
    return std::abs(ac.response(1e3)[out - 1]);
  };
  // Compensate the EKV's 1/n current scaling by boosting kp by n, so both
  // devices carry comparable current; the gains should then agree within
  // ~20% (remaining difference: moderate-inversion softening).
  const double g_sq = gain_with(MosfetEquation::kSquareLaw, 400e-6);
  const double g_ekv = gain_with(MosfetEquation::kEkv, 400e-6 * 1.3);
  EXPECT_NEAR(g_ekv / g_sq, 1.0, 0.2);
}

// ----------------------------------------------------------------- netlist

TEST(Netlist, NodeCreationAndLookup) {
  Netlist net;
  const NodeId a = net.node("a");
  EXPECT_EQ(a, net.node("a"));  // idempotent
  EXPECT_EQ(net.node("gnd"), kGround);
  EXPECT_EQ(net.node("0"), kGround);
  EXPECT_EQ(net.find_node("a"), a);
  EXPECT_THROW((void)net.find_node("missing"), ContractError);
  EXPECT_EQ(net.node_name(a), "a");
  EXPECT_EQ(net.node_count(), 1u);
}

TEST(Netlist, ElementValidation) {
  Netlist net;
  const NodeId a = net.node("a");
  EXPECT_THROW(net.add_resistor("R1", a, a, 1e3), ContractError);
  EXPECT_THROW(net.add_resistor("R1", a, kGround, 0.0), ContractError);
  EXPECT_THROW(net.add_capacitor("C1", a, kGround, -1e-12), ContractError);
  EXPECT_THROW(net.add_voltage_source("V1", a, a, 1.0), ContractError);
  net.add_resistor("R1", a, kGround, 1e3);
  EXPECT_EQ(net.resistors().size(), 1u);
}

TEST(Netlist, UnknownCountIncludesSourceBranches) {
  Netlist net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.add_voltage_source("V1", a, kGround, 1.0);
  net.add_voltage_source("V2", b, kGround, 2.0);
  EXPECT_EQ(net.unknown_count(), 4u);  // 2 nodes + 2 branches
}

TEST(Netlist, InitialGuessOnGroundIgnored) {
  Netlist net;
  net.node("a");
  net.set_initial_guess(kGround, 5.0);
  EXPECT_TRUE(net.initial_guesses().empty());
}

// ----------------------------------------------------------------- process

TEST(Process, PelgromScalingWithArea) {
  const ProcessModel pm = ProcessModel::cmos45();
  const double small = pm.local_vth_sigma({1e-6, 0.1e-6});
  const double large = pm.local_vth_sigma({2e-6, 0.2e-6});
  EXPECT_NEAR(small / large, 2.0, 1e-12);  // 4x area -> half sigma
}

TEST(Process, GlobalVariationStatistics) {
  const ProcessModel pm = ProcessModel::cmos45();
  stats::Xoshiro256pp rng(40);
  double sum_vth = 0.0, sum_vth2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const GlobalVariation g = pm.sample_global(rng);
    sum_vth += g.dvth_nmos;
    sum_vth2 += g.dvth_nmos * g.dvth_nmos;
    EXPECT_GT(g.kp_factor_nmos, 0.0);
    EXPECT_GT(g.res_factor, 0.0);
    EXPECT_GT(g.cap_factor, 0.0);
  }
  const double mean = sum_vth / kN;
  const double sd = std::sqrt(sum_vth2 / kN - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.001);
  EXPECT_NEAR(sd, pm.statistics().sigma_vth_global, 0.002);
}

TEST(Process, DeviceVariationCombinesGlobalAndLocal) {
  const ProcessModel pm = ProcessModel::cmos45();
  stats::Xoshiro256pp rng(41);
  GlobalVariation g;
  g.dvth_nmos = 0.1;  // huge global shift
  double sum = 0.0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    sum += pm.sample_device(rng, g, MosfetType::kNmos, {1e-6, 1e-6}).dvth;
  }
  EXPECT_NEAR(sum / kN, 0.1, 0.001);  // centered on the global component
}

TEST(Process, PmosUsesItsOwnGlobalComponent) {
  const ProcessModel pm = ProcessModel::cmos45();
  stats::Xoshiro256pp rng(42);
  GlobalVariation g;
  g.dvth_nmos = 0.1;
  g.dvth_pmos = -0.1;
  double sum = 0.0;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    sum += pm.sample_device(rng, g, MosfetType::kPmos, {1e-6, 1e-6}).dvth;
  }
  EXPECT_NEAR(sum / kN, -0.1, 0.001);
}

TEST(Process, PassiveFactorsCenteredOnGlobal) {
  const ProcessModel pm = ProcessModel::cmos180();
  stats::Xoshiro256pp rng(43);
  GlobalVariation g;
  g.res_factor = 1.1;
  g.cap_factor = 0.9;
  double sum_r = 0.0, sum_c = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum_r += pm.sample_resistor_factor(rng, g);
    sum_c += pm.sample_capacitor_factor(rng, g);
  }
  EXPECT_NEAR(sum_r / kN, 1.1, 0.005);
  EXPECT_NEAR(sum_c / kN, 0.9, 0.005);
}

TEST(Process, NamedTechnologiesDiffer) {
  EXPECT_GT(ProcessModel::cmos180().statistics().avt,
            ProcessModel::cmos45().statistics().avt);
}

TEST(ProcessCorners, TypicalIsNeutral) {
  const GlobalVariation g =
      ProcessModel::cmos45().corner(ProcessCorner::kTypical);
  EXPECT_EQ(g.dvth_nmos, 0.0);
  EXPECT_EQ(g.kp_factor_pmos, 1.0);
  EXPECT_EQ(g.res_factor, 1.0);
}

TEST(ProcessCorners, FastLowersThresholdRaisesDrive) {
  const ProcessModel pm = ProcessModel::cmos45();
  const GlobalVariation ff = pm.corner(ProcessCorner::kFastFast, 3.0);
  EXPECT_NEAR(ff.dvth_nmos, -3.0 * pm.statistics().sigma_vth_global, 1e-12);
  EXPECT_GT(ff.kp_factor_nmos, 1.0);
  const GlobalVariation ss = pm.corner(ProcessCorner::kSlowSlow, 3.0);
  EXPECT_GT(ss.dvth_nmos, 0.0);
  EXPECT_LT(ss.kp_factor_pmos, 1.0);
}

TEST(ProcessCorners, SkewCornersSplitPolarities) {
  const GlobalVariation fs =
      ProcessModel::cmos45().corner(ProcessCorner::kFastSlow, 3.0);
  EXPECT_LT(fs.dvth_nmos, 0.0);  // NMOS fast
  EXPECT_GT(fs.dvth_pmos, 0.0);  // PMOS slow
}

TEST(ProcessCorners, CornersBracketOpAmpPower) {
  // FF must burn more power than TT, SS less (drive strength ordering).
  const OpAmpDesign design;
  const ProcessModel pm = ProcessModel::cmos45();
  const TwoStageOpAmp amp(DesignStage::kSchematic, pm, design);
  const auto metrics_at = [&](ProcessCorner c) {
    TwoStageOpAmp::DieVariations v;
    const GlobalVariation g = pm.corner(c, 3.0);
    for (int i = 0; i < 8; ++i) {
      const bool is_nmos = i != 2 && i != 3 && i != 5;
      v.devices[i].dvth = is_nmos ? g.dvth_nmos : g.dvth_pmos;
      v.devices[i].kp_factor =
          is_nmos ? g.kp_factor_nmos : g.kp_factor_pmos;
    }
    return amp.measure(v);
  };
  const double p_tt = metrics_at(ProcessCorner::kTypical)[2];
  const double p_ff = metrics_at(ProcessCorner::kFastFast)[2];
  const double p_ss = metrics_at(ProcessCorner::kSlowSlow)[2];
  EXPECT_GT(p_ff, p_tt);
  EXPECT_LT(p_ss, p_tt);
}

}  // namespace
}  // namespace bmfusion::circuit
