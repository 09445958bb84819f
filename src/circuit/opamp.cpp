#include "circuit/opamp.hpp"

#include <cmath>
#include <span>

#include "circuit/ac.hpp"
#include "common/contracts.hpp"

namespace bmfusion::circuit {

using linalg::Vector;

namespace {

/// The AC half of a die, shared by measure() and measure_into(): sweep the
/// output up to the crossings measure_amplifier reads, then measure.
AmplifierAcMetrics measure_ac(const Netlist& net, const OperatingPoint& op,
                              NodeId out, const std::vector<double>& freqs,
                              SimWorkspace& ws) {
  ws.ac.bind(net, op);
  ws.ac.amplifier_sweep(freqs, out, ws.ac_sweep, ws.response);
  const AmplifierAcMetrics m = measure_amplifier(
      std::span(freqs).first(ws.response.size()), ws.response, ws.phase);
  if (!m.unity_crossing_found) {
    throw NumericError("op-amp: unity-gain crossing not found in sweep");
  }
  return m;
}

}  // namespace

OpAmpModels::OpAmpModels() {
  nmos.type = MosfetType::kNmos;
  nmos.vth0 = 0.40;
  nmos.kp = 400e-6;
  nmos.lambda = 0.15;
  nmos.cox_area = 9e-3;
  nmos.cov_width = 2.4e-10;
  nmos.cj_width = 5e-10;

  pmos.type = MosfetType::kPmos;
  pmos.vth0 = 0.42;
  pmos.kp = 180e-6;
  pmos.lambda = 0.18;
  pmos.cox_area = 9e-3;
  pmos.cov_width = 2.4e-10;
  pmos.cj_width = 5e-10;
}

TwoStageOpAmp::TwoStageOpAmp(DesignStage stage, ProcessModel process,
                             OpAmpDesign design, OpAmpParasitics parasitics)
    : stage_(stage),
      process_(std::move(process)),
      design_(design),
      parasitics_(parasitics) {
  BMFUSION_REQUIRE(design_.vdd > 0.0, "supply must be positive");
  BMFUSION_REQUIRE(design_.vcm > 0.0 && design_.vcm < design_.vdd,
                   "common mode must lie inside the supply range");
  freqs_ = log_frequency_grid(design_.f_start, design_.f_stop,
                              design_.points_per_decade);
  // Solve the nominal die once (full continuation ladder) and keep its state
  // vector as the warm start for every Monte Carlo die.
  SimWorkspace ws;
  solver_.solve_into(build_netlist(DieVariations{}), ws);
  warm_state_ = ws.state;
}

std::vector<std::string> TwoStageOpAmp::metric_names() const {
  return {"gain_db", "bw_hz", "power_w", "offset_v", "pm_deg"};
}

TwoStageOpAmp::DieVariations TwoStageOpAmp::sample_variations(
    stats::Xoshiro256pp& rng) const {
  DieVariations v;
  v.global = process_.sample_global(rng);

  const MosfetGeometry* geoms[8] = {&design_.m12, &design_.m12, &design_.m34,
                                    &design_.m34, &design_.m5,  &design_.m6,
                                    &design_.m7,  &design_.m8};
  const MosfetType* types = kDeviceTypes;
  const double inflate =
      stage_ == DesignStage::kPostLayout ? parasitics_.mismatch_inflation
                                         : 1.0;
  for (int i = 0; i < 8; ++i) {
    MosfetVariation dv =
        process_.sample_device(rng, v.global, types[i], *geoms[i]);
    // Post-layout extraction exposes additional mismatch (stress, well
    // proximity); inflate only the local component.
    const double dvth_global = types[i] == MosfetType::kNmos
                                   ? v.global.dvth_nmos
                                   : v.global.dvth_pmos;
    dv.dvth = dvth_global + inflate * (dv.dvth - dvth_global);
    // Stress/WPE shifts live only in the statistical (MC) extracted deck,
    // never in the nominal run (see OpAmpParasitics::lod_dvth).
    if (stage_ == DesignStage::kPostLayout) {
      dv.dvth += parasitics_.lod_dvth[i];
    }
    v.devices[i] = dv;
  }
  v.r_bias_factor = process_.sample_resistor_factor(rng, v.global);
  v.cap_factor = process_.sample_capacitor_factor(rng, v.global);
  return v;
}

Netlist TwoStageOpAmp::build_netlist(const DieVariations& v) const {
  const bool post = stage_ == DesignStage::kPostLayout;
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId inp = net.node("inp");
  const NodeId inn = net.node("inn");
  const NodeId nb = net.node("mirror");   // M1/M3 drains (diode side)
  const NodeId na = net.node("stage1");   // M2/M4 drains (gain side)
  const NodeId tail = net.node("tail");
  const NodeId bias = net.node("bias");
  const NodeId out = net.node("out");
  const NodeId ncz = net.node("cz");      // Cc/Rz midpoint
  // In the extracted view the second-stage drain reaches the load through
  // output wiring resistance; at schematic level they are the same node.
  const NodeId outd = post ? net.node("outd") : out;

  // Lithography bias applies to every device in the extracted view.
  const auto geom = [&](const MosfetGeometry& g) {
    if (!post) return g;
    MosfetGeometry adjusted = g;
    adjusted.w += parasitics_.delta_w;
    adjusted.l += parasitics_.delta_l;
    return adjusted;
  };

  // Supplies and stimulus: INP carries the AC drive; the servo network
  // biases INN at the output's DC value while AC-grounding it.
  net.add_voltage_source("VDD", vdd, kGround, design_.vdd);
  net.add_voltage_source("VINP", inp, kGround, design_.vcm, 1.0);
  net.add_resistor("RSRV", out, inn, design_.r_servo);
  net.add_capacitor("CSRV", inn, kGround, design_.c_servo);

  // Bias generator: R from VDD into diode-connected M8, mirrored to M5/M7.
  net.add_resistor("RB", vdd, bias, design_.r_bias * v.r_bias_factor);
  net.add_mosfet("M8", bias, bias, kGround, models_.nmos, geom(design_.m8),
                 v.devices[7]);
  net.add_mosfet("M5", tail, bias, kGround, models_.nmos, geom(design_.m5),
                 v.devices[4]);
  net.add_mosfet("M7", outd, bias, kGround, models_.nmos, geom(design_.m7),
                 v.devices[6]);

  // Input pair: M1 gate = INN (inverting), M2 gate = INP (non-inverting).
  net.add_mosfet("M1", nb, inn, tail, models_.nmos, geom(design_.m12),
                 v.devices[0]);
  net.add_mosfet("M2", na, inp, tail, models_.nmos, geom(design_.m12),
                 v.devices[1]);

  // PMOS mirror load, diode on the M1 side.
  net.add_mosfet("M3", nb, nb, vdd, models_.pmos, geom(design_.m34),
                 v.devices[2]);
  net.add_mosfet("M4", na, nb, vdd, models_.pmos, geom(design_.m34),
                 v.devices[3]);

  // Second stage: PMOS common source + mirrored sink (added above as M7).
  net.add_mosfet("M6", outd, na, vdd, models_.pmos, geom(design_.m6),
                 v.devices[5]);

  // Compensation and load; capacitors carry the metal variation factor.
  const double cc = design_.cc + (post ? parasitics_.cc_routing : 0.0);
  net.add_capacitor("CC", na, ncz, cc * v.cap_factor);
  net.add_resistor("RZ", ncz, outd, design_.rz);
  net.add_capacitor("CL", out, kGround, design_.cl * v.cap_factor);

  if (post) {
    net.add_resistor("RWIRE", outd, out, parasitics_.r_out_wire);
    net.set_initial_guess(outd, design_.vcm);
    const double pf = v.cap_factor;
    net.add_capacitor("CPA", na, kGround, parasitics_.c_node_a * pf);
    net.add_capacitor("CPO", out, kGround, parasitics_.c_out * pf);
    net.add_capacitor("CPT", tail, kGround, parasitics_.c_tail * pf);
    net.add_capacitor("CPI1", inp, kGround, parasitics_.c_gate_in * pf);
    net.add_capacitor("CPI2", inn, kGround, parasitics_.c_gate_in * pf);
    net.add_capacitor("CPB", bias, kGround, parasitics_.c_bias * pf);
  }

  // Newton starting point (typical bias values); speeds up and robustifies
  // convergence across process corners.
  net.set_initial_guess(vdd, design_.vdd);
  net.set_initial_guess(inp, design_.vcm);
  net.set_initial_guess(inn, design_.vcm);
  net.set_initial_guess(out, design_.vcm);
  net.set_initial_guess(ncz, design_.vcm);
  net.set_initial_guess(bias, 0.55);
  net.set_initial_guess(tail, 0.12);
  net.set_initial_guess(nb, design_.vdd - 0.57);
  net.set_initial_guess(na, design_.vdd - 0.57);
  return net;
}

Vector TwoStageOpAmp::measure(const DieVariations& variations) const {
  const Netlist net = build_netlist(variations);
  SimWorkspace ws;
  solver_.solve_into(net, ws, &warm_state_);
  const OperatingPoint& op = ws.op;

  const NodeId out = net.find_node("out");
  // VDD is voltage source 0; power it delivers is -V * I_branch.
  const double power = -design_.vdd * op.source_current(0);
  const double offset = op.voltage(out) - design_.vcm;
  const AmplifierAcMetrics m = measure_ac(net, op, out, freqs_, ws);

  Vector metrics(5);
  metrics[0] = m.dc_gain_db;
  metrics[1] = m.f3db_hz;
  metrics[2] = power;
  metrics[3] = offset;
  metrics[4] = m.phase_margin_deg;
  return metrics;
}

namespace {

/// Per-workspace measurement fixture: the netlist topology is built once and
/// only the per-die element values are rewritten between samples. Indices of
/// the varying elements are resolved by name when the cache is built, so the
/// rewrite loop never searches.
struct OpAmpNetCache {
  Netlist net;
  NodeId out = kGround;
  std::size_t rb = 0;  ///< RB resistor index
  std::size_t cc = 0;  ///< CC capacitor index
  std::size_t cl = 0;  ///< CL capacitor index
  /// Post-layout parasitic capacitors as (element index, base value); the
  /// per-die value is base * cap_factor, matching build_netlist exactly.
  std::vector<std::pair<std::size_t, double>> parasitic_caps;
  std::size_t mosfet_of_device[8] = {};  ///< element index of M1..M8
};

}  // namespace

void TwoStageOpAmp::measure_into(const DieVariations& variations,
                                 SimWorkspace& ws) const {
  const bool post = stage_ == DesignStage::kPostLayout;
  OpAmpNetCache& cache = ws.cache_as<OpAmpNetCache>(this, [&] {
    OpAmpNetCache c;
    c.net = build_netlist(variations);
    c.out = c.net.find_node("out");
    const auto& resistors = c.net.resistors();
    for (std::size_t i = 0; i < resistors.size(); ++i) {
      if (resistors[i].name == "RB") c.rb = i;
    }
    const auto& capacitors = c.net.capacitors();
    for (std::size_t i = 0; i < capacitors.size(); ++i) {
      const std::string& name = capacitors[i].name;
      if (name == "CC") {
        c.cc = i;
      } else if (name == "CL") {
        c.cl = i;
      } else if (name.size() > 2 && name[1] == 'P') {
        const double base = name == "CPA"   ? parasitics_.c_node_a
                            : name == "CPO" ? parasitics_.c_out
                            : name == "CPT" ? parasitics_.c_tail
                            : name == "CPB" ? parasitics_.c_bias
                                            : parasitics_.c_gate_in;
        c.parasitic_caps.emplace_back(i, base);
      }
    }
    const auto& mosfets = c.net.mosfets();
    BMFUSION_REQUIRE(mosfets.size() == 8,
                     "op-amp netlist must contain eight devices");
    for (std::size_t i = 0; i < mosfets.size(); ++i) {
      const auto device =
          static_cast<std::size_t>(mosfets[i].name[1] - '1');
      BMFUSION_REQUIRE(device < 8, "unexpected op-amp device name");
      c.mosfet_of_device[device] = i;
    }
    return c;
  });

  // Rewrite only the values that depend on this die; the topology, device
  // geometry and fixture elements never change between samples.
  Netlist& net = cache.net;
  net.set_resistance(cache.rb, design_.r_bias * variations.r_bias_factor);
  const double cc = design_.cc + (post ? parasitics_.cc_routing : 0.0);
  net.set_capacitance(cache.cc, cc * variations.cap_factor);
  net.set_capacitance(cache.cl, design_.cl * variations.cap_factor);
  for (const auto& [index, base] : cache.parasitic_caps) {
    net.set_capacitance(index, base * variations.cap_factor);
  }
  for (std::size_t k = 0; k < 8; ++k) {
    net.set_mosfet_variation(cache.mosfet_of_device[k],
                             variations.devices[k]);
  }

  solver_.solve_into(net, ws, &warm_state_);
  const double power = -design_.vdd * ws.op.source_current(0);
  const double offset = ws.op.voltage(cache.out) - design_.vcm;

  const AmplifierAcMetrics m = measure_ac(net, ws.op, cache.out, freqs_, ws);

  ws.metrics.resize(5);
  ws.metrics[0] = m.dc_gain_db;
  ws.metrics[1] = m.f3db_hz;
  ws.metrics[2] = power;
  ws.metrics[3] = offset;
  ws.metrics[4] = m.phase_margin_deg;
}

Vector TwoStageOpAmp::nominal_metrics() const {
  return measure(DieVariations{});
}

Vector TwoStageOpAmp::sample_metrics(stats::Xoshiro256pp& rng) const {
  return measure(sample_variations(rng));
}

const Vector& TwoStageOpAmp::sample_metrics(stats::Xoshiro256pp& rng,
                                            SimWorkspace& ws) const {
  measure_into(sample_variations(rng), ws);
  return ws.metrics;
}

}  // namespace bmfusion::circuit
