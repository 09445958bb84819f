#include "circuit/netlist.hpp"

#include "common/contracts.hpp"

namespace bmfusion::circuit {

NodeId Netlist::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const NodeId id = names_.size();
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

NodeId Netlist::find_node(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = ids_.find(name);
  BMFUSION_REQUIRE(it != ids_.end(), "unknown node name: " + name);
  return it->second;
}

const std::string& Netlist::node_name(NodeId id) const {
  BMFUSION_REQUIRE(id < names_.size(), "node id out of range");
  return names_[id];
}

void Netlist::check_node(NodeId id) const {
  BMFUSION_REQUIRE(id < names_.size(),
                   "element references a node that was never created");
}

void Netlist::add_resistor(const std::string& name, NodeId n1, NodeId n2,
                           double resistance) {
  check_node(n1);
  check_node(n2);
  BMFUSION_REQUIRE(resistance > 0.0, "resistance must be positive: " + name);
  BMFUSION_REQUIRE(n1 != n2, "resistor shorts a node to itself: " + name);
  resistors_.push_back(Resistor{name, n1, n2, resistance});
}

void Netlist::add_capacitor(const std::string& name, NodeId n1, NodeId n2,
                            double capacitance) {
  check_node(n1);
  check_node(n2);
  BMFUSION_REQUIRE(capacitance >= 0.0,
                   "capacitance must be non-negative: " + name);
  BMFUSION_REQUIRE(n1 != n2, "capacitor shorts a node to itself: " + name);
  capacitors_.push_back(Capacitor{name, n1, n2, capacitance});
}

std::size_t Netlist::add_voltage_source(const std::string& name, NodeId np,
                                        NodeId nn, double dc, double ac) {
  check_node(np);
  check_node(nn);
  BMFUSION_REQUIRE(np != nn, "voltage source shorts a node to itself: " + name);
  voltage_sources_.push_back(VoltageSource{name, np, nn, dc, ac});
  return voltage_sources_.size() - 1;
}

void Netlist::add_current_source(const std::string& name, NodeId np, NodeId nn,
                                 double dc, double ac) {
  check_node(np);
  check_node(nn);
  current_sources_.push_back(CurrentSource{name, np, nn, dc, ac});
}

void Netlist::add_vccs(const std::string& name, NodeId np, NodeId nn,
                       NodeId cp, NodeId cn, double gm) {
  check_node(np);
  check_node(nn);
  check_node(cp);
  check_node(cn);
  vccs_.push_back(Vccs{name, np, nn, cp, cn, gm});
}

void Netlist::add_mosfet(const std::string& name, NodeId drain, NodeId gate,
                         NodeId source, const MosfetModel& model,
                         const MosfetGeometry& geometry,
                         const MosfetVariation& variation) {
  check_node(drain);
  check_node(gate);
  check_node(source);
  BMFUSION_REQUIRE(geometry.w > 0.0 && geometry.l > 0.0,
                   "mosfet geometry must be positive: " + name);
  mosfets_.push_back(
      MosfetInstance{name, drain, gate, source, model, geometry, variation});
}

void Netlist::set_resistance(std::size_t index, double resistance) {
  BMFUSION_REQUIRE(index < resistors_.size(), "resistor index out of range");
  BMFUSION_REQUIRE(resistance > 0.0, "resistance must be positive: " +
                                         resistors_[index].name);
  resistors_[index].resistance = resistance;
}

void Netlist::set_capacitance(std::size_t index, double capacitance) {
  BMFUSION_REQUIRE(index < capacitors_.size(),
                   "capacitor index out of range");
  BMFUSION_REQUIRE(capacitance >= 0.0, "capacitance must be non-negative: " +
                                           capacitors_[index].name);
  capacitors_[index].capacitance = capacitance;
}

void Netlist::set_mosfet_variation(std::size_t index,
                                   const MosfetVariation& v) {
  BMFUSION_REQUIRE(index < mosfets_.size(), "mosfet index out of range");
  mosfets_[index].variation = v;
}

void Netlist::set_initial_guess(NodeId node_id, double voltage) {
  check_node(node_id);
  if (node_id == kGround) return;
  initial_guesses_[node_id] = voltage;
}

}  // namespace bmfusion::circuit
