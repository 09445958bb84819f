// Circuit netlist: nodes plus R / C / V / I / VCCS / MOSFET elements.
//
// Node 0 is ground. The netlist is a passive description; DcSolver and
// AcAnalysis interpret it. Elements are stored by kind in plain vectors —
// the simulator walks them directly, no virtual dispatch.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/mosfet.hpp"

namespace bmfusion::circuit {

/// Node handle; 0 is ground.
using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

struct Resistor {
  std::string name;
  NodeId n1 = kGround;
  NodeId n2 = kGround;
  double resistance = 0.0;
};

struct Capacitor {
  std::string name;
  NodeId n1 = kGround;
  NodeId n2 = kGround;
  double capacitance = 0.0;
};

/// Independent voltage source; positive branch current flows from `np`
/// through the source to `nn`.
struct VoltageSource {
  std::string name;
  NodeId np = kGround;
  NodeId nn = kGround;
  double dc = 0.0;
  double ac = 0.0;  ///< AC magnitude (phase 0)
};

/// Independent current source; the current `dc` flows from `np` through the
/// source to `nn` (i.e. it is pulled out of np and pushed into nn).
struct CurrentSource {
  std::string name;
  NodeId np = kGround;
  NodeId nn = kGround;
  double dc = 0.0;
  double ac = 0.0;
};

/// Voltage-controlled current source: current gm * (v(cp) - v(cn)) flows
/// from `np` through the source to `nn`.
struct Vccs {
  std::string name;
  NodeId np = kGround;
  NodeId nn = kGround;
  NodeId cp = kGround;
  NodeId cn = kGround;
  double gm = 0.0;
};

struct MosfetInstance {
  std::string name;
  NodeId drain = kGround;
  NodeId gate = kGround;
  NodeId source = kGround;
  MosfetModel model;
  MosfetGeometry geometry;
  MosfetVariation variation;
};

/// Mutable circuit description with named nodes.
class Netlist {
 public:
  /// Returns the id for `name`, creating the node on first use. The names
  /// "0", "gnd" and "GND" map to ground.
  NodeId node(const std::string& name);

  /// Looks up an existing node; throws ContractError when absent.
  [[nodiscard]] NodeId find_node(const std::string& name) const;

  /// Name of a node id (for diagnostics).
  [[nodiscard]] const std::string& node_name(NodeId id) const;

  /// Number of non-ground nodes; ids run 1..node_count().
  [[nodiscard]] std::size_t node_count() const { return names_.size() - 1; }

  void add_resistor(const std::string& name, NodeId n1, NodeId n2,
                    double resistance);
  void add_capacitor(const std::string& name, NodeId n1, NodeId n2,
                     double capacitance);
  /// Returns the branch index of the new source (used to query its current).
  std::size_t add_voltage_source(const std::string& name, NodeId np, NodeId nn,
                                 double dc, double ac = 0.0);
  void add_current_source(const std::string& name, NodeId np, NodeId nn,
                          double dc, double ac = 0.0);
  void add_vccs(const std::string& name, NodeId np, NodeId nn, NodeId cp,
                NodeId cn, double gm);
  void add_mosfet(const std::string& name, NodeId drain, NodeId gate,
                  NodeId source, const MosfetModel& model,
                  const MosfetGeometry& geometry,
                  const MosfetVariation& variation = {});

  /// Suggests a Newton starting voltage for a node (defaults to 0 V).
  void set_initial_guess(NodeId node, double voltage);

  /// Element value mutators for Monte Carlo reuse: a testbench builds its
  /// topology once and rewrites only the varying values per die, instead of
  /// reconstructing the netlist (names, node maps) for every sample.
  /// Indices are the order of addition; values must be positive.
  void set_resistance(std::size_t index, double resistance);
  void set_capacitance(std::size_t index, double capacitance);

  /// Replaces the process variation of mosfet `index` (order of addition).
  void set_mosfet_variation(std::size_t index, const MosfetVariation& v);

  [[nodiscard]] const std::vector<Resistor>& resistors() const {
    return resistors_;
  }
  [[nodiscard]] const std::vector<Capacitor>& capacitors() const {
    return capacitors_;
  }
  [[nodiscard]] const std::vector<VoltageSource>& voltage_sources() const {
    return voltage_sources_;
  }
  [[nodiscard]] const std::vector<CurrentSource>& current_sources() const {
    return current_sources_;
  }
  [[nodiscard]] const std::vector<Vccs>& vccs() const { return vccs_; }
  [[nodiscard]] const std::vector<MosfetInstance>& mosfets() const {
    return mosfets_;
  }
  [[nodiscard]] const std::map<NodeId, double>& initial_guesses() const {
    return initial_guesses_;
  }

  /// Size of the MNA system: node_count() voltages + one current per
  /// voltage source.
  [[nodiscard]] std::size_t unknown_count() const {
    return node_count() + voltage_sources_.size();
  }

 private:
  void check_node(NodeId id) const;

  std::vector<std::string> names_{"0"};  ///< names_[id] = node name
  std::map<std::string, NodeId> ids_{{"0", kGround}};
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> voltage_sources_;
  std::vector<CurrentSource> current_sources_;
  std::vector<Vccs> vccs_;
  std::vector<MosfetInstance> mosfets_;
  std::map<NodeId, double> initial_guesses_;
};

}  // namespace bmfusion::circuit
