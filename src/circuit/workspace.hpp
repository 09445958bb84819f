// Reusable per-thread simulation buffers for the Monte Carlo hot path.
//
// One SimWorkspace owns every transient buffer a full sample needs — the
// Newton-Raphson MNA system, the real LU workspace, the AC sweep kernel's
// factor buffers, the probe response and the metric vector — so the
// steady-state loop
//
//   for (i : samples) bench.sample_metrics(rng, ws);
//
// performs zero heap allocations once the buffers have grown to the circuit
// size (see DESIGN.md "Performance architecture" for the full contract).
// Workspaces are not thread-safe: use one per worker thread.
#pragma once

#include <memory>
#include <typeinfo>
#include <utility>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/dc.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::circuit {

/// Scratch state for one in-flight circuit simulation.
struct SimWorkspace {
  // --- DC Newton-Raphson state (DcSolver::solve_into) ---
  linalg::Matrix jac;                 ///< MNA Jacobian, restamped per iteration
  linalg::Vector residual;            ///< KCL/branch residual
  linalg::Vector state;               ///< unknown vector (voltages + currents)
  linalg::Vector delta;               ///< Newton step
  linalg::Lu lu;                      ///< real LU workspace
  std::vector<MosfetOp> mosfet_ops;   ///< per-device linearizations
  OperatingPoint op;                  ///< solved bias point (solve_into output)

  // --- AC small-signal state ---
  AcAnalysis ac;                      ///< rebindable G/C stamp holder
  AcSweepScratch ac_sweep;            ///< amplifier_sweep factor buffers
  std::vector<linalg::Complex> response;  ///< probe-node sweep output
  std::vector<double> phase;          ///< measure_amplifier unwrap scratch

  // --- testbench output ---
  linalg::Vector metrics;             ///< metric vector handed back to the MC loop

  /// Per-testbench cached state (e.g. a mutable netlist whose topology is
  /// built once and only element values are rewritten per die). The cache is
  /// keyed by the owning bench's identity and concrete cache type; binding a
  /// different bench (or type) drops and rebuilds it. The owner must outlive
  /// every sample_metrics call that uses this workspace.
  template <typename T, typename MakeFn>
  T& cache_as(const void* owner, MakeFn&& make) {
    if (cache_owner_ == owner && cache_type_ == &typeid(T) && cache_) {
      BMF_COUNTER_ADD("circuit.workspace.cache_hits", 1);
      return *static_cast<T*>(cache_.get());
    }
    BMF_COUNTER_ADD("circuit.workspace.cache_misses", 1);
    cache_ = std::make_shared<T>(std::forward<MakeFn>(make)());
    cache_owner_ = owner;
    cache_type_ = &typeid(T);
    return *static_cast<T*>(cache_.get());
  }

 private:
  const void* cache_owner_ = nullptr;
  const std::type_info* cache_type_ = nullptr;
  std::shared_ptr<void> cache_;
};

}  // namespace bmfusion::circuit
