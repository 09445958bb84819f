// Multi-population Bayesian model fusion.
//
// The paper fuses one early-stage prior with one late-stage sample set.
// Real validation sweeps the same circuit across process corners,
// temperatures and supply points — N populations whose metric deviations
// from their own early-stage anchors are strongly correlated, because the
// same silicon lot (and the same modeling error) drives all of them.
// Following the multiple-population extension (Gu, Zaheer & Li),
// MultiPopulationEstimator stacks one BmfEstimator stream per population
// into a joint model:
//
//   delta_p = scaled posterior mean of population p minus its scaled
//             early-stage mean (the "anchor deviation"),
//   delta ~ N(0, tau^2 Gamma)  with Gamma an N x N inter-population
//             correlation matrix (estimated elsewhere, regularized here via
//             fusion::shrink_correlation), tau^2 a pooled signal variance,
//   observed delta_p are noisy with per-population variance vbar_p
//             (posterior covariance scale / kappa_n).
//
// A snapshot GLS-predicts each population's anchor deviation from the
// *other* observed populations (delta_hat_p), converts the conditional
// variance reduction into extra prior confidence (kappa_borrow), and
// re-runs the paper's MAP fusion against the shifted anchor:
//
//   fused_p = map_fuse({mu_E + delta_hat_p, Sigma_E},  own stats,
//                      kappa0_p + kappa_borrow_p, nu0_p)
//
// With Gamma = I every delta_hat is zero and every kappa_borrow is zero, so
// the result degenerates *exactly* to N independent BmfEstimators — the
// parity contract tested in tests/test_fusion.cpp. Populations with no own
// samples get the shifted prior itself, which is how a handful of late
// samples at one corner sharpens estimates at all of them.
//
// Streaming contract: observe/absorb/merge/snapshot route per population to
// the underlying BmfEstimator streams, so merges stay order-insensitive and
// bitwise-stable exactly as in the single-population engine; StatsShard
// records carry a population id (wire-format v2) for routing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/bmf_estimator.hpp"
#include "core/estimator.hpp"
#include "fusion/correlation.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/stat_wire.hpp"

namespace bmfusion::fusion {

/// One population of the joint model: a name for reports/serving, the
/// population's own early-stage knowledge, and (optionally, can also be
/// set later) its late-stage nominal point.
struct PopulationSpec {
  std::string name;
  core::EarlyStageKnowledge early;
  linalg::Vector late_nominal;  ///< empty = set_nominal() before snapshot
};

struct FusionConfig {
  core::BmfConfig bmf;  ///< shared per-population BMF configuration

  /// Convex shrinkage weight toward the identity applied to every raw
  /// correlation handed to set_correlation() (0 = trust the estimate,
  /// 1 = independent populations).
  double shrinkage = 0.15;
  /// Eigenvalue floor of the PSD projection.
  double min_eigenvalue = 1e-6;
  /// Floor of the pooled signal variance tau^2 (scaled space). At the
  /// floor, cross-population borrowing is disabled.
  double signal_floor = 1e-10;

  /// Throws ContractError on out-of-range knobs.
  void validate() const;
};

/// Per-population slice of a joint snapshot.
struct PopulationEstimate {
  std::string name;
  std::size_t observed = 0;  ///< own late samples in the stream
  /// Plain single-population BMF posterior from own data only. Moment
  /// fields are empty when observed == 0 or the population failed.
  core::EstimateResult independent;
  /// Cross-population fused estimate (the headline result). For an
  /// unobserved population this is the GLS-shifted prior.
  core::EstimateResult fused;
  double borrowed_kappa = 0.0;  ///< extra prior confidence from siblings
  double anchor_shift = 0.0;    ///< |delta_hat| in scaled space
  /// Non-empty when this population's own snapshot raised a typed error;
  /// the population is excluded from borrowing and its fused estimate
  /// falls back to the (shifted) prior. Siblings are unaffected.
  std::string error;
};

struct FusionSnapshot {
  std::vector<PopulationEstimate> populations;
  linalg::Matrix correlation;    ///< effective (shrunk, projected) Gamma
  double signal_variance = 0.0;  ///< pooled tau^2 (scaled space)
  std::size_t observed_populations = 0;
};

/// N-population generalization of BmfEstimator. Not a MomentEstimator
/// subclass: every streaming entry point takes a population index, and the
/// snapshot is a joint object rather than one moment pair.
class MultiPopulationEstimator {
 public:
  explicit MultiPopulationEstimator(std::vector<PopulationSpec> populations,
                                    FusionConfig config = {});

  [[nodiscard]] std::size_t population_count() const {
    return estimators_.size();
  }
  [[nodiscard]] const std::string& population_name(std::size_t p) const;
  [[nodiscard]] const FusionConfig& config() const { return config_; }

  /// Installs a raw inter-population correlation estimate; it is shrunk
  /// and PSD-projected per the config before use. Must be N x N.
  void set_correlation(const linalg::Matrix& raw);
  /// The effective (regularized) correlation; identity until
  /// set_correlation() is called.
  [[nodiscard]] const linalg::Matrix& correlation() const {
    return correlation_;
  }

  // --- Streaming (per population) ---------------------------------------
  void set_nominal(std::size_t p, const linalg::Vector& late_nominal);
  void observe(std::size_t p, const linalg::Vector& sample);
  void observe(std::size_t p, const linalg::Matrix& samples);
  void absorb(std::size_t p, const stats::SufficientStats& stats);
  /// Routes by shard.population_id; DataError when the id is out of range
  /// or the shard mismatches the target stream.
  void absorb(const stats::StatsShard& shard);
  /// Fold-wise concatenation per population; same bitwise-merge contract
  /// as MomentEstimator::merge. Population specs must agree.
  void merge(const MultiPopulationEstimator& other);
  [[nodiscard]] std::size_t observed_count(std::size_t p) const;
  /// Wire-format shard of one population's stream, tagged with p.
  [[nodiscard]] stats::StatsShard export_shard(std::size_t p,
                                               std::uint64_t shard_id) const;

  /// Read access to one population's underlying estimator (tests, serving).
  [[nodiscard]] const core::BmfEstimator& population(std::size_t p) const;

  // --- Estimation --------------------------------------------------------
  /// Joint snapshot: independent and fused estimates for every population.
  /// Requires >= 1 observed population; populations whose own snapshot
  /// throws a typed error are contained (see PopulationEstimate::error).
  /// The result is cached under MomentEstimator::snapshot()'s contract:
  /// repeat calls on an unchanged estimator return a copy, every mutator
  /// clears the cache before its first write, and a snapshot that throws
  /// caches nothing. `fusion.snapshots` counts every call and
  /// `fusion.snapshot_reuses` the copies.
  [[nodiscard]] FusionSnapshot snapshot() const;

 private:
  [[nodiscard]] std::size_t require_population(std::size_t p,
                                               const char* operation) const;

  FusionConfig config_;
  std::vector<PopulationSpec> specs_;
  std::vector<core::BmfEstimator> estimators_;
  linalg::Matrix correlation_;
  /// Last snapshot() result; every mutator clears it before its first
  /// write (mutable: snapshot() is const).
  mutable std::optional<FusionSnapshot> snapshot_cache_;
};

}  // namespace bmfusion::fusion
