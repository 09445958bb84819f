#include "fusion/multi_population.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "core/normal_wishart.hpp"
#include "core/shift_scale.hpp"
#include "linalg/cholesky.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::fusion {
namespace {

/// Identity stage transforms for the no-shift/scale ablation path.
core::StageTransforms identity_transforms(std::size_t dimension) {
  linalg::Vector zeros(dimension);
  linalg::Vector ones(dimension);
  for (std::size_t i = 0; i < dimension; ++i) ones[i] = 1.0;
  return core::StageTransforms{core::ShiftScale(zeros, ones),
                               core::ShiftScale(zeros, ones)};
}

/// Sum of every fold total of an estimator's stream (its scaled space).
stats::SufficientStats stream_total(const core::BmfEstimator& estimator) {
  stats::SufficientStats total;
  for (const stats::StatStream& fold : estimator.streams()) {
    if (fold.count() == 0) continue;
    if (total.count() == 0) {
      total = fold.totals();
    } else {
      total = total + fold.totals();
    }
  }
  return total;
}

void record_population_samples(std::size_t p, std::size_t count) {
  if constexpr (telemetry::enabled()) {
    telemetry::Registry::instance()
        .gauge("fusion.population." + std::to_string(p) + ".samples")
        .set(static_cast<double>(count));
  } else {
    (void)p;
    (void)count;
  }
}

}  // namespace

void FusionConfig::validate() const {
  bmf.validate();
  BMFUSION_REQUIRE(shrinkage >= 0.0 && shrinkage <= 1.0,
                   "fusion shrinkage must lie in [0, 1]");
  BMFUSION_REQUIRE(min_eigenvalue > 0.0,
                   "fusion min_eigenvalue must be positive");
  BMFUSION_REQUIRE(signal_floor > 0.0, "fusion signal_floor must be positive");
}

MultiPopulationEstimator::MultiPopulationEstimator(
    std::vector<PopulationSpec> populations, FusionConfig config)
    : config_(std::move(config)), specs_(std::move(populations)) {
  config_.validate();
  BMFUSION_REQUIRE(!specs_.empty(),
                   "multi-population fusion needs >= 1 population");
  const std::size_t dim = specs_.front().early.moments.dimension();
  estimators_.reserve(specs_.size());
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    PopulationSpec& spec = specs_[p];
    spec.early.moments.validate();
    BMFUSION_REQUIRE(spec.early.moments.dimension() == dim,
                     "every population must share the metric dimension");
    estimators_.emplace_back(spec.early, config_.bmf);
    if (spec.late_nominal.size() != 0) {
      estimators_.back().set_nominal(spec.late_nominal);
    }
  }
  correlation_ = linalg::Matrix::identity(specs_.size());
  BMF_GAUGE_SET("fusion.populations", specs_.size());
}

const std::string& MultiPopulationEstimator::population_name(
    std::size_t p) const {
  return specs_[require_population(p, "population_name")].name;
}

std::size_t MultiPopulationEstimator::require_population(
    std::size_t p, const char* operation) const {
  if (p >= estimators_.size()) {
    throw DataError("population id is out of range",
                    ErrorContext{}
                        .with_operation(operation)
                        .with_index(p)
                        .with_detail(std::to_string(estimators_.size()) +
                                     " population(s) configured"));
  }
  return p;
}

void MultiPopulationEstimator::set_correlation(const linalg::Matrix& raw) {
  BMFUSION_REQUIRE(
      raw.rows() == estimators_.size() && raw.cols() == estimators_.size(),
      "correlation matrix must be N x N for N populations");
  snapshot_cache_.reset();
  correlation_ =
      shrink_correlation(raw, config_.shrinkage, config_.min_eigenvalue);
}

void MultiPopulationEstimator::set_nominal(std::size_t p,
                                           const linalg::Vector& nominal) {
  core::BmfEstimator& target =
      estimators_[require_population(p, "set_nominal")];
  snapshot_cache_.reset();
  target.set_nominal(nominal);
  specs_[p].late_nominal = nominal;
}

void MultiPopulationEstimator::observe(std::size_t p,
                                       const linalg::Vector& sample) {
  core::BmfEstimator& target = estimators_[require_population(p, "observe")];
  snapshot_cache_.reset();
  target.observe(sample);
  BMF_COUNTER_ADD("fusion.observed_samples", 1);
  record_population_samples(p, estimators_[p].observed_count());
}

void MultiPopulationEstimator::observe(std::size_t p,
                                       const linalg::Matrix& samples) {
  core::BmfEstimator& target = estimators_[require_population(p, "observe")];
  snapshot_cache_.reset();
  target.observe(samples);
  BMF_COUNTER_ADD("fusion.observed_samples", samples.rows());
  record_population_samples(p, estimators_[p].observed_count());
}

void MultiPopulationEstimator::absorb(std::size_t p,
                                      const stats::SufficientStats& stats) {
  core::BmfEstimator& target = estimators_[require_population(p, "absorb")];
  snapshot_cache_.reset();
  target.absorb(stats);
  BMF_COUNTER_ADD("fusion.observed_samples", stats.count());
  record_population_samples(p, estimators_[p].observed_count());
}

void MultiPopulationEstimator::absorb(const stats::StatsShard& shard) {
  const std::size_t p = require_population(
      static_cast<std::size_t>(shard.population_id), "absorb_shard");
  snapshot_cache_.reset();
  estimators_[p].absorb(shard);
  BMF_COUNTER_ADD("fusion.absorbed_shards", 1);
  BMF_COUNTER_ADD("fusion.observed_samples", shard.count());
  record_population_samples(p, estimators_[p].observed_count());
}

void MultiPopulationEstimator::merge(const MultiPopulationEstimator& other) {
  BMFUSION_REQUIRE(estimators_.size() == other.estimators_.size(),
                   "merge needs equal population counts");
  for (std::size_t p = 0; p < specs_.size(); ++p) {
    BMFUSION_REQUIRE(specs_[p].name == other.specs_[p].name,
                     "merge needs identical population layouts");
  }
  snapshot_cache_.reset();
  for (std::size_t p = 0; p < estimators_.size(); ++p) {
    estimators_[p].merge(other.estimators_[p]);
    record_population_samples(p, estimators_[p].observed_count());
  }
}

std::size_t MultiPopulationEstimator::observed_count(std::size_t p) const {
  return estimators_[require_population(p, "observed_count")]
      .observed_count();
}

stats::StatsShard MultiPopulationEstimator::export_shard(
    std::size_t p, std::uint64_t shard_id) const {
  stats::StatsShard shard =
      estimators_[require_population(p, "export_shard")].export_shard(
          shard_id);
  shard.population_id = p;
  return shard;
}

const core::BmfEstimator& MultiPopulationEstimator::population(
    std::size_t p) const {
  return estimators_[require_population(p, "population")];
}

FusionSnapshot MultiPopulationEstimator::snapshot() const {
  BMF_COUNTER_ADD("fusion.snapshots", 1);
  if (snapshot_cache_.has_value()) {
    BMF_COUNTER_ADD("fusion.snapshot_reuses", 1);
    return *snapshot_cache_;
  }
  BMF_SPAN("fusion_snapshot");
  const std::size_t n = estimators_.size();
  const std::size_t dim = specs_.front().early.moments.dimension();

  FusionSnapshot out;
  out.correlation = correlation_;
  out.populations.resize(n);

  // Stage 1: independent per-population posteriors and anchor deviations.
  // Deviations are expressed in sigma units of each population's (scaled)
  // early prior: the pooled signal variance tau^2 is a single scalar, so
  // metrics with wildly different physical units (dB, Hz, degrees) must be
  // made commensurable before they are pooled — otherwise the largest-unit
  // metric's sampling noise swamps every real deviation. Under shift/scale
  // the early sigmas are already ~1 and this is (nearly) a no-op.
  std::vector<core::StageTransforms> transforms;
  transforms.reserve(n);
  std::vector<core::GaussianMoments> early_scaled(n);
  std::vector<linalg::Vector> sigma(n);   ///< per-metric early sigma
  std::vector<linalg::Vector> delta(n);   ///< anchor deviation, sigma units
  std::vector<double> noise(n, 0.0);      ///< vbar_p, sigma units
  std::vector<bool> usable(n, false);
  for (std::size_t p = 0; p < n; ++p) {
    const core::BmfEstimator& est = estimators_[p];
    PopulationEstimate& slot = out.populations[p];
    slot.name = specs_[p].name;
    slot.observed = est.observed_count();
    if (config_.bmf.apply_shift_scale) {
      BMFUSION_REQUIRE(est.nominal().size() != 0,
                       "every population needs a late-stage nominal before "
                       "a fusion snapshot (set_nominal)");
      transforms.push_back(core::make_stage_transforms(
          specs_[p].early.nominal, est.nominal(), specs_[p].early.moments));
    } else {
      transforms.push_back(identity_transforms(dim));
    }
    early_scaled[p] = transforms[p].early.apply(specs_[p].early.moments);
    sigma[p] = linalg::Vector(dim);
    for (std::size_t m = 0; m < dim; ++m) {
      sigma[p][m] =
          std::sqrt(std::max(early_scaled[p].covariance(m, m), 1e-300));
    }
    if (slot.observed == 0) continue;
    try {
      slot.independent = est.snapshot();
    } catch (const NumericError& err) {
      slot.error = err.what();
      continue;
    } catch (const DataError& err) {
      slot.error = err.what();
      continue;
    }
    delta[p] = slot.independent.scaled_moments.mean - early_scaled[p].mean;
    const double kappa_n =
        slot.independent.kappa0 + static_cast<double>(slot.observed);
    double normalized_trace = 0.0;
    for (std::size_t m = 0; m < dim; ++m) {
      delta[p][m] /= sigma[p][m];
      normalized_trace += slot.independent.scaled_moments.covariance(m, m) /
                          (sigma[p][m] * sigma[p][m]);
    }
    noise[p] = normalized_trace / (static_cast<double>(dim) * kappa_n);
    usable[p] = true;
    ++out.observed_populations;
  }
  if (out.observed_populations == 0) {
    throw ContractError(
        "fusion snapshot needs >= 1 population with usable samples");
  }

  // Stage 2: pooled signal variance tau^2 (method of moments over the
  // observed anchor deviations, noise-corrected, floored).
  double signal = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!usable[p]) continue;
    const double magnitude =
        delta[p].norm2() * delta[p].norm2() / static_cast<double>(dim);
    signal += std::max(magnitude - noise[p], 0.0);
  }
  signal /= static_cast<double>(out.observed_populations);
  const double tau2 = std::max(signal, config_.signal_floor);
  out.signal_variance = tau2;
  const bool borrowing = tau2 > config_.signal_floor;

  // Stage 3: GLS prediction of each population's anchor deviation from the
  // *other* observed populations, plus the borrowed prior confidence.
  for (std::size_t p = 0; p < n; ++p) {
    PopulationEstimate& slot = out.populations[p];
    std::vector<std::size_t> others;
    for (std::size_t q = 0; q < n; ++q) {
      if (q != p && usable[q]) others.push_back(q);
    }
    linalg::Vector delta_hat(dim);
    double kappa_borrow = 0.0;
    if (!others.empty() && borrowing) {
      const std::size_t m = others.size();
      linalg::Matrix cov(m, m);
      linalg::Vector cross(m);
      for (std::size_t i = 0; i < m; ++i) {
        cross[i] = tau2 * correlation_(p, others[i]);
        for (std::size_t j = 0; j < m; ++j) {
          cov(i, j) = tau2 * correlation_(others[i], others[j]);
        }
        cov(i, i) += noise[others[i]];
      }
      const linalg::Cholesky chol = linalg::Cholesky::factor_with_jitter(cov);
      const linalg::Vector weights = chol.solve(cross);
      for (std::size_t i = 0; i < m; ++i) {
        delta_hat += delta[others[i]] * weights[i];
      }
      const double explained = linalg::dot(cross, weights);
      const double conditional =
          std::max(tau2 - explained, 1e-12 * tau2);
      double cap = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double rho = correlation_(p, others[i]);
        cap += rho * rho *
               static_cast<double>(out.populations[others[i]].observed);
      }
      kappa_borrow =
          std::min(std::max(1.0 / conditional - 1.0 / tau2, 0.0), cap);
    }
    slot.anchor_shift = delta_hat.norm2();
    slot.borrowed_kappa = kappa_borrow;

    if (usable[p] && kappa_borrow == 0.0 && slot.anchor_shift == 0.0) {
      // No cross-population information: the fused estimate *is* the
      // independent one, bitwise (the Gamma = I parity contract).
      slot.fused = slot.independent;
      continue;
    }
    core::GaussianMoments anchor;
    anchor.mean = early_scaled[p].mean;
    for (std::size_t m = 0; m < dim; ++m) {
      anchor.mean[m] += delta_hat[m] * sigma[p][m];  // back to scaled units
    }
    anchor.covariance = early_scaled[p].covariance;
    if (usable[p]) {
      const stats::SufficientStats total = stream_total(estimators_[p]);
      slot.fused.kappa0 = slot.independent.kappa0;
      slot.fused.nu0 = slot.independent.nu0;
      slot.fused.score = slot.independent.score;
      slot.fused.scaled_moments = core::map_fuse(
          anchor, total, slot.independent.kappa0 + kappa_borrow,
          slot.independent.nu0);
    } else {
      // No own samples (or contained failure): the shifted prior is the
      // best available estimate for this population.
      slot.fused.scaled_moments = anchor;
    }
    slot.fused.moments = transforms[p].late.invert(slot.fused.scaled_moments);
  }

  BMF_GAUGE_SET("fusion.populations", n);
  BMF_GAUGE_SET("fusion.observed_populations", out.observed_populations);
  BMF_GAUGE_SET("fusion.signal_variance", tau2);
  BMF_GAUGE_SET("fusion.shrinkage_lambda", config_.shrinkage);
  if (n > 1) {
    double offdiag = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        if (r != c) offdiag += std::abs(correlation_(r, c));
      }
    }
    BMF_GAUGE_SET("fusion.mean_abs_correlation",
                  offdiag / static_cast<double>(n * (n - 1)));
  }
  snapshot_cache_ = std::move(out);
  return *snapshot_cache_;
}

}  // namespace bmfusion::fusion
