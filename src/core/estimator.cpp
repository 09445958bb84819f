#include "core/estimator.hpp"

#include <cmath>
#include <sstream>

#include "common/contracts.hpp"
#include "core/mle.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::core {

namespace {

/// API-boundary data screen shared by every estimator: a NaN/Inf cell in the
/// samples (or nominal) is a data problem, and is reported here with its
/// exact position instead of surfacing later as a numeric failure deep in
/// the fusion stack.
void require_finite_inputs(const linalg::Matrix& samples,
                           const linalg::Vector& nominal,
                           std::string_view estimator) {
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      const double cell = samples(r, c);
      if (!std::isfinite(cell)) {
        std::ostringstream os;
        os << "estimator '" << estimator << "': non-finite sample cell at row "
           << r << ", column " << c;
        throw DataError(os.str(), ErrorContext{}
                                      .with_operation(std::string(estimator))
                                      .with_dimension(samples.cols())
                                      .with_sample_count(samples.rows())
                                      .with_index(r)
                                      .with_value(cell));
      }
    }
  }
  for (std::size_t i = 0; i < nominal.size(); ++i) {
    if (!std::isfinite(nominal[i])) {
      std::ostringstream os;
      os << "estimator '" << estimator
         << "': non-finite nominal entry at dimension " << i;
      throw DataError(os.str(), ErrorContext{}
                                    .with_operation(std::string(estimator))
                                    .with_dimension(nominal.size())
                                    .with_index(i)
                                    .with_value(nominal[i]));
    }
  }
}

/// The same screen for one sample vector (the observe hot path).
void require_finite_sample(const linalg::Vector& sample,
                           std::string_view estimator) {
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (!std::isfinite(sample[i])) {
      std::ostringstream os;
      os << "estimator '" << estimator
         << "': non-finite observed sample entry at dimension " << i;
      throw DataError(os.str(), ErrorContext{}
                                    .with_operation(std::string(estimator))
                                    .with_dimension(sample.size())
                                    .with_index(i)
                                    .with_value(sample[i]));
    }
  }
}

/// And for pre-summarized statistics (the absorb path): a non-finite sum or
/// outer-sum entry poisons every later estimate, so reject it at the door.
void require_finite_stats(const SufficientStats& stats,
                          std::string_view estimator) {
  for (std::size_t r = 0; r < stats.dimension(); ++r) {
    if (!std::isfinite(stats.sum()[r])) {
      std::ostringstream os;
      os << "estimator '" << estimator
         << "': non-finite sufficient-stats sum at dimension " << r;
      throw DataError(os.str(), ErrorContext{}
                                    .with_operation(std::string(estimator))
                                    .with_dimension(stats.dimension())
                                    .with_sample_count(stats.count())
                                    .with_index(r)
                                    .with_value(stats.sum()[r]));
    }
    for (std::size_t c = 0; c < stats.dimension(); ++c) {
      const double cell = stats.sum_outer()(r, c);
      if (!std::isfinite(cell)) {
        std::ostringstream os;
        os << "estimator '" << estimator
           << "': non-finite sufficient-stats outer sum at (" << r << ", "
           << c << ")";
        throw DataError(os.str(), ErrorContext{}
                                      .with_operation(std::string(estimator))
                                      .with_dimension(stats.dimension())
                                      .with_sample_count(stats.count())
                                      .with_index(r)
                                      .with_value(cell));
      }
    }
  }
}

/// One SufficientStats per fold stream, in fold order; an empty fold is a
/// dimension-matched zero (the do_snapshot contract).
std::vector<SufficientStats> totals_per_fold(
    const std::vector<stats::StatStream>& folds, std::size_t dimension) {
  std::vector<SufficientStats> totals;
  totals.reserve(folds.size());
  for (const stats::StatStream& fold : folds) {
    totals.push_back(fold.empty() ? SufficientStats(dimension)
                                  : fold.totals());
  }
  return totals;
}

}  // namespace

// --- Batch -----------------------------------------------------------------

EstimateResult MomentEstimator::estimate(const linalg::Matrix& samples,
                                         const linalg::Vector& nominal) const {
  BMFUSION_REQUIRE(samples.rows() >= 1 && samples.cols() >= 1,
                   "moment estimation needs a non-empty sample matrix");
  BMFUSION_REQUIRE(nominal.size() == 0 || nominal.size() == samples.cols(),
                   "nominal must be empty or match the sample dimension");
  require_finite_inputs(samples, nominal, name());
  return do_estimate(samples, nominal);
}

EstimateResult MomentEstimator::estimate(const linalg::Matrix& samples) const {
  return estimate(samples, linalg::Vector());
}

EstimateResult MomentEstimator::do_estimate(
    const linalg::Matrix& samples, const linalg::Vector& nominal) const {
  // Exactly what observe() does on a fresh stream after set_nominal: the
  // same fold split, stream space and accumulators, so the answer is that
  // stream's snapshot(), bit for bit. Everything lives on the stack.
  const std::optional<ShiftScale> space = stream_space(nominal);
  std::vector<stats::StatStream> folds(stream_folds(),
                                       stats::StatStream(samples.cols()));
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    stats::StatStream& fold = folds[i % folds.size()];
    if (space.has_value()) {
      fold.add(space->apply(samples.row(i)));
    } else {
      fold.add(samples.row(i));
    }
  }
  return do_snapshot(totals_per_fold(folds, samples.cols()), nominal);
}

// --- Streaming ---------------------------------------------------------------

void MomentEstimator::set_nominal(const linalg::Vector& nominal) {
  BMFUSION_REQUIRE(observed_ == 0,
                   "the nominal point is fixed once samples were observed; "
                   "reset_stream() first");
  BMFUSION_REQUIRE(nominal.size() >= 1,
                   "set_nominal needs a non-empty nominal vector");
  require_finite_inputs(linalg::Matrix(), nominal, name());
  std::optional<ShiftScale> space = stream_space(nominal);
  snapshot_cache_.reset();
  nominal_ = nominal;
  space_ = std::move(space);
}

void MomentEstimator::require_stream_space() const {
  if (nominal_.size() == 0) (void)stream_space(nominal_);
}

void MomentEstimator::ensure_streams(std::size_t dimension) {
  BMFUSION_REQUIRE(nominal_.size() == 0 || nominal_.size() == dimension,
                   "observed sample dimension must match the nominal point");
  if (streams_.empty()) {
    const std::size_t folds = stream_folds();
    BMFUSION_REQUIRE(folds >= 1, "estimator stream needs >= 1 fold");
    streams_.assign(folds, stats::StatStream(dimension));
    return;
  }
  BMFUSION_REQUIRE(streams_.front().dimension() == dimension,
                   "observed sample dimension must match the stream");
}

void MomentEstimator::observe_row(const linalg::Vector& sample) {
  BMFUSION_REQUIRE(sample.size() >= 1, "observe needs a non-empty sample");
  require_finite_sample(sample, name());
  require_stream_space();
  ensure_streams(sample.size());
  snapshot_cache_.reset();
  stats::StatStream& fold = streams_[observed_ % streams_.size()];
  if (space_.has_value()) {
    fold.add(space_->apply(sample));
  } else {
    fold.add(sample);
  }
  ++observed_;
}

void MomentEstimator::observe(const linalg::Vector& sample) {
  observe_row(sample);
  BMF_COUNTER_ADD("core.stream.observed_samples", 1);
}

void MomentEstimator::observe(const linalg::Matrix& samples) {
  BMFUSION_REQUIRE(samples.cols() >= 1,
                   "observe needs samples with dimension >= 1");
  for (std::size_t i = 0; i < samples.rows(); ++i) {
    observe_row(samples.row(i));
  }
  // One counter update per batch, not per row: the serve observe hot path
  // pushes 10k+ batches/s, where per-row updates are measurable.
  BMF_COUNTER_ADD("core.stream.observed_samples", samples.rows());
}

void MomentEstimator::absorb(const SufficientStats& stats) {
  if (stats.count() == 0) return;
  BMFUSION_REQUIRE(stats.dimension() >= 1,
                   "absorb needs statistics with dimension >= 1");
  require_finite_stats(stats, name());
  require_stream_space();
  ensure_streams(stats.dimension());
  snapshot_cache_.reset();
  stats::StatStream& fold = streams_[absorb_cursor_ % streams_.size()];
  if (space_.has_value()) {
    fold.absorb(space_->apply(stats));
  } else {
    fold.absorb(stats);
  }
  ++absorb_cursor_;
  observed_ += stats.count();
  BMF_COUNTER_ADD("core.stream.absorbed_samples", stats.count());
}

void MomentEstimator::absorb(const stats::StatsShard& shard) {
  // Check the whole shard before any state changes: a refused shard must
  // neither fix the nominal nor pin the stream dimension.
  if (!shard.estimator.empty() && shard.estimator != name()) {
    throw DataError(
        "stats shard estimator tag does not match this estimator",
        ErrorContext{}
            .with_operation(std::string(name()))
            .with_detail("shard tagged '" + shard.estimator + "'"));
  }
  if (shard.nominal.size() != 0 && nominal_.size() != 0 &&
      !(shard.nominal == nominal_)) {
    throw DataError("stats shard nominal does not match this estimator's",
                    ErrorContext{}
                        .with_operation(std::string(name()))
                        .with_dimension(nominal_.size()));
  }
  const std::size_t dim = shard.dimension();
  if (dim != 0) {
    if (!streams_.empty() && streams_.front().dimension() != dim) {
      throw DataError(
          "stats shard dimension does not match this estimator",
          ErrorContext{}
              .with_operation(std::string(name()))
              .with_dimension(streams_.front().dimension())
              .with_detail("shard " + std::to_string(shard.shard_id) +
                           " carries dimension " + std::to_string(dim)));
    }
    bool consistent = shard.nominal.size() == 0 || shard.nominal.size() == dim;
    for (const stats::StatStream& fold : shard.folds) {
      consistent = consistent && (fold.count() == 0 || fold.dimension() == dim);
    }
    if (!consistent) {
      throw DataError("stats shard folds and nominal disagree on dimension",
                      ErrorContext{}
                          .with_operation(std::string(name()))
                          .with_dimension(dim));
    }
    const std::size_t folds =
        streams_.empty() ? stream_folds() : streams_.size();
    if (shard.folds.size() != folds) {
      throw DataError("stats shard fold count does not match this estimator",
                      ErrorContext{}
                          .with_operation(std::string(name()))
                          .with_detail(std::to_string(folds) +
                                       " folds here, shard has " +
                                       std::to_string(shard.folds.size())));
    }
  }
  if (shard.nominal.size() != 0 && nominal_.size() == 0 && observed_ == 0) {
    set_nominal(shard.nominal);
  }
  if (dim == 0) return;  // empty shard: nothing to merge
  ensure_streams(dim);
  snapshot_cache_.reset();
  std::size_t added = 0;
  for (std::size_t f = 0; f < streams_.size(); ++f) {
    streams_[f].merge(shard.folds[f]);
    added += shard.folds[f].count();
  }
  observed_ += added;
  BMF_COUNTER_ADD("core.stream.absorbed_samples", added);
}

void MomentEstimator::merge(const MomentEstimator& other) {
  BMFUSION_REQUIRE(name() == other.name(),
                   "merge needs two estimators of the same strategy");
  BMFUSION_REQUIRE(
      nominal_.size() == other.nominal_.size() &&
          (nominal_.size() == 0 || nominal_ == other.nominal_),
      "merge needs both estimators to agree on the nominal point");
  if (other.observed_ == 0) return;
  ensure_streams(other.streams_.front().dimension());
  BMFUSION_REQUIRE(streams_.size() == other.streams_.size(),
                   "merge needs matching fold counts");
  snapshot_cache_.reset();
  for (std::size_t f = 0; f < streams_.size(); ++f) {
    streams_[f].merge(other.streams_[f]);
  }
  observed_ += other.observed_;
}

EstimateResult MomentEstimator::snapshot() const {
  BMFUSION_REQUIRE(observed_ >= 1,
                   "snapshot needs at least one observed sample");
  BMF_COUNTER_ADD("core.stream.snapshots", 1);
  if (snapshot_cache_.has_value()) {
    BMF_COUNTER_ADD("core.stream.snapshot_reuses", 1);
    return *snapshot_cache_;
  }
  const std::vector<SufficientStats> totals =
      totals_per_fold(streams_, streams_.front().dimension());
  BMF_SPAN("estimator_snapshot");
  snapshot_cache_ = do_snapshot(totals, nominal_);
  return *snapshot_cache_;
}

stats::StatsShard MomentEstimator::export_shard(std::uint64_t shard_id) const {
  stats::StatsShard shard;
  shard.shard_id = shard_id;
  shard.estimator = std::string(name());
  shard.nominal = nominal_;
  shard.folds = streams_.empty()
                    ? std::vector<stats::StatStream>(stream_folds())
                    : streams_;
  return shard;
}

void MomentEstimator::reset_stream() {
  snapshot_cache_.reset();
  streams_.clear();
  observed_ = 0;
  absorb_cursor_ = 0;
}

std::optional<ShiftScale> MomentEstimator::stream_space(
    const linalg::Vector& nominal) const {
  (void)nominal;
  return std::nullopt;
}

// --- MLE ---------------------------------------------------------------------

EstimateResult MleEstimator::do_estimate(const linalg::Matrix& samples,
                                         const linalg::Vector& nominal) const {
  (void)nominal;  // the MLE neither shifts nor scales
  EstimateResult result;
  result.moments = estimate_mle(samples);
  result.scaled_moments = result.moments;
  return result;
}

EstimateResult MleEstimator::do_snapshot(
    const std::vector<SufficientStats>& fold_totals,
    const linalg::Vector& nominal) const {
  (void)nominal;  // the MLE neither shifts nor scales
  // Single-fold stream (stream_folds() == 1), but stay robust to a caller-
  // assembled fold vector: the MLE only needs the grand totals.
  SufficientStats totals;
  bool have = false;
  for (const SufficientStats& fold : fold_totals) {
    if (fold.count() == 0) continue;
    if (!have) {
      totals = fold;
      have = true;
    } else {
      totals += fold;
    }
  }
  BMFUSION_REQUIRE(have, "mle snapshot needs >= 1 observed sample");
  EstimateResult result;
  result.moments = estimate_mle(totals);
  result.scaled_moments = result.moments;
  return result;
}

}  // namespace bmfusion::core
