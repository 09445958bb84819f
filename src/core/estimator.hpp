// Unified moment-estimator interface: batch, stats-only and streaming.
//
// Every estimation strategy in the library — the paper's MLE baseline
// (eqs. 10-11), the headline Bayesian model fusion of Algorithm 1, and the
// univariate BMF prior art — answers the same question: given late-stage
// samples (and, for fusion methods, a nominal late-stage simulation), what
// are the first two moments? MomentEstimator captures exactly that contract
// so experiments, benches and examples can treat strategies polymorphically.
//
// The interface has three entry styles that converge on one estimation core
// per strategy:
//
//   * batch:      estimate(samples[, nominal]) — one matrix, one answer.
//   * stats-only: estimate(SufficientStats[, nominal]) — the caller already
//     summarized its samples (Monte Carlo driver, CV engine, serve layer);
//     no matrix is ever materialized.
//   * streaming:  set_nominal() once, observe()/absorb()/merge() as data
//     arrives, snapshot() whenever an estimate is wanted. State lives in
//     per-fold StatStreams whose deterministic pairwise reduction makes
//     block-aligned shard splits reassemble bitwise (stats/stat_stream.hpp);
//     export_shard()/absorb(StatsShard) move that state across the wire.
//
// Conjugacy is what makes the streaming surface cheap: a new sample is an
// O(d^2) statistics update, and a first snapshot() runs the strategy's
// hyper-parameter selection (the CV grid for BMF: one d^3 eigensolve per
// fold, O(grid * folds * d) closed-form scoring, then an exact re-score of
// the points that can win) from fold statistics alone, however many samples
// the stream absorbed. A repeat snapshot() of an unchanged stream is a copy
// of the cached result.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "core/cross_validation.hpp"
#include "core/moments.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/stat_stream.hpp"
#include "stats/stat_wire.hpp"

namespace bmfusion::core {

/// Common result of every estimator. Hyper-parameter-free strategies (e.g.
/// MLE) leave kappa0/nu0/score as NaN and report identical moments and
/// scaled_moments.
struct EstimateResult {
  GaussianMoments moments;         ///< estimate in original late-stage units
  GaussianMoments scaled_moments;  ///< estimate in the fused (scaled) space
  double kappa0 = std::numeric_limits<double>::quiet_NaN();  ///< selected
  double nu0 = std::numeric_limits<double>::quiet_NaN();     ///< selected
  /// Model-selection score of the winning hyper-parameters (held-out
  /// log-likelihood for CV, per-sample log evidence for empirical Bayes).
  double score = std::numeric_limits<double>::quiet_NaN();
  /// Full model-selection surface (one entry per (kappa0, nu0) grid point;
  /// disqualified points carry -inf). Empty for hyper-parameter-free
  /// strategies. Consumed by bmf_cli --cv-surface and bmf_doctor.
  std::vector<GridScore> cv_grid;
};

/// Abstract moment estimator (non-virtual interface): the public entry
/// points run shared contract checks and the non-finite-input screen, then
/// dispatch to the strategy hooks.
class MomentEstimator {
 public:
  virtual ~MomentEstimator() = default;

  /// Short stable identifier ("mle", "bmf", ...) for reports and benches.
  [[nodiscard]] virtual std::string_view name() const = 0;

  // --- Batch -------------------------------------------------------------

  /// Estimates moments from the rows of `samples`. `nominal` is the single
  /// nominal (variation-free) late-stage simulation; estimators that do not
  /// shift by a nominal point ignore it. When non-empty it must match the
  /// sample dimension. Non-finite cells in either input throw DataError with
  /// the offending row/column in the error context (the shared API-boundary
  /// screen for corrupted measurement data); degenerate-but-finite inputs
  /// either recover through the documented numeric fallbacks or throw
  /// NumericError describing what was degenerate.
  [[nodiscard]] EstimateResult estimate(const linalg::Matrix& samples,
                                        const linalg::Vector& nominal) const;

  /// Convenience overload for nominal-free estimators; passes an empty
  /// nominal vector. Estimators that require one throw ContractError.
  [[nodiscard]] EstimateResult estimate(const linalg::Matrix& samples) const;

  // --- Stats-only --------------------------------------------------------

  /// Estimates from prebuilt raw-space sufficient statistics (no sample
  /// matrix reconversion). Hyper-parameter-selecting strategies cannot fold
  /// a single summary, so they select by model evidence here. Throws
  /// ContractError from strategies that genuinely need raw samples.
  [[nodiscard]] EstimateResult estimate(const SufficientStats& stats,
                                        const linalg::Vector& nominal) const;
  [[nodiscard]] EstimateResult estimate(const SufficientStats& stats) const;

  // --- Streaming ---------------------------------------------------------

  /// Fixes the late-stage nominal point the stream is relative to. Must be
  /// called before the first observe/absorb for strategies that shift by a
  /// nominal (they accumulate in their normalized space); immutable once
  /// samples have been observed (ContractError).
  void set_nominal(const linalg::Vector& nominal);
  [[nodiscard]] const linalg::Vector& nominal() const { return nominal_; }

  /// Folds one raw-space sample (or every row of a batch) into the stream.
  /// Samples are assigned round-robin to stream_folds() fold accumulators —
  /// the same i % folds split the batch CV engine uses — so snapshot() can
  /// cross-validate. O(d^2) per sample; non-finite cells throw DataError.
  void observe(const linalg::Vector& sample);
  void observe(const linalg::Matrix& samples);

  /// Folds a pre-summarized raw-space sample set into the stream (assigned
  /// round-robin over absorb calls). Exact in set semantics; not part of
  /// the bitwise block grid.
  void absorb(const SufficientStats& stats);

  /// Merges a wire-format shard (produced by export_shard of an equally
  /// configured estimator, so its folds are already in this estimator's
  /// stream space). Shard estimator tags must match name() when present;
  /// fold counts must agree; a shard nominal adopts into an untouched
  /// stream and must match an established one. Throws DataError on
  /// mismatched shards; the whole shard is checked before any state
  /// changes, so a rejected shard leaves the estimator (nominal included)
  /// as it was.
  void absorb(const stats::StatsShard& shard);

  /// Appends `other`'s stream after this one, fold by fold (concatenation
  /// semantics). Both estimators must agree on name(), fold count,
  /// dimension and nominal. Block-aligned splits reassemble bitwise.
  void merge(const MomentEstimator& other);

  /// Estimate from everything observed so far. Requires >= 1 sample (some
  /// strategies need more; they throw the same errors as their batch path).
  /// Repeatable: snapshot() does not disturb the stream. The result is
  /// cached until the next set_nominal/observe/absorb/merge/reset_stream,
  /// so a repeat call on an unchanged stream returns a copy without
  /// rerunning the selection; a throwing snapshot caches nothing.
  /// Threading: snapshot() fills that cache, so concurrent calls on one
  /// estimator need the caller's lock, as every mutator does.
  [[nodiscard]] EstimateResult snapshot() const;

  /// Samples observed/absorbed/merged into the stream so far.
  [[nodiscard]] std::size_t observed_count() const { return observed_; }

  /// The stream state as a wire-format shard (fold streams + nominal +
  /// name() tag), ready for serialize_shard / shard_to_json.
  [[nodiscard]] stats::StatsShard export_shard(std::uint64_t shard_id) const;

  /// Discards all streamed samples; keeps the nominal point.
  void reset_stream();

  /// Per-fold stream state (introspection for tests and the serve layer).
  [[nodiscard]] const std::vector<stats::StatStream>& streams() const {
    return streams_;
  }

 protected:
  /// Batch strategy hook; `samples` is non-empty and `nominal` is either
  /// empty or dimension-matched when this is called.
  [[nodiscard]] virtual EstimateResult do_estimate(
      const linalg::Matrix& samples, const linalg::Vector& nominal) const = 0;

  /// Stats-only strategy hook; `stats` is finite and non-empty, `nominal`
  /// empty or dimension-matched. Default: ContractError ("does not support
  /// estimation from sufficient statistics").
  [[nodiscard]] virtual EstimateResult do_estimate_stats(
      const SufficientStats& stats, const linalg::Vector& nominal) const;

  /// Snapshot strategy hook: one SufficientStats per fold (empty folds are
  /// dimension-matched with count 0), in this estimator's *stream space*
  /// (see stream_transform). Default: ContractError ("does not support
  /// streaming").
  [[nodiscard]] virtual EstimateResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& nominal) const;

  /// Number of fold accumulators the stream maintains (queried when the
  /// first sample arrives). Strategies that cross-validate return their
  /// fold count; default 1.
  [[nodiscard]] virtual std::size_t stream_folds() const { return 1; }

  /// Maps a raw-space sample into the space the stream accumulates in.
  /// Default: identity. BMF normalizes here so fold statistics are
  /// accumulated from O(1)-centered values instead of being algebraically
  /// re-centered at snapshot time (which would cancel catastrophically for
  /// metrics whose nominal dwarfs their spread).
  [[nodiscard]] virtual linalg::Vector stream_transform(
      const linalg::Vector& sample) const;

  /// Same map for pre-summarized statistics (absorb path). Default:
  /// identity. Transforming a summary is exact only in real arithmetic —
  /// see ShiftScale::apply(SufficientStats).
  [[nodiscard]] virtual SufficientStats stream_transform_stats(
      const SufficientStats& stats) const;

  /// Notification that set_nominal changed the nominal point (caches of
  /// nominal-derived transforms invalidate here). Default: no-op.
  virtual void on_nominal_changed() {}

 private:
  /// Shared body of the two observe overloads, minus the sample counter:
  /// the batch overload counts once per batch, not per row.
  void observe_row(const linalg::Vector& sample);

  /// Sizes the fold accumulators on first use and pins the dimension.
  void ensure_streams(std::size_t dimension);

  std::vector<stats::StatStream> streams_;  ///< one per fold; lazy init
  linalg::Vector nominal_;                  ///< empty until set_nominal
  std::size_t observed_ = 0;                ///< samples streamed so far
  std::size_t absorb_cursor_ = 0;           ///< round-robin fold for absorb
  /// Last snapshot() result; every mutator clears it before its first
  /// write (mutable: snapshot() is const).
  mutable std::optional<EstimateResult> snapshot_cache_;
};

/// The paper's baseline (eqs. 10-11) behind the unified interface. Ignores
/// the nominal point; works from a single sample (the covariance of fewer
/// samples than dimensions is rank deficient, as in the paper's baseline).
/// Streams raw samples into a single fold.
class MleEstimator final : public MomentEstimator {
 public:
  [[nodiscard]] std::string_view name() const override { return "mle"; }

 protected:
  [[nodiscard]] EstimateResult do_estimate(
      const linalg::Matrix& samples,
      const linalg::Vector& nominal) const override;
  [[nodiscard]] EstimateResult do_estimate_stats(
      const SufficientStats& stats,
      const linalg::Vector& nominal) const override;
  [[nodiscard]] EstimateResult do_snapshot(
      const std::vector<SufficientStats>& fold_totals,
      const linalg::Vector& nominal) const override;
};

}  // namespace bmfusion::core
