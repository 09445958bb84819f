// Serve-layer sessions: one live streaming estimator per session id.
//
// A Session owns a MomentEstimator built from the JSON spec of an "open"
// request and serializes all access to it behind a mutex, so concurrent
// connections can observe into and estimate from the same session safely.
// Absorbed wire shards are cached by shard id per session, making shard
// delivery idempotent: a producer that retries an absorb after a dropped
// response cannot double-count its statistics.
//
// SessionRegistry is the process-wide id -> session map shared by every
// connection of a server (and by the stdio loop). Lookups hand out
// shared_ptrs so a session stays valid for an in-flight request even if
// another connection closes it concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/estimator.hpp"
#include "fusion/multi_population.hpp"
#include "linalg/matrix.hpp"
#include "stats/stat_wire.hpp"

namespace bmfusion::serve {

/// Builds an estimator from the JSON spec carried by an "open" request:
///
///   {"estimator": "mle" | "bmf" | "univariate-bmf",
///    "early":    {"mean": [...], "covariance": [[...]], "nominal": [...]},
///    "config":   {"folds": 4, "kappa_points": 12, "nu_points": 12,
///                 "kappa_min": .., "kappa_max": .., "nu_offset_min": ..,
///                 "nu_offset_max": .., "shift_scale": true,
///                 "selection": "cv" | "evidence"},
///    "nominal":  [...]}  // late-stage nominal; applied via set_nominal
///
/// "early" is required for bmf (with "nominal" inside it) and
/// univariate-bmf (moments only); "config" and the top-level "nominal" are
/// optional, and unknown config keys (such as the retired "threads") are
/// ignored. Malformed specs throw DataError; invalid configurations
/// propagate the core's ConfigError/ContractError.
[[nodiscard]] std::unique_ptr<core::MomentEstimator> make_estimator(
    const JsonValue& spec);

/// Builds a multi-population fusion engine from a fusion "open" spec:
///
///   {"estimator": "fusion",
///    "populations": [{"name": "tt_27c",
///                     "early": {"mean": [...], "covariance": [[...]],
///                               "nominal": [...]},
///                     "nominal": [...]},            // late-stage nominal
///                    ...],
///    "correlation": [[...]],  // optional raw N x N estimate; shrunk and
///                             // PSD-projected per the config before use
///    "config":  {.. the bmf knobs above, plus "shrinkage",
///                "min_eigenvalue", "signal_floor"}}
///
/// Each population needs its own "early" stage; names default to "p<index>".
[[nodiscard]] std::unique_ptr<fusion::MultiPopulationEstimator>
make_fusion_estimator(const JsonValue& spec);

/// JSON -> linalg conversions shared with the protocol layer. `what` names
/// the member in DataError messages ("samples", "early.mean", ...).
[[nodiscard]] linalg::Vector parse_vector(const JsonValue& value,
                                          const std::string& what);
[[nodiscard]] linalg::Matrix parse_matrix(const JsonValue& value,
                                          const std::string& what);

/// parse_integer's bound and its spelling in the error: a u32 for population
/// ids and config counts, 2^53 (exact in a double) for shard ids.
struct IntegerLimit {
  double max;
  const char* text;
};
inline constexpr IntegerLimit kU32Limit{4294967295.0, "2^32-1"};
inline constexpr IntegerLimit kShardIdLimit{9007199254740992.0, "2^53"};

/// An exact nonnegative integer no larger than `limit`. JSON numbers are
/// doubles: fractions, negatives, non-numbers and out-of-range values (inf
/// included) throw DataError naming `what` instead of being cast.
[[nodiscard]] std::uint64_t parse_integer(const JsonValue& value,
                                          const std::string& what,
                                          IntegerLimit limit);

/// A session call's result together with the session's total sample count
/// (summed over populations), both read under one lock acquisition so a
/// concurrent write cannot make the count describe a different stream.
template <typename T>
struct Counted {
  T value;
  std::size_t total = 0;
};

/// One session: a named streaming estimator plus its shard cache. A session
/// is either single-population (one MomentEstimator; every population index
/// must be 0) or a fusion session (a MultiPopulationEstimator; population
/// indices select the target stream).
class Session {
 public:
  Session(std::string id, std::unique_ptr<core::MomentEstimator> estimator);
  Session(std::string id,
          std::unique_ptr<fusion::MultiPopulationEstimator> fusion);

  [[nodiscard]] const std::string& id() const { return id_; }

  /// True for multi-population fusion sessions.
  [[nodiscard]] bool is_fusion() const { return fusion_ != nullptr; }

  /// Populations served by this session (1 unless is_fusion()).
  [[nodiscard]] std::size_t population_count() const;

  /// Estimator tag ("mle", "bmf", ..., "fusion") for responses.
  [[nodiscard]] std::string estimator_name() const;

  /// Streams every row of `samples` into population `population`; returns
  /// the session's new total count (summed over populations).
  std::size_t observe(const linalg::Matrix& samples,
                      std::size_t population = 0);

  /// Absorbs a wire shard unless its (population, shard id) pair was
  /// already absorbed into this session. `value` is false (and the stream
  /// untouched) for such duplicates. Fusion sessions route by the shard's
  /// own population id.
  Counted<bool> absorb(const stats::StatsShard& shard);

  /// The session's stream state as a wire shard (population `population`'s
  /// stream for fusion sessions, tagged with that id).
  [[nodiscard]] stats::StatsShard export_shard(
      std::uint64_t shard_id, std::size_t population = 0) const;

  /// Snapshot of the stream (>= 1 observed sample required, as per the
  /// estimator contract). Single-population sessions only. Repeat calls on
  /// an unchanged session are answered from the estimator's snapshot cache.
  [[nodiscard]] Counted<core::EstimateResult> estimate() const;

  /// Joint snapshot of a fusion session (throws on single-population ones).
  [[nodiscard]] Counted<fusion::FusionSnapshot> estimate_fusion() const;

  [[nodiscard]] std::size_t observed_count() const;

 private:
  /// Validates `population` against the session shape (under the lock).
  void check_population(std::size_t population, const char* operation) const;
  /// Total observed samples over every population (caller holds the lock).
  [[nodiscard]] std::size_t observed_total() const;

  std::string id_;
  mutable std::mutex mutex_;
  std::unique_ptr<core::MomentEstimator> estimator_;       ///< xor fusion_
  std::unique_ptr<fusion::MultiPopulationEstimator> fusion_;
  /// (population, shard id) pairs already absorbed.
  std::set<std::pair<std::uint64_t, std::uint64_t>> absorbed_shards_;
};

/// Point-in-time view of one open session, for /statusz and diagnostics.
struct SessionSummary {
  std::string id;
  std::string estimator;     ///< "mle", "bmf", ..., "fusion"
  std::size_t populations = 0;
  std::size_t observed = 0;  ///< samples observed, summed over populations
};

/// Thread-safe id -> Session map.
class SessionRegistry {
 public:
  /// Creates a session from an "open" spec. Throws DataError when the id is
  /// already open.
  std::shared_ptr<Session> open(const std::string& id,
                                const JsonValue& spec);

  /// Looks a session up; throws DataError for unknown ids.
  [[nodiscard]] std::shared_ptr<Session> get(const std::string& id) const;

  /// Closes a session; throws DataError for unknown ids. In-flight requests
  /// holding the shared_ptr finish against the detached session.
  void close(const std::string& id);

  [[nodiscard]] std::size_t size() const;

  /// Snapshot of every open session, ordered by id. Sessions opened or
  /// closed concurrently may or may not appear; each summary is internally
  /// consistent.
  [[nodiscard]] std::vector<SessionSummary> summaries() const;

 private:
  /// Refreshes the serve.sessions / serve.fusion_sessions /
  /// serve.open_populations gauges (caller holds mutex_).
  void update_gauges() const;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
};

}  // namespace bmfusion::serve
