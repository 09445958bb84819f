// Sharded sufficient-statistic wire format.
//
// A StatsShard is the unit of exchange between independent accumulators
// (serve-layer workers, measurement sites, Monte Carlo shards) and a central
// combiner: a shard id for canonical ordering, an optional estimator tag and
// nominal vector (so a shard can carry full estimator stream state), and one
// StatStream per cross-validation fold. Two encodings round-trip losslessly:
//
//   * binary: fixed header (magic "BMFS", version, native-endianness
//     marker), length-delimited payload, FNV-1a 64 trailer checksum. The
//     reader rejects wrong magic/version/endianness, truncated frames and
//     checksum mismatches with typed DataError (the corrupt-frame contract
//     fuzzed in tests/test_streaming.cpp).
//   * JSON: self-describing object (doubles printed at 17 significant
//     digits, so values round-trip exactly) parsed with common/json.hpp.
//
// merge_shards() is the canonical combiner: shards are ordered by shard id
// before fold-wise StatStream concatenation, so the merged result is a pure
// function of the shard *set* — independent of arrival order and of how
// intermediate combiners grouped their inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "linalg/vector.hpp"
#include "stats/stat_stream.hpp"

namespace bmfusion::stats {

/// One worker's accumulated statistics, ready for the wire.
struct StatsShard {
  std::uint64_t shard_id = 0;     ///< canonical merge order key
  std::uint64_t population_id = 0;  ///< owning population (0 = sole/default)
  std::string estimator;          ///< optional estimator tag ("mle", "bmf")
  linalg::Vector nominal;         ///< optional late-stage nominal point
  std::vector<StatStream> folds;  ///< >= 1 stream; fold 0 for unfolded stats

  /// Dimension of the first non-empty fold (0 when all folds are empty).
  [[nodiscard]] std::size_t dimension() const;

  /// Total samples across folds.
  [[nodiscard]] std::size_t count() const;
};

/// Binary wire-format version this library writes. Version 2 added the
/// population id (multi-population fusion); version-1 frames still parse
/// and land in population 0.
inline constexpr std::uint16_t kStatsWireVersion = 2;

/// Serializes a shard to the versioned binary frame. Requires >= 1 fold.
[[nodiscard]] std::string serialize_shard(const StatsShard& shard);

/// Parses a binary frame. Throws DataError (with byte-offset context) on
/// bad magic, unsupported version, foreign endianness, truncation, trailing
/// bytes, checksum mismatch or structurally invalid payloads.
[[nodiscard]] StatsShard parse_shard(std::string_view bytes);

/// JSON encoding of the same payload (one object, no trailing newline).
/// Throws DataError naming the member when a value is non-finite: JSON has
/// no literal for one (serialize_shard carries it).
[[nodiscard]] std::string shard_to_json(const StatsShard& shard);

/// Parses the JSON encoding. Throws DataError on malformed documents,
/// wrong "format"/"version" markers, or structurally invalid payloads.
[[nodiscard]] StatsShard shard_from_json(const JsonValue& value);
[[nodiscard]] StatsShard shard_from_json_text(std::string_view text);

/// Canonical order-insensitive combine: sorts by shard id (ties keep input
/// order), checks fold-count/dimension/estimator/nominal/population
/// consistency, and concatenates fold-wise. The result carries the smallest
/// shard id. Requires >= 1 shard.
[[nodiscard]] StatsShard merge_shards(std::vector<StatsShard> shards);

}  // namespace bmfusion::stats
