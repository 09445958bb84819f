#include "stats/stat_wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/contracts.hpp"
#include "telemetry/decimal.hpp"

namespace bmfusion::stats {
namespace {

// ---------------------------------------------------------------------------
// Binary frame layout (all integers and doubles in native byte order; the
// endianness marker in the header rejects frames from foreign machines):
//
//   [0]  magic "BMFS" (4 bytes)
//   [4]  u16 version            [6]  u16 flags (reserved, 0)
//   [8]  u32 endian marker 0x01020304
//   [12] u64 shard_id
//   [20] u64 population_id      (version >= 2 only; v1 frames omit it)
//   [..] u32 dimension          (0 when every fold is empty and no nominal)
//   [..] u32 name_len + bytes
//   [..] u32 nominal_len + nominal_len f64
//   [..] u32 fold_count, then per fold:
//          u32 fold_dimension (0 for a never-touched stream)
//          u32 run_count, per run: u64 blocks + stats payload
//          u8  has_partial, stats payload if 1
//        stats payload: u64 count, d f64 sum, d(d+1)/2 f64 upper triangle
//   [..] u64 FNV-1a 64 checksum of every preceding byte
// ---------------------------------------------------------------------------

constexpr char kMagic[4] = {'B', 'M', 'F', 'S'};
constexpr std::uint32_t kEndianMarker = 0x01020304u;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a64(const char* data, std::size_t size) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
  return hash;
}

[[noreturn]] void frame_error(std::string what, std::size_t offset,
                              std::string detail) {
  throw DataError(std::move(what), ErrorContext{}
                                       .with_operation("parse_shard")
                                       .with_index(offset)
                                       .with_detail(std::move(detail)));
}

class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void bytes(std::string_view v) { out_.append(v.data(), v.size()); }

  void stats(const SufficientStats& s) {
    u64(s.count());
    const std::size_t d = s.dimension();
    for (std::size_t r = 0; r < d; ++r) f64(s.sum()[r]);
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t c = r; c < d; ++c) f64(s.sum_outer()(r, c));
    }
  }

  std::string finish() && {
    const std::uint64_t checksum = fnv1a64(out_.data(), out_.size());
    u64(checksum);
    return std::move(out_);
  }

 private:
  void raw(const void* data, std::size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return scalar<std::uint8_t>("u8"); }
  std::uint16_t u16() { return scalar<std::uint16_t>("u16"); }
  std::uint32_t u32() { return scalar<std::uint32_t>("u32"); }
  std::uint64_t u64() { return scalar<std::uint64_t>("u64"); }
  double f64() { return scalar<double>("f64"); }

  std::string string(std::size_t length) {
    require(length, "string");
    std::string out(bytes_.substr(offset_, length));
    offset_ += length;
    return out;
  }

  SufficientStats stats(std::size_t dimension) {
    const std::uint64_t count = u64();
    if (count == 0) {
      frame_error("stats shard frame has a zero-count stats payload", offset_,
                  "run/partial payloads must summarize >= 1 sample");
    }
    linalg::Vector sum(dimension);
    for (std::size_t r = 0; r < dimension; ++r) sum[r] = f64();
    linalg::Matrix outer(dimension, dimension);
    for (std::size_t r = 0; r < dimension; ++r) {
      for (std::size_t c = r; c < dimension; ++c) {
        const double v = f64();
        outer(r, c) = v;
        outer(c, r) = v;
      }
    }
    return SufficientStats::from_raw(static_cast<std::size_t>(count),
                                     std::move(sum), std::move(outer));
  }

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }
  [[nodiscard]] const char* data() const { return bytes_.data(); }

 private:
  template <typename T>
  T scalar(const char* what) {
    require(sizeof(T), what);
    T value;
    std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  void require(std::size_t size, const char* what) {
    if (bytes_.size() - offset_ < size) {
      frame_error("truncated stats shard frame", offset_,
                  std::string("while reading ") + what);
    }
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

/// The one dimension every non-empty fold (and the nominal) must share.
/// Throws DataError on internal disagreement; `source` names the codec path.
std::size_t common_dimension(const StatsShard& shard, const char* source) {
  std::size_t dim = shard.nominal.size();
  for (const StatStream& fold : shard.folds) {
    if (fold.dimension() == 0) continue;
    if (dim == 0) {
      dim = fold.dimension();
    } else if (fold.dimension() != dim) {
      throw DataError("stats shard folds disagree on dimension",
                      ErrorContext{}
                          .with_operation(source)
                          .with_dimension(dim)
                          .with_value(static_cast<double>(fold.dimension())));
    }
  }
  return dim;
}

// --- JSON helpers ----------------------------------------------------------

/// JSON has no literal for a non-finite number, so a shard holding one (a
/// sum of squares past DBL_MAX, say) cannot be written as JSON: the
/// DataError names the member, and the binary frame still carries the value.
[[noreturn]] void non_finite_error(double value, std::string member) {
  throw DataError(
      "stats shard holds a non-finite value, which JSON cannot carry",
      ErrorContext{}
          .with_operation("shard_to_json")
          .with_value(value)
          .with_detail(std::move(member)));
}

/// Throws non_finite_error for the first non-finite value of `s`. `place()`
/// spells the payload's JSON path ("folds[0].partial"), only when throwing.
template <typename Place>
void require_finite(const SufficientStats& s, const Place& place) {
  const std::size_t d = s.dimension();
  for (std::size_t r = 0; r < d; ++r) {
    if (!std::isfinite(s.sum()[r])) {
      non_finite_error(s.sum()[r], place() + ".sum");
    }
  }
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = r; c < d; ++c) {
      if (!std::isfinite(s.sum_outer()(r, c))) {
        non_finite_error(s.sum_outer()(r, c), place() + ".sum_outer_upper");
      }
    }
  }
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

void append_json_stats(std::string& out, const SufficientStats& s) {
  out += "{\"count\":";
  out += std::to_string(s.count());
  out += ",\"sum\":[";
  const std::size_t d = s.dimension();
  for (std::size_t r = 0; r < d; ++r) {
    if (r) out += ',';
    telemetry::append_double(out, s.sum()[r]);
  }
  out += "],\"sum_outer_upper\":[";
  bool first = true;
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = r; c < d; ++c) {
      if (!first) out += ',';
      first = false;
      telemetry::append_double(out, s.sum_outer()(r, c));
    }
  }
  out += "]}";
}

[[noreturn]] void json_error(std::string what, std::string detail) {
  throw DataError(std::move(what), ErrorContext{}
                                       .with_operation("shard_from_json")
                                       .with_detail(std::move(detail)));
}

const JsonValue& json_member(const JsonValue& obj, const char* key) {
  const JsonValue* member = obj.find(key);
  if (member == nullptr) {
    json_error("stats shard JSON is missing a required member", key);
  }
  return *member;
}

std::size_t json_size(const JsonValue& value, const char* what) {
  const double v = value.as_number();
  if (v < 0 || v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    json_error("stats shard JSON member is not a non-negative integer", what);
  }
  return static_cast<std::size_t>(v);
}

SufficientStats json_stats(const JsonValue& value, std::size_t dimension) {
  const std::size_t count = json_size(json_member(value, "count"), "count");
  if (count == 0) {
    json_error("stats payload must summarize >= 1 sample", "count");
  }
  const auto& sum_json = json_member(value, "sum").as_array();
  if (sum_json.size() != dimension) {
    json_error("stats payload sum length disagrees with dimension", "sum");
  }
  linalg::Vector sum(dimension);
  for (std::size_t r = 0; r < dimension; ++r) {
    sum[r] = sum_json[r].as_number();
  }
  const auto& upper = json_member(value, "sum_outer_upper").as_array();
  if (upper.size() != dimension * (dimension + 1) / 2) {
    json_error("stats payload upper-triangle length disagrees with dimension",
               "sum_outer_upper");
  }
  linalg::Matrix outer(dimension, dimension);
  std::size_t k = 0;
  for (std::size_t r = 0; r < dimension; ++r) {
    for (std::size_t c = r; c < dimension; ++c, ++k) {
      const double v = upper[k].as_number();
      outer(r, c) = v;
      outer(c, r) = v;
    }
  }
  return SufficientStats::from_raw(count, std::move(sum), std::move(outer));
}

StatStream parse_stream(std::size_t fold_dimension,
                        std::vector<StatStream::Run> runs,
                        SufficientStats partial, const char* source) {
  if (fold_dimension == 0) {
    if (!runs.empty() || partial.count() > 0) {
      throw DataError("stats shard fold has payloads but no dimension",
                      ErrorContext{}.with_operation(source));
    }
    return StatStream{};
  }
  try {
    return StatStream::from_parts(fold_dimension, std::move(runs),
                                  std::move(partial));
  } catch (const ContractError& err) {
    // Structural invariants (power-of-two runs, partial < block size) are
    // contract checks internally but data errors when the bytes came off
    // the wire.
    throw DataError(std::string("invalid stats shard fold: ") + err.what(),
                    ErrorContext{}.with_operation(source));
  }
}

}  // namespace

std::size_t StatsShard::dimension() const {
  for (const StatStream& fold : folds) {
    if (fold.dimension() != 0) return fold.dimension();
  }
  return 0;
}

std::size_t StatsShard::count() const {
  std::size_t total = 0;
  for (const StatStream& fold : folds) total += fold.count();
  return total;
}

std::string serialize_shard(const StatsShard& shard) {
  BMFUSION_REQUIRE(!shard.folds.empty(),
                   "stats shard needs at least one fold stream");
  const std::size_t dim = common_dimension(shard, "serialize_shard");
  BMFUSION_REQUIRE(shard.nominal.size() == 0 || shard.nominal.size() == dim,
                   "stats shard nominal dimension mismatch");

  Writer w;
  w.bytes(std::string_view(kMagic, sizeof kMagic));
  w.u16(kStatsWireVersion);
  w.u16(0);  // flags, reserved
  w.u32(kEndianMarker);
  w.u64(shard.shard_id);
  w.u64(shard.population_id);
  w.u32(static_cast<std::uint32_t>(dim));
  w.u32(static_cast<std::uint32_t>(shard.estimator.size()));
  w.bytes(shard.estimator);
  w.u32(static_cast<std::uint32_t>(shard.nominal.size()));
  for (std::size_t r = 0; r < shard.nominal.size(); ++r) {
    w.f64(shard.nominal[r]);
  }
  w.u32(static_cast<std::uint32_t>(shard.folds.size()));
  for (const StatStream& fold : shard.folds) {
    w.u32(static_cast<std::uint32_t>(fold.dimension()));
    w.u32(static_cast<std::uint32_t>(fold.runs().size()));
    for (const StatStream::Run& run : fold.runs()) {
      w.u64(run.blocks);
      w.stats(run.stats);
    }
    w.u8(fold.partial_count() > 0 ? 1 : 0);
    if (fold.partial_count() > 0) {
      w.stats(fold.partial());
    }
  }
  return std::move(w).finish();
}

StatsShard parse_shard(std::string_view bytes) {
  Reader r(bytes);
  const std::string magic = r.string(sizeof kMagic);
  if (std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0) {
    frame_error("stats shard frame has bad magic", 0,
                "expected \"BMFS\" header");
  }
  const std::uint16_t version = r.u16();
  if (version != 1 && version != kStatsWireVersion) {
    frame_error("unsupported stats shard frame version", 4,
                "this build reads versions 1.." +
                    std::to_string(kStatsWireVersion) + ", frame has " +
                    std::to_string(version));
  }
  (void)r.u16();  // flags, reserved
  const std::uint32_t endian = r.u32();
  if (endian != kEndianMarker) {
    frame_error("stats shard frame written with foreign endianness", 8,
                "endianness marker mismatch");
  }

  StatsShard shard;
  shard.shard_id = r.u64();
  if (version >= 2) {
    shard.population_id = r.u64();
  }
  const std::size_t dim = r.u32();
  const std::size_t name_len = r.u32();
  shard.estimator = r.string(name_len);
  const std::size_t nominal_len = r.u32();
  if (nominal_len != 0) {
    if (nominal_len != dim) {
      frame_error("stats shard nominal length disagrees with dimension",
                  r.offset(), "nominal length " + std::to_string(nominal_len));
    }
    shard.nominal = linalg::Vector(nominal_len);
    for (std::size_t i = 0; i < nominal_len; ++i) {
      shard.nominal[i] = r.f64();
    }
  }

  const std::size_t fold_count = r.u32();
  if (fold_count == 0) {
    frame_error("stats shard frame has zero folds", r.offset(),
                "a shard carries >= 1 fold stream");
  }
  // A fold needs >= 9 bytes (two u32 counts + has_partial byte); bounding
  // fold_count by the remaining bytes stops hostile headers from reserving
  // gigabytes before the truncation check fires.
  if (fold_count > r.remaining()) {
    frame_error("truncated stats shard frame", r.offset(),
                "fold count exceeds remaining payload");
  }
  shard.folds.reserve(fold_count);
  for (std::size_t f = 0; f < fold_count; ++f) {
    const std::size_t fold_dim = r.u32();
    if (fold_dim != 0 && fold_dim != dim) {
      frame_error("stats shard fold dimension disagrees with header",
                  r.offset(), "fold " + std::to_string(f));
    }
    const std::size_t run_count = r.u32();
    if (run_count > r.remaining()) {
      frame_error("truncated stats shard frame", r.offset(),
                  "run count exceeds remaining payload");
    }
    std::vector<StatStream::Run> runs;
    runs.reserve(run_count);
    for (std::size_t i = 0; i < run_count; ++i) {
      StatStream::Run run;
      run.blocks = r.u64();
      run.stats = r.stats(fold_dim);
      runs.push_back(std::move(run));
    }
    SufficientStats partial;
    if (r.u8() != 0) {
      partial = r.stats(fold_dim);
    }
    shard.folds.push_back(
        parse_stream(fold_dim, std::move(runs), std::move(partial),
                     "parse_shard"));
  }

  const std::size_t payload_end = r.offset();
  const std::uint64_t stored = r.u64();
  if (r.remaining() != 0) {
    frame_error("stats shard frame has trailing bytes", r.offset(),
                std::to_string(r.remaining()) + " bytes past the checksum");
  }
  const std::uint64_t computed = fnv1a64(r.data(), payload_end);
  if (stored != computed) {
    frame_error("stats shard frame checksum mismatch", payload_end,
                "frame corrupted in transit");
  }
  return shard;
}

std::string shard_to_json(const StatsShard& shard) {
  BMFUSION_REQUIRE(!shard.folds.empty(),
                   "stats shard needs at least one fold stream");
  const std::size_t dim = common_dimension(shard, "shard_to_json");
  BMFUSION_REQUIRE(shard.nominal.size() == 0 || shard.nominal.size() == dim,
                   "stats shard nominal dimension mismatch");

  std::string out = "{\"format\":\"bmfusion.stats_shard\",\"version\":";
  out += std::to_string(kStatsWireVersion);
  out += ",\"shard_id\":";
  out += std::to_string(shard.shard_id);
  out += ",\"population\":";
  out += std::to_string(shard.population_id);
  out += ",\"estimator\":";
  append_json_string(out, shard.estimator);
  out += ",\"dimension\":";
  out += std::to_string(dim);
  out += ",\"nominal\":[";
  for (std::size_t r = 0; r < shard.nominal.size(); ++r) {
    if (r) out += ',';
    if (!std::isfinite(shard.nominal[r])) {
      non_finite_error(shard.nominal[r], "nominal");
    }
    telemetry::append_double(out, shard.nominal[r]);
  }
  out += "],\"folds\":[";
  for (std::size_t f = 0; f < shard.folds.size(); ++f) {
    const StatStream& fold = shard.folds[f];
    if (f) out += ',';
    out += "{\"dimension\":";
    out += std::to_string(fold.dimension());
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < fold.runs().size(); ++i) {
      if (i) out += ',';
      out += "{\"blocks\":";
      out += std::to_string(fold.runs()[i].blocks);
      out += ",\"stats\":";
      require_finite(fold.runs()[i].stats, [&] {
        return "folds[" + std::to_string(f) + "].runs[" + std::to_string(i) +
               "].stats";
      });
      append_json_stats(out, fold.runs()[i].stats);
      out += '}';
    }
    out += ']';
    if (fold.partial_count() > 0) {
      out += ",\"partial\":";
      require_finite(fold.partial(), [&] {
        return "folds[" + std::to_string(f) + "].partial";
      });
      append_json_stats(out, fold.partial());
    }
    out += '}';
  }
  out += "]}";
  return out;
}

StatsShard shard_from_json(const JsonValue& value) {
  if (!value.is_object()) {
    json_error("stats shard JSON must be an object", "document root");
  }
  const std::string format = value.string_or("format", "");
  if (format != "bmfusion.stats_shard") {
    json_error("stats shard JSON has a wrong \"format\" marker", format);
  }
  const std::size_t version =
      json_size(json_member(value, "version"), "version");
  if (version != 1 && version != kStatsWireVersion) {
    json_error("unsupported stats shard JSON version",
               std::to_string(version));
  }

  StatsShard shard;
  shard.shard_id = static_cast<std::uint64_t>(
      json_size(json_member(value, "shard_id"), "shard_id"));
  if (const JsonValue* population = value.find("population")) {
    shard.population_id =
        static_cast<std::uint64_t>(json_size(*population, "population"));
  }
  shard.estimator = value.string_or("estimator", "");
  const std::size_t dim =
      json_size(json_member(value, "dimension"), "dimension");
  const auto& nominal = json_member(value, "nominal").as_array();
  if (!nominal.empty()) {
    if (nominal.size() != dim) {
      json_error("nominal length disagrees with dimension", "nominal");
    }
    shard.nominal = linalg::Vector(nominal.size());
    for (std::size_t i = 0; i < nominal.size(); ++i) {
      shard.nominal[i] = nominal[i].as_number();
    }
  }

  const auto& folds = json_member(value, "folds").as_array();
  if (folds.empty()) {
    json_error("stats shard JSON has zero folds", "folds");
  }
  shard.folds.reserve(folds.size());
  for (const JsonValue& fold_json : folds) {
    const std::size_t fold_dim =
        json_size(json_member(fold_json, "dimension"), "fold dimension");
    if (fold_dim != 0 && fold_dim != dim) {
      json_error("fold dimension disagrees with shard dimension", "folds");
    }
    const auto& runs_json = json_member(fold_json, "runs").as_array();
    std::vector<StatStream::Run> runs;
    runs.reserve(runs_json.size());
    for (const JsonValue& run_json : runs_json) {
      StatStream::Run run;
      run.blocks = static_cast<std::uint64_t>(
          json_size(json_member(run_json, "blocks"), "blocks"));
      run.stats = json_stats(json_member(run_json, "stats"), fold_dim);
      runs.push_back(std::move(run));
    }
    SufficientStats partial;
    if (const JsonValue* partial_json = fold_json.find("partial")) {
      partial = json_stats(*partial_json, fold_dim);
    }
    shard.folds.push_back(parse_stream(fold_dim, std::move(runs),
                                       std::move(partial),
                                       "shard_from_json"));
  }
  return shard;
}

StatsShard shard_from_json_text(std::string_view text) {
  return shard_from_json(parse_json(text));
}

StatsShard merge_shards(std::vector<StatsShard> shards) {
  BMFUSION_REQUIRE(!shards.empty(), "merge_shards needs >= 1 shard");
  std::stable_sort(shards.begin(), shards.end(),
                   [](const StatsShard& a, const StatsShard& b) {
                     return a.shard_id < b.shard_id;
                   });
  StatsShard merged = std::move(shards.front());
  for (std::size_t s = 1; s < shards.size(); ++s) {
    StatsShard& shard = shards[s];
    if (shard.population_id != merged.population_id) {
      throw DataError(
          "stats shards disagree on population id",
          ErrorContext{}
              .with_operation("merge_shards")
              .with_index(s)
              .with_detail(std::to_string(merged.population_id) + " vs " +
                           std::to_string(shard.population_id)));
    }
    if (shard.folds.size() != merged.folds.size()) {
      throw DataError("stats shards disagree on fold count",
                      ErrorContext{}
                          .with_operation("merge_shards")
                          .with_index(s)
                          .with_detail(std::to_string(merged.folds.size()) +
                                       " vs " +
                                       std::to_string(shard.folds.size())));
    }
    if (!shard.estimator.empty()) {
      if (merged.estimator.empty()) {
        merged.estimator = std::move(shard.estimator);
      } else if (shard.estimator != merged.estimator) {
        throw DataError("stats shards disagree on estimator tag",
                        ErrorContext{}
                            .with_operation("merge_shards")
                            .with_index(s)
                            .with_detail(merged.estimator + " vs " +
                                         shard.estimator));
      }
    }
    if (shard.nominal.size() != 0) {
      if (merged.nominal.size() == 0) {
        merged.nominal = std::move(shard.nominal);
      } else if (!(shard.nominal == merged.nominal)) {
        throw DataError("stats shards disagree on the nominal point",
                        ErrorContext{}
                            .with_operation("merge_shards")
                            .with_index(s));
      }
    }
    for (std::size_t f = 0; f < merged.folds.size(); ++f) {
      merged.folds[f].merge(shard.folds[f]);
    }
  }
  return merged;
}

}  // namespace bmfusion::stats
