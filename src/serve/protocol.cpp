#include "serve/protocol.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "core/estimator.hpp"
#include "linalg/matrix.hpp"
#include "log/log.hpp"
#include "stats/stat_wire.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::serve {

using linalg::Matrix;
using linalg::Vector;

namespace {

std::atomic<std::uint64_t> g_request_ids{0};
std::atomic<std::uint64_t> g_slow_threshold_ns{0};

}  // namespace

std::uint64_t process_start_ns() {
  static const std::uint64_t start = telemetry::now_ns();
  return start;
}

double process_uptime_s() {
  return static_cast<double>(telemetry::now_ns() - process_start_ns()) * 1e-9;
}

std::uint64_t next_request_id() {
  return g_request_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

void set_slow_request_threshold_us(double us) {
  g_slow_threshold_ns.store(
      us > 0.0 ? static_cast<std::uint64_t>(us * 1e3) : 0u,
      std::memory_order_relaxed);
}

double slow_request_threshold_us() {
  return static_cast<double>(
             g_slow_threshold_ns.load(std::memory_order_relaxed)) *
         1e-3;
}

namespace {

/// Known ops, indexing the per-op metric table. kUnknown also covers
/// requests that fail before an op string was parsed.
enum class OpId : std::size_t {
  kPing = 0,
  kHello,
  kOpen,
  kObserve,
  kAbsorb,
  kStats,
  kEstimate,
  kClose,
  kShutdown,
  kMetrics,
  kUnknown,
  kCount,
};

constexpr const char* kOpNames[] = {
    "ping",  "hello",    "open",    "observe", "absorb", "stats",
    "estimate", "close", "shutdown", "metrics", "unknown",
};

const char* op_name(OpId id) { return kOpNames[static_cast<std::size_t>(id)]; }

#if BMFUSION_TELEMETRY_ENABLED
/// Per-op request counter + latency histogram. The BMF_* macros cache one
/// metric per call site, which cannot key on a runtime op — this table
/// resolves every per-op metric once (first call registers, allocating),
/// after which recording is lock- and allocation-free, preserving the
/// hot-path contract the alloc-contract test checks.
struct OpMetrics {
  telemetry::Counter& requests;
  telemetry::Histogram& latency_us;
};

const OpMetrics& op_metrics(OpId id) {
  auto& reg = telemetry::Registry::instance();
  static const std::array<OpMetrics, static_cast<std::size_t>(OpId::kCount)>
      table{{
          {reg.counter("serve.ping.requests"),
           reg.histogram("serve.ping.latency_us")},
          {reg.counter("serve.hello.requests"),
           reg.histogram("serve.hello.latency_us")},
          {reg.counter("serve.open.requests"),
           reg.histogram("serve.open.latency_us")},
          {reg.counter("serve.observe.requests"),
           reg.histogram("serve.observe.latency_us")},
          {reg.counter("serve.absorb.requests"),
           reg.histogram("serve.absorb.latency_us")},
          {reg.counter("serve.stats.requests"),
           reg.histogram("serve.stats.latency_us")},
          {reg.counter("serve.estimate.requests"),
           reg.histogram("serve.estimate.latency_us")},
          {reg.counter("serve.close.requests"),
           reg.histogram("serve.close.latency_us")},
          {reg.counter("serve.shutdown.requests"),
           reg.histogram("serve.shutdown.latency_us")},
          {reg.counter("serve.metrics.requests"),
           reg.histogram("serve.metrics.latency_us")},
          {reg.counter("serve.unknown.requests"),
           reg.histogram("serve.unknown.latency_us")},
      }};
  return table[static_cast<std::size_t>(id)];
}
#endif

void record_op(OpId id, std::uint64_t elapsed_ns) {
#if BMFUSION_TELEMETRY_ENABLED
  const OpMetrics& m = op_metrics(id);
  m.requests.add(1);
  m.latency_us.record(static_cast<double>(elapsed_ns) * 1e-3);
#else
  (void)id;
  (void)elapsed_ns;
#endif
}

/// Per-class error counters beside the aggregate serve.errors.
enum class ErrorClass { kData, kConfig, kNumeric, kContract, kInternal };

void record_error(ErrorClass cls) {
  BMF_COUNTER_ADD("serve.errors", 1);
  switch (cls) {
    case ErrorClass::kData: BMF_COUNTER_ADD("serve.errors.data", 1); break;
    case ErrorClass::kConfig:
      BMF_COUNTER_ADD("serve.errors.config", 1);
      break;
    case ErrorClass::kNumeric:
      BMF_COUNTER_ADD("serve.errors.numeric", 1);
      break;
    case ErrorClass::kContract:
      BMF_COUNTER_ADD("serve.errors.contract", 1);
      break;
    case ErrorClass::kInternal:
      BMF_COUNTER_ADD("serve.errors.internal", 1);
      break;
  }
}

/// Off the hot path by construction: only entered once a request already
/// blew the slow threshold, so the structured log record and counter are
/// free to allocate.
void note_slow_request(OpId op, const std::string& session,
                       std::uint64_t request_id, std::uint64_t elapsed_ns,
                       std::size_t bytes) {
  BMF_COUNTER_ADD("serve.slow_requests", 1);
  BMF_LOG_WARN("slow serve request", log::f("op", op_name(op)),
               log::f("session", session), log::f("request_id", request_id),
               log::f("latency_us", static_cast<double>(elapsed_ns) * 1e-3),
               log::f("bytes", bytes));
}

[[nodiscard]] bool past_slow_threshold(std::uint64_t elapsed_ns) {
  const std::uint64_t slow_ns =
      g_slow_threshold_ns.load(std::memory_order_relaxed);
  return slow_ns != 0 && elapsed_ns >= slow_ns;
}

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
}

/// 17 significant digits round-trip doubles exactly; non-finite values
/// (unselected hyper-parameters) have no JSON spelling and become null.
void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void append_vector(std::string& out, const Vector& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_double(out, v[i]);
  }
  out += ']';
}

void append_matrix(std::string& out, const Matrix& m) {
  out += '[';
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r != 0) out += ',';
    out += '[';
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c != 0) out += ',';
      append_double(out, m(r, c));
    }
    out += ']';
  }
  out += ']';
}

/// {"ok":true,"op":<op>,"session":<id>  — caller appends members + "}".
std::string response_head(std::string_view op, std::string_view session) {
  std::string out = "{\"ok\":true,\"op\":\"";
  append_escaped(out, op);
  out += '"';
  if (!session.empty()) {
    out += ",\"session\":\"";
    append_escaped(out, session);
    out += '"';
  }
  return out;
}

std::string error_response(std::string_view type, std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":{\"type\":\"";
  append_escaped(out, type);
  out += "\",\"message\":\"";
  append_escaped(out, message);
  out += "\"}}";
  return out;
}

std::string required_string(const JsonValue& request, const char* key) {
  const JsonValue* value = request.find(key);
  if (value == nullptr || !value->is_string()) {
    throw DataError(std::string("request needs a string \"") + key + "\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  return value->as_string();
}

const JsonValue& required_member(const JsonValue& request, const char* key) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) {
    throw DataError(std::string("request needs \"") + key + "\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  return *value;
}

std::string handle_open(SessionRegistry& registry, const JsonValue& request) {
  const std::string id = required_string(request, "session");
  const std::shared_ptr<Session> session = registry.open(id, request);
  std::string out = response_head("open", id);
  out += ",\"estimator\":\"";
  append_escaped(out, session->estimator_name());
  out += "\"}";
  return out;
}

/// Optional "population" member: a stream index of a fusion session. JSON
/// numbers are doubles, so only exact nonnegative integers that fit the
/// binary framing's u32 are accepted.
std::size_t parse_population(const JsonValue& request) {
  const JsonValue* value = request.find("population");
  if (value == nullptr) return 0;
  constexpr double kMaxPopulation = 4294967295.0;  // u32 max
  const double raw = value->is_number() ? value->as_number() : -1.0;
  if (!value->is_number() || raw < 0.0 || std::floor(raw) != raw ||
      raw > kMaxPopulation) {
    throw DataError(
        "\"population\" must be a nonnegative integer no larger than 2^32-1",
        ErrorContext{}.with_operation("serve_protocol").with_detail(
            "field: population"));
  }
  return static_cast<std::size_t>(raw);
}

std::string handle_observe(SessionRegistry& registry,
                           const JsonValue& request) {
  const std::string id = required_string(request, "session");
  const std::size_t population = parse_population(request);
  const Matrix samples =
      parse_matrix(required_member(request, "samples"), "samples");
  const std::size_t total = registry.get(id)->observe(samples, population);
  BMF_COUNTER_ADD("serve.observed_samples", samples.rows());
  std::string out = response_head("observe", id);
  if (request.find("population") != nullptr) {
    out += ",\"population\":" + std::to_string(population);
  }
  out += ",\"observed\":" + std::to_string(samples.rows());
  out += ",\"total\":" + std::to_string(total) + "}";
  return out;
}

std::string handle_absorb(SessionRegistry& registry,
                          const JsonValue& request) {
  const std::string id = required_string(request, "session");
  const stats::StatsShard shard =
      stats::shard_from_json(required_member(request, "shard"));
  const Counted<bool> absorbed = registry.get(id)->absorb(shard);
  std::string out = response_head("absorb", id);
  out += absorbed.value ? ",\"duplicate\":false" : ",\"duplicate\":true";
  out += ",\"total\":" + std::to_string(absorbed.total) + "}";
  return out;
}

/// JSON numbers are doubles, so a shard id survives the trip only while it
/// is an exactly-representable integer: non-integral values and anything
/// above 2^53 would be silently mangled by the cast. Reject both.
std::uint64_t parse_shard_id(const JsonValue& value) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  const double raw = value.is_number() ? value.as_number() : -1.0;
  if (!value.is_number() || raw < 0.0 || std::floor(raw) != raw ||
      raw > kMaxExact) {
    throw DataError(
        "\"shard_id\" must be a nonnegative integer no larger than 2^53",
        ErrorContext{}.with_operation("serve_protocol").with_detail(
            "field: shard_id"));
  }
  return static_cast<std::uint64_t>(raw);
}

std::string handle_stats(SessionRegistry& registry, const JsonValue& request) {
  const std::string id = required_string(request, "session");
  const std::size_t population = parse_population(request);
  std::uint64_t shard_id = 0;
  if (const JsonValue* v = request.find("shard_id")) {
    shard_id = parse_shard_id(*v);
  }
  const stats::StatsShard shard =
      registry.get(id)->export_shard(shard_id, population);
  std::string out = response_head("stats", id);
  out += ",\"shard\":" + stats::shard_to_json(shard) + "}";
  return out;
}

/// {"mean":[..],"covariance":[[..]],"kappa0":..,"nu0":..,"score":..}
void append_estimate(std::string& out, const core::EstimateResult& result) {
  out += "{\"mean\":";
  append_vector(out, result.moments.mean);
  out += ",\"covariance\":";
  append_matrix(out, result.moments.covariance);
  out += ",\"kappa0\":";
  append_double(out, result.kappa0);
  out += ",\"nu0\":";
  append_double(out, result.nu0);
  out += ",\"score\":";
  append_double(out, result.score);
  out += '}';
}

/// Joint fusion response: one entry per population with the fused estimate
/// (headline), the independent posterior when the population has its own
/// usable samples, and the borrowing diagnostics.
std::string fusion_estimate_response(const std::string& id,
                                     const Session& session) {
  const Counted<fusion::FusionSnapshot> counted = session.estimate_fusion();
  const fusion::FusionSnapshot& snapshot = counted.value;
  std::string out = response_head("estimate", id);
  out += ",\"count\":" + std::to_string(counted.total);
  out += ",\"observed_populations\":" +
         std::to_string(snapshot.observed_populations);
  out += ",\"signal_variance\":";
  append_double(out, snapshot.signal_variance);
  out += ",\"correlation\":";
  append_matrix(out, snapshot.correlation);
  out += ",\"populations\":[";
  for (std::size_t p = 0; p < snapshot.populations.size(); ++p) {
    const fusion::PopulationEstimate& pop = snapshot.populations[p];
    if (p != 0) out += ',';
    out += "{\"population\":" + std::to_string(p);
    out += ",\"name\":\"";
    append_escaped(out, pop.name);
    out += "\",\"observed\":" + std::to_string(pop.observed);
    out += ",\"borrowed_kappa\":";
    append_double(out, pop.borrowed_kappa);
    out += ",\"anchor_shift\":";
    append_double(out, pop.anchor_shift);
    if (!pop.error.empty()) {
      out += ",\"error\":\"";
      append_escaped(out, pop.error);
      out += '"';
    }
    out += ",\"fused\":";
    append_estimate(out, pop.fused);
    if (pop.observed > 0 && pop.error.empty()) {
      out += ",\"independent\":";
      append_estimate(out, pop.independent);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string handle_estimate(SessionRegistry& registry,
                            const JsonValue& request) {
  const std::string id = required_string(request, "session");
  const std::shared_ptr<Session> session = registry.get(id);
  if (session->is_fusion()) return fusion_estimate_response(id, *session);
  const Counted<core::EstimateResult> result = session->estimate();
  std::string out = response_head("estimate", id);
  out += ",\"count\":" + std::to_string(result.total);
  out += ",\"estimate\":";
  append_estimate(out, result.value);
  out += '}';
  return out;
}

std::string handle_close(SessionRegistry& registry, const JsonValue& request) {
  const std::string id = required_string(request, "session");
  registry.close(id);
  return response_head("close", id) + "}";
}

/// ,"server_version":"..","wire_version":N,"uptime_s":X — the compatibility
/// triple ping/hello answer and /statusz echoes.
void append_version_fields(std::string& out) {
  out += ",\"server_version\":\"";
  append_escaped(out, kServerVersion);
  out += "\",\"wire_version\":";
  out += std::to_string(kWireVersion);
  out += ",\"uptime_s\":";
  append_double(out, process_uptime_s());
}

std::string handle_ping(std::uint64_t request_id) {
  std::string out = response_head("ping", "");
  out += ",\"request_id\":" + std::to_string(request_id);
  append_version_fields(out);
  out += '}';
  return out;
}

std::string handle_metrics(std::uint64_t request_id) {
  std::string out = response_head("metrics", "");
  out += ",\"request_id\":" + std::to_string(request_id);
  append_version_fields(out);
  out += ",\"telemetry\":";
  out += telemetry::json_snapshot_compact();
  out += '}';
  return out;
}

std::string handle_hello(const JsonValue& request, bool& switch_to_binary) {
  const std::string mode = request.string_or("mode", "json");
  if (mode != "json" && mode != "binary") {
    throw DataError("\"mode\" must be \"json\" or \"binary\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  switch_to_binary = mode == "binary";
  std::string out = response_head("hello", "");
  out += ",\"mode\":\"" + mode + "\"";
  append_version_fields(out);
  out += '}';
  return out;
}

std::string dispatch(SessionRegistry& registry, const JsonValue& request,
                     ProtocolResult& result, OpId& op_id,
                     std::string& session) {
  if (!request.is_object()) {
    throw DataError("request must be a JSON object",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  const std::string op = required_string(request, "op");
  if (const JsonValue* s = request.find("session");
      s != nullptr && s->is_string()) {
    session = s->as_string();
  }
  if (op == "ping") {
    op_id = OpId::kPing;
    return handle_ping(result.request_id);
  }
  if (op == "hello") {
    op_id = OpId::kHello;
    return handle_hello(request, result.switch_to_binary);
  }
  if (op == "open") {
    op_id = OpId::kOpen;
    return handle_open(registry, request);
  }
  if (op == "observe") {
    op_id = OpId::kObserve;
    return handle_observe(registry, request);
  }
  if (op == "absorb") {
    op_id = OpId::kAbsorb;
    return handle_absorb(registry, request);
  }
  if (op == "stats") {
    op_id = OpId::kStats;
    return handle_stats(registry, request);
  }
  if (op == "estimate") {
    op_id = OpId::kEstimate;
    return handle_estimate(registry, request);
  }
  if (op == "close") {
    op_id = OpId::kClose;
    return handle_close(registry, request);
  }
  if (op == "metrics") {
    op_id = OpId::kMetrics;
    return handle_metrics(result.request_id);
  }
  if (op == "shutdown") {
    op_id = OpId::kShutdown;
    result.shutdown = true;
    return response_head("shutdown", "") + "}";
  }
  throw DataError("unknown op \"" + op + "\"",
                  ErrorContext{}.with_operation("serve_protocol"));
}

}  // namespace

ProtocolResult handle_request(SessionRegistry& registry,
                              std::string_view line) {
  const std::uint64_t start_ns = telemetry::now_ns();
  BMF_COUNTER_ADD("serve.requests", 1);
  ProtocolResult result;
  result.request_id = next_request_id();
  OpId op_id = OpId::kUnknown;
  std::string session;
  try {
    const JsonValue request = parse_json(line);
    BMF_HISTOGRAM_RECORD_US(
        "serve.decode_us",
        static_cast<double>(telemetry::now_ns() - start_ns) * 1e-3);
    result.response = dispatch(registry, request, result, op_id, session);
  } catch (const DataError& e) {
    record_error(ErrorClass::kData);
    result.response = error_response("DataError", e.what());
  } catch (const ConfigError& e) {
    record_error(ErrorClass::kConfig);
    result.response = error_response("ConfigError", e.what());
  } catch (const NumericError& e) {
    record_error(ErrorClass::kNumeric);
    result.response = error_response("NumericError", e.what());
  } catch (const ContractError& e) {
    record_error(ErrorClass::kContract);
    result.response = error_response("ContractError", e.what());
  } catch (const std::exception& e) {
    record_error(ErrorClass::kInternal);
    result.response = error_response("InternalError", e.what());
  }
  const std::uint64_t elapsed_ns = telemetry::now_ns() - start_ns;
  BMF_HISTOGRAM_RECORD_US("serve.request_us",
                          static_cast<double>(elapsed_ns) * 1e-3);
  record_op(op_id, elapsed_ns);
  if (past_slow_threshold(elapsed_ns)) {
    note_slow_request(op_id, session, result.request_id, elapsed_ns,
                      line.size());
  }
  return result;
}

namespace {

/// Cursor over a binary request payload; all reads throw DataError with a
/// byte offset on truncation, so malformed frames answer in-band like
/// malformed JSON does.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  std::uint16_t read_u16() { return read_scalar<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_scalar<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_scalar<std::uint64_t>(); }

  std::string_view read_string() {
    const std::uint16_t size = read_u16();
    return read_bytes(size);
  }

  std::string_view read_bytes(std::size_t size) {
    if (data_.size() - pos_ < size) fail("truncated");
    const std::string_view out = data_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  /// Everything not consumed yet (shard bytes trail the fixed fields).
  std::string_view rest() {
    const std::string_view out = data_.substr(pos_);
    pos_ = data_.size();
    return out;
  }

  void expect_consumed() const {
    if (pos_ != data_.size()) fail("trailing bytes");
  }

 private:
  template <typename T>
  T read_scalar() {
    if (data_.size() - pos_ < sizeof(T)) fail("truncated");
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  [[noreturn]] void fail(const char* what) const {
    throw DataError(
        std::string("malformed binary request payload (") + what + ")",
        ErrorContext{}
            .with_operation("serve_binary")
            .with_index(pos_));
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

std::string binary_observe(SessionRegistry& registry, std::uint16_t flags,
                           std::string_view payload, std::string& session_id) {
  PayloadReader reader(payload);
  session_id.assign(reader.read_string());
  const std::size_t population =
      (flags & wire::kFlagPopulation) != 0 ? reader.read_u32() : 0;
  const std::uint32_t rows = reader.read_u32();
  const std::uint32_t cols = reader.read_u32();
  if (rows == 0 || cols == 0) {
    throw DataError("observe frame needs rows > 0 and cols > 0",
                    ErrorContext{}.with_operation("serve_binary"));
  }
  const std::string_view cells =
      reader.read_bytes(static_cast<std::size_t>(rows) * cols *
                        sizeof(double));
  reader.expect_consumed();
  Matrix samples(rows, cols);
  std::memcpy(samples.data(), cells.data(), cells.size());
  const std::size_t total =
      registry.get(session_id)->observe(samples, population);
  BMF_COUNTER_ADD("serve.observed_samples", rows);
  std::string out;
  wire::append_u32(out, rows);
  wire::append_u64(out, total);
  return out;
}

std::string binary_absorb(SessionRegistry& registry, std::string_view payload,
                          std::string& session_id) {
  PayloadReader reader(payload);
  session_id.assign(reader.read_string());
  const stats::StatsShard shard = stats::parse_shard(reader.rest());
  const Counted<bool> absorbed = registry.get(session_id)->absorb(shard);
  std::string out;
  out += static_cast<char>(absorbed.value ? 0 : 1);  // duplicate marker
  wire::append_u64(out, absorbed.total);
  return out;
}

std::string binary_stats(SessionRegistry& registry, std::uint16_t flags,
                         std::string_view payload, std::string& session_id) {
  PayloadReader reader(payload);
  session_id.assign(reader.read_string());
  const std::size_t population =
      (flags & wire::kFlagPopulation) != 0 ? reader.read_u32() : 0;
  const std::uint64_t shard_id = reader.read_u64();
  reader.expect_consumed();
  const stats::StatsShard shard =
      registry.get(session_id)->export_shard(shard_id, population);
  return stats::serialize_shard(shard);
}

std::string binary_error_payload(std::string_view type,
                                 std::string_view message) {
  std::string out;
  wire::append_string(out, type);
  out.append(message);
  return out;
}

}  // namespace

BinaryResult handle_binary_request(SessionRegistry& registry,
                                   std::uint8_t opcode, std::uint16_t req_flags,
                                   std::string_view payload) {
  BinaryResult result;
  // The kJson escape hatch routes through handle_request, which does its
  // own counting/timing; only native binary ops are accounted for here.
  if (opcode == wire::kJson) {
    const ProtocolResult json = handle_request(registry, payload);
    result.shutdown = json.shutdown;
    result.request_id = json.request_id;
    wire::append_frame(result.response, opcode, 0, json.response);
    return result;
  }
  const std::uint64_t start_ns = telemetry::now_ns();
  BMF_COUNTER_ADD("serve.requests", 1);
  result.request_id = next_request_id();
  OpId op_id = OpId::kUnknown;
  switch (opcode) {
    case wire::kObserve: op_id = OpId::kObserve; break;
    case wire::kAbsorb: op_id = OpId::kAbsorb; break;
    case wire::kStats: op_id = OpId::kStats; break;
    case wire::kPing: op_id = OpId::kPing; break;
    default: break;
  }
  std::string body;
  std::string session;
  std::uint16_t flags = 0;
  try {
    switch (opcode) {
      case wire::kObserve:
        body = binary_observe(registry, req_flags, payload, session);
        break;
      case wire::kAbsorb:
        body = binary_absorb(registry, payload, session);
        break;
      case wire::kStats:
        body = binary_stats(registry, req_flags, payload, session);
        break;
      case wire::kPing: break;
      default:
        throw DataError(
            "unknown binary opcode " + std::to_string(opcode),
            ErrorContext{}.with_operation("serve_binary"));
    }
  } catch (const DataError& e) {
    record_error(ErrorClass::kData);
    flags = wire::kFlagError;
    body = binary_error_payload("DataError", e.what());
  } catch (const ConfigError& e) {
    record_error(ErrorClass::kConfig);
    flags = wire::kFlagError;
    body = binary_error_payload("ConfigError", e.what());
  } catch (const NumericError& e) {
    record_error(ErrorClass::kNumeric);
    flags = wire::kFlagError;
    body = binary_error_payload("NumericError", e.what());
  } catch (const ContractError& e) {
    record_error(ErrorClass::kContract);
    flags = wire::kFlagError;
    body = binary_error_payload("ContractError", e.what());
  } catch (const std::exception& e) {
    record_error(ErrorClass::kInternal);
    flags = wire::kFlagError;
    body = binary_error_payload("InternalError", e.what());
  }
  wire::append_frame(result.response, opcode, flags, body);
  // No serve.request_us record here: on the binary hot path the per-op
  // latency histogram (record_op) already carries the timing, and the
  // aggregate would be a second bucket scan per request. serve.request_us
  // stays JSON-transport-only (where it additionally covers decode).
  const std::uint64_t elapsed_ns = telemetry::now_ns() - start_ns;
  record_op(op_id, elapsed_ns);
  if (past_slow_threshold(elapsed_ns)) {
    note_slow_request(op_id, session, result.request_id, elapsed_ns,
                      payload.size());
  }
  return result;
}

}  // namespace bmfusion::serve
