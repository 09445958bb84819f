#include "serve/protocol.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "core/estimator.hpp"
#include "linalg/matrix.hpp"
#include "log/log.hpp"
#include "stats/stat_wire.hpp"
#include "telemetry/clock.hpp"
#include "telemetry/decimal.hpp"
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

/// Every op, in kOps order. kUnknown also covers requests that fail before
/// an op was read.
enum class OpId : std::size_t {
  kPing,
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
};

/// One decoded request, whatever its wire mode. The decoders fill the
/// members the op's `needs` name, in the order they are declared here, so
/// both modes reject the same malformed member first, and all of them
/// before any session lookup.
struct Request {
  OpId op = OpId::kUnknown;
  std::uint64_t id = 0;  ///< the request id
  /// Read before anything else can fail, so a slow failed request still
  /// names its session.
  std::string session;
  std::size_t population = 0;
  bool has_population = false;  ///< a JSON observe echoes it only if sent
  Matrix samples;
  stats::StatsShard shard;
  std::uint64_t shard_id = 0;
  const JsonValue* json = nullptr;  ///< JSON mode: the object open/hello read
};

/// What a handler hands the encoders. Ping, observe, absorb and stats are
/// encoded per wire mode; the ops only JSON carries answer their members.
struct Reply {
  std::size_t total = 0;    ///< observe, absorb: the session's new total
  bool duplicate = false;   ///< absorb: the shard id was absorbed before
  stats::StatsShard shard;  ///< stats: the exported stream
  std::string json;         ///< JSON-only ops: ,"member":value...
  bool switch_to_binary = false;
};

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

/// A JSON number that parses back to the same bits; non-finite values
/// (unselected hyper-parameters) have no JSON spelling and become null.
void append_number(std::string& out, double value) {
  if (std::isfinite(value)) {
    telemetry::append_double(out, value);
  } else {
    out += "null";
  }
}

void append_vector(std::string& out, const Vector& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_number(out, v[i]);
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
      append_number(out, m(r, c));
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

/// {"mean":[..],"covariance":[[..]],"kappa0":..,"nu0":..,"score":..}
void append_estimate(std::string& out, const core::EstimateResult& result) {
  out += "{\"mean\":";
  append_vector(out, result.moments.mean);
  out += ",\"covariance\":";
  append_matrix(out, result.moments.covariance);
  out += ",\"kappa0\":";
  append_number(out, result.kappa0);
  out += ",\"nu0\":";
  append_number(out, result.nu0);
  out += ",\"score\":";
  append_number(out, result.score);
  out += '}';
}

/// Joint fusion estimate: one entry per population with the fused estimate
/// (headline), the independent posterior when the population has its own
/// usable samples, and the borrowing diagnostics.
void append_fusion_estimate(std::string& out, const Session& session) {
  const Counted<fusion::FusionSnapshot> counted = session.estimate_fusion();
  const fusion::FusionSnapshot& snapshot = counted.value;
  out += ",\"count\":" + std::to_string(counted.total);
  out += ",\"observed_populations\":" +
         std::to_string(snapshot.observed_populations);
  out += ",\"signal_variance\":";
  append_number(out, snapshot.signal_variance);
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
    append_number(out, pop.borrowed_kappa);
    out += ",\"anchor_shift\":";
    append_number(out, pop.anchor_shift);
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
  out += ']';
}

/// ,"server_version":"..","wire_version":N,"uptime_s":X — the compatibility
/// triple ping/hello answer and /statusz echoes.
void append_version_fields(std::string& out) {
  out += ",\"server_version\":\"";
  append_escaped(out, kServerVersion);
  out += "\",\"wire_version\":";
  out += std::to_string(kWireVersion);
  out += ",\"uptime_s\":";
  append_number(out, process_uptime_s());
}

void handle_ping(SessionRegistry&, const Request&, Reply&) {}

void handle_hello(SessionRegistry&, const Request& req, Reply& reply) {
  const std::string mode = req.json->string_or("mode", "json");
  if (mode != "json" && mode != "binary") {
    throw DataError("\"mode\" must be \"json\" or \"binary\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  reply.switch_to_binary = mode == "binary";
  reply.json = ",\"mode\":\"" + mode + "\"";
  append_version_fields(reply.json);
}

void handle_open(SessionRegistry& registry, const Request& req, Reply& reply) {
  const std::shared_ptr<Session> session =
      registry.open(req.session, *req.json);
  reply.json = ",\"estimator\":\"";
  append_escaped(reply.json, session->estimator_name());
  reply.json += '"';
}

void handle_observe(SessionRegistry& registry, const Request& req,
                    Reply& reply) {
  reply.total =
      registry.get(req.session)->observe(req.samples, req.population);
  BMF_COUNTER_ADD("serve.observed_samples", req.samples.rows());
}

void handle_absorb(SessionRegistry& registry, const Request& req,
                   Reply& reply) {
  const Counted<bool> absorbed = registry.get(req.session)->absorb(req.shard);
  reply.duplicate = !absorbed.value;
  reply.total = absorbed.total;
}

void handle_stats(SessionRegistry& registry, const Request& req,
                  Reply& reply) {
  reply.shard =
      registry.get(req.session)->export_shard(req.shard_id, req.population);
}

void handle_estimate(SessionRegistry& registry, const Request& req,
                     Reply& reply) {
  const std::shared_ptr<Session> session = registry.get(req.session);
  if (session->is_fusion()) {
    append_fusion_estimate(reply.json, *session);
    return;
  }
  const Counted<core::EstimateResult> result = session->estimate();
  reply.json = ",\"count\":" + std::to_string(result.total);
  reply.json += ",\"estimate\":";
  append_estimate(reply.json, result.value);
}

void handle_close(SessionRegistry& registry, const Request& req, Reply&) {
  registry.close(req.session);
}

void handle_shutdown(SessionRegistry&, const Request&, Reply&) {}

void handle_metrics(SessionRegistry&, const Request& req, Reply& reply) {
  reply.json = ",\"request_id\":" + std::to_string(req.id);
  append_version_fields(reply.json);
  reply.json += ",\"telemetry\":";
  reply.json += telemetry::json_snapshot_compact();
}

/// The members a request of an op carries, decoded in this order in both
/// wire modes.
enum Needs : unsigned {
  kSession = 1u << 0,
  kPopulation = 1u << 1,  ///< optional; binary: only with kFlagPopulation
  kSamples = 1u << 2,
  kShard = 1u << 3,
  kShardId = 1u << 4,  ///< optional in JSON
};

struct OpSpec {
  const char* name;     ///< the JSON "op" and the serve.<name>.* metrics
  std::uint8_t opcode;  ///< native binary opcode; 0: JSON (or kJson) only
  unsigned needs;
  void (*handle)(SessionRegistry&, const Request&, Reply&);
};

/// The one op table: JSON dispatch, the opcode mapping and the per-op
/// metrics all read it. Indexed by OpId.
constexpr OpSpec kOps[] = {
    {"ping", wire::kPing, 0, handle_ping},
    {"hello", 0, 0, handle_hello},
    {"open", 0, kSession, handle_open},
    {"observe", wire::kObserve, kSession | kPopulation | kSamples,
     handle_observe},
    {"absorb", wire::kAbsorb, kSession | kShard, handle_absorb},
    {"stats", wire::kStats, kSession | kPopulation | kShardId, handle_stats},
    {"estimate", 0, kSession, handle_estimate},
    {"close", 0, kSession, handle_close},
    {"shutdown", 0, 0, handle_shutdown},
    {"metrics", 0, 0, handle_metrics},
    {"unknown", 0, 0, nullptr},
};
static_assert(std::size(kOps) == static_cast<std::size_t>(OpId::kUnknown) + 1);

const OpSpec& spec(OpId op) { return kOps[static_cast<std::size_t>(op)]; }

void record_op(OpId id, std::uint64_t elapsed_ns) {
#if BMFUSION_TELEMETRY_ENABLED
  // Per-op request counter + latency histogram. The BMF_* macros cache one
  // metric per call site, which cannot key on a runtime op — this table
  // resolves every per-op metric once (first call registers, allocating),
  // after which recording is lock- and allocation-free, preserving the
  // hot-path contract the alloc-contract test checks.
  static const auto table = [] {
    auto& reg = telemetry::Registry::instance();
    std::array<std::pair<telemetry::Counter*, telemetry::Histogram*>,
               std::size(kOps)>
        out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::string prefix = std::string("serve.") + kOps[i].name;
      out[i] = {&reg.counter(prefix + ".requests"),
                &reg.histogram(prefix + ".latency_us")};
    }
    return out;
  }();
  const auto& [requests, latency_us] = table[static_cast<std::size_t>(id)];
  requests->add(1);
  latency_us->record(static_cast<double>(elapsed_ns) * 1e-3);
#else
  (void)id;
  (void)elapsed_ns;
#endif
}

const std::string& required_string(const JsonValue& request, const char* key) {
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

void decode_json(const JsonValue& json, Request& req) {
  if (!json.is_object()) {
    throw DataError("request must be a JSON object",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  const std::string& op = required_string(json, "op");
  if (const JsonValue* s = json.find("session");
      s != nullptr && s->is_string()) {
    req.session = s->as_string();
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(OpId::kUnknown); ++i) {
    if (op == kOps[i].name) {
      req.op = static_cast<OpId>(i);
      break;
    }
  }
  if (req.op == OpId::kUnknown) {
    throw DataError("unknown op \"" + op + "\"",
                    ErrorContext{}.with_operation("serve_protocol"));
  }
  req.json = &json;
  const unsigned needs = spec(req.op).needs;
  if ((needs & kSession) != 0) (void)required_string(json, "session");
  if (const JsonValue* v = json.find("population");
      v != nullptr && (needs & kPopulation) != 0) {
    req.population = static_cast<std::size_t>(
        parse_integer(*v, "population", kU32Limit));
    req.has_population = true;
  }
  if ((needs & kSamples) != 0) {
    req.samples = parse_matrix(required_member(json, "samples"), "samples");
  }
  if ((needs & kShard) != 0) {
    req.shard = stats::shard_from_json(required_member(json, "shard"));
  }
  if (const JsonValue* v = json.find("shard_id");
      v != nullptr && (needs & kShardId) != 0) {
    req.shard_id = parse_integer(*v, "shard_id", kShardIdLimit);
  }
}

/// Cursor over a binary request payload; all reads throw DataError with a
/// byte offset on truncation, so malformed frames answer in-band like
/// malformed JSON does.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  template <typename T>
  T read() {
    if (data_.size() - pos_ < sizeof(T)) fail("truncated");
    T value{};
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string_view read_string() { return read_bytes(read<std::uint16_t>()); }

  std::string_view read_bytes(std::size_t size) {
    if (data_.size() - pos_ < size) fail("truncated");
    const std::string_view out = data_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  /// rows * cols doubles (rows > 0), checked against the bytes left by
  /// dividing them: the product of two u32 counts and sizeof(double) can
  /// wrap a 64-bit size_t.
  std::string_view read_cells(std::uint32_t rows, std::uint32_t cols) {
    if (cols > (data_.size() - pos_) / sizeof(double) / rows) {
      fail("truncated");
    }
    return read_bytes(static_cast<std::size_t>(rows) * cols * sizeof(double));
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

/// A native frame (every opcode but kJson). The op is known from the opcode
/// alone, so it is set before any payload byte is read.
void decode_binary(std::uint8_t opcode, std::uint16_t flags,
                   std::string_view payload, Request& req) {
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    if (kOps[i].opcode != 0 && kOps[i].opcode == opcode) {
      req.op = static_cast<OpId>(i);
      break;
    }
  }
  if (req.op == OpId::kUnknown) {
    throw DataError("unknown binary opcode " + std::to_string(opcode),
                    ErrorContext{}.with_operation("serve_binary"));
  }
  const unsigned needs = spec(req.op).needs;
  if (needs == 0) return;  // kPing: the payload is not read
  PayloadReader reader(payload);
  req.session.assign(reader.read_string());
  if ((needs & kPopulation) != 0 && (flags & wire::kFlagPopulation) != 0) {
    req.population = reader.read<std::uint32_t>();
  }
  if ((needs & kSamples) != 0) {
    const auto rows = reader.read<std::uint32_t>();
    const auto cols = reader.read<std::uint32_t>();
    if (rows == 0 || cols == 0) {
      throw DataError("observe frame needs rows > 0 and cols > 0",
                      ErrorContext{}.with_operation("serve_binary"));
    }
    const std::string_view cells = reader.read_cells(rows, cols);
    req.samples = Matrix(rows, cols);
    std::memcpy(req.samples.data(), cells.data(), cells.size());
  }
  if ((needs & kShard) != 0) req.shard = stats::parse_shard(reader.rest());
  if ((needs & kShardId) != 0) req.shard_id = reader.read<std::uint64_t>();
  reader.expect_consumed();
}

/// {"ok":true,"op":..,"session":.. then the op's members, "}". The session
/// is echoed by the ops that need one.
std::string encode_json(const Request& req, const Reply& reply) {
  const OpSpec& op = spec(req.op);
  std::string out =
      response_head(op.name, (op.needs & kSession) != 0 ? req.session : "");
  switch (req.op) {
    case OpId::kPing:
      out += ",\"request_id\":" + std::to_string(req.id);
      append_version_fields(out);
      break;
    case OpId::kObserve:
      if (req.has_population) {
        out += ",\"population\":" + std::to_string(req.population);
      }
      out += ",\"observed\":" + std::to_string(req.samples.rows());
      out += ",\"total\":" + std::to_string(reply.total);
      break;
    case OpId::kAbsorb:
      out += reply.duplicate ? ",\"duplicate\":true" : ",\"duplicate\":false";
      out += ",\"total\":" + std::to_string(reply.total);
      break;
    case OpId::kStats:
      out += ",\"shard\":" + stats::shard_to_json(reply.shard);
      break;
    default: out += reply.json;
  }
  out += '}';
  return out;
}

void append_binary_reply(std::string& out, std::uint8_t opcode,
                         const Request& req, const Reply& reply) {
  std::string body;
  switch (req.op) {
    case OpId::kObserve:
      wire::append_u32(body, static_cast<std::uint32_t>(req.samples.rows()));
      wire::append_u64(body, reply.total);
      break;
    case OpId::kAbsorb:
      body += static_cast<char>(reply.duplicate ? 1 : 0);
      wire::append_u64(body, reply.total);
      break;
    case OpId::kStats: body = stats::serialize_shard(reply.shard); break;
    default: break;  // kPing: an empty payload
  }
  wire::append_frame(out, opcode, 0, body);
}

/// Off the hot path by construction: only entered once a request already
/// blew the slow threshold, so the structured log record and counter are
/// free to allocate.
void note_slow_request(const Request& req, std::uint64_t elapsed_ns,
                       std::size_t bytes) {
  BMF_COUNTER_ADD("serve.slow_requests", 1);
  BMF_LOG_WARN("slow serve request", log::f("op", spec(req.op).name),
               log::f("session", req.session), log::f("request_id", req.id),
               log::f("latency_us", static_cast<double>(elapsed_ns) * 1e-3),
               log::f("bytes", bytes));
}

/// The one place an exception meets the wire: counts serve.errors and
/// serve.errors.<class>, and returns the type name the error response
/// carries. Call only from a catch block.
const char* classify_current_exception() {
  BMF_COUNTER_ADD("serve.errors", 1);
  try {
    throw;
  } catch (const DataError&) {
    BMF_COUNTER_ADD("serve.errors.data", 1);
    return "DataError";
  } catch (const ConfigError&) {
    BMF_COUNTER_ADD("serve.errors.config", 1);
    return "ConfigError";
  } catch (const NumericError&) {
    BMF_COUNTER_ADD("serve.errors.numeric", 1);
    return "NumericError";
  } catch (const ContractError&) {
    BMF_COUNTER_ADD("serve.errors.contract", 1);
    return "ContractError";
  } catch (...) {
    BMF_COUNTER_ADD("serve.errors.internal", 1);
    return "InternalError";
  }
}

/// The accounting both wire modes share around one request: draws the
/// request id, counts serve.requests, runs `serve` (decode, handle,
/// encode), answers an exception through `fail(type, message)`, records
/// serve.<op>.requests and serve.<op>.latency_us, and notes a slow request.
/// Returns the elapsed time since `start_ns`.
template <typename Serve, typename Fail>
std::uint64_t accounted(std::uint64_t start_ns, Request& req,
                        std::size_t bytes, Serve&& serve, Fail&& fail) {
  BMF_COUNTER_ADD("serve.requests", 1);
  req.id = next_request_id();
  try {
    serve();
  } catch (const std::exception& e) {
    fail(classify_current_exception(), e.what());
  }
  const std::uint64_t elapsed_ns = telemetry::now_ns() - start_ns;
  record_op(req.op, elapsed_ns);
  const std::uint64_t slow_ns =
      g_slow_threshold_ns.load(std::memory_order_relaxed);
  if (slow_ns != 0 && elapsed_ns >= slow_ns) {
    note_slow_request(req, elapsed_ns, bytes);
  }
  return elapsed_ns;
}

}  // namespace

std::string json_escaped(std::string_view text) {
  std::string out;
  append_escaped(out, text);
  return out;
}

std::string json_error_response(std::string_view type,
                                std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":{\"type\":\"";
  append_escaped(out, type);
  out += "\",\"message\":\"";
  append_escaped(out, message);
  out += "\"}}";
  return out;
}

ProtocolResult handle_request(SessionRegistry& registry,
                              std::string_view line) {
  const std::uint64_t start_ns = telemetry::now_ns();
  ProtocolResult result;
  Request req;
  const std::uint64_t elapsed_ns = accounted(
      start_ns, req, line.size(),
      [&] {
        const JsonValue json = parse_json(line);
        BMF_HISTOGRAM_RECORD_US(
            "serve.decode_us",
            static_cast<double>(telemetry::now_ns() - start_ns) * 1e-3);
        decode_json(json, req);
        Reply reply;
        spec(req.op).handle(registry, req, reply);
        result.shutdown = req.op == OpId::kShutdown;
        result.switch_to_binary = reply.switch_to_binary;
        result.response = encode_json(req, reply);
      },
      [&](const char* type, const char* message) {
        result.response = json_error_response(type, message);
      });
  result.request_id = req.id;
  BMF_HISTOGRAM_RECORD_US("serve.request_us",
                          static_cast<double>(elapsed_ns) * 1e-3);
  return result;
}

BinaryResult handle_binary_request(SessionRegistry& registry,
                                   std::uint8_t opcode, std::uint16_t flags,
                                   std::string_view payload) {
  BinaryResult result;
  // The kJson escape hatch routes through handle_request, which does its
  // own counting/timing; only native binary ops are accounted for here.
  // Its error answers travel as {"ok":false,...} in an unflagged frame.
  if (opcode == wire::kJson) {
    const ProtocolResult json = handle_request(registry, payload);
    result.shutdown = json.shutdown;
    result.request_id = json.request_id;
    wire::append_frame(result.response, opcode, 0, json.response);
    return result;
  }
  // No serve.request_us record here: on the binary hot path the per-op
  // latency histogram already carries the timing, and the aggregate would
  // be a second bucket scan per request. serve.request_us stays
  // JSON-transport-only (where it additionally covers decode).
  Request req;
  accounted(
      telemetry::now_ns(), req, payload.size(),
      [&] {
        decode_binary(opcode, flags, payload, req);
        Reply reply;
        spec(req.op).handle(registry, req, reply);
        append_binary_reply(result.response, opcode, req, reply);
      },
      [&](const char* type, const char* message) {
        result.response.clear();
        wire::append_error_frame(result.response, opcode, type, message);
      });
  result.request_id = req.id;
  return result;
}

}  // namespace bmfusion::serve
