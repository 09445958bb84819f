// Serve-layer contracts: the JSON-lines protocol over an in-process TCP
// server (happy paths, in-band errors, idempotent shard absorption,
// concurrent clients, pipelining, framing edge cases, fd hygiene), the
// stdio loop, the observability plane (admin HTTP endpoints, request ids,
// slow-request tracing, per-op counters), and a golden transcript that
// pins every response byte of both wire modes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/mle.hpp"
#include "linalg/matrix.hpp"
#include "log/log.hpp"
#include "serve/admin.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion {
namespace {

using linalg::Matrix;
using linalg::Vector;
using serve::Server;
using serve::SessionRegistry;

/// serve::LineClient with test-friendly connect-on-construct and a
/// parse-the-response round trip.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port)
      : connected_(client_.connect_to(port)) {}

  [[nodiscard]] bool connected() const { return connected_; }

  /// Sends one request line, returns the parsed response object.
  JsonValue round_trip(const std::string& request) {
    std::string line;
    if (!client_.request(request, line)) {
      ADD_FAILURE() << "connection dropped during: " << request;
      return JsonValue{};
    }
    return parse_json(line);
  }

 private:
  serve::LineClient client_;
  bool connected_ = false;
};

bool is_ok(const JsonValue& response) {
  const JsonValue* ok = response.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_type(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  return error == nullptr ? "" : error->string_or("type", "");
}

std::string observe_request(const std::string& session, const Matrix& rows) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"op\":\"observe\",\"session\":\"" << session
      << "\",\"samples\":[";
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    out << (r == 0 ? "[" : ",[");
    for (std::size_t c = 0; c < rows.cols(); ++c) {
      if (c != 0) out << ',';
      out << rows(r, c);
    }
    out << ']';
  }
  out << "]}";
  return out.str();
}

Matrix test_samples(std::size_t rows, std::size_t cols, double shift) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out(r, c) = shift + std::sin(static_cast<double>(r * cols + c + 1));
    }
  }
  return out;
}

TEST(ServeTcp, OpenObserveEstimateClose) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));

  const Matrix samples = test_samples(48, 3, 2.0);
  const JsonValue observed = client.round_trip(observe_request("s1", samples));
  ASSERT_TRUE(is_ok(observed));
  EXPECT_EQ(observed.number_or("total", 0.0), 48.0);

  const JsonValue response =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"s1\"}");
  ASSERT_TRUE(is_ok(response));
  const JsonValue* estimate = response.find("estimate");
  ASSERT_NE(estimate, nullptr);
  const JsonValue* mean = estimate->find("mean");
  ASSERT_NE(mean, nullptr);
  const core::GaussianMoments reference = core::estimate_mle(samples);
  ASSERT_EQ(mean->as_array().size(), reference.mean.size());
  for (std::size_t j = 0; j < reference.mean.size(); ++j) {
    EXPECT_NEAR(mean->as_array()[j].as_number(), reference.mean[j], 1e-12);
  }

  EXPECT_TRUE(is_ok(
      client.round_trip("{\"op\":\"close\",\"session\":\"s1\"}")));
  EXPECT_EQ(server.sessions().size(), 0u);
  server.stop();
}

TEST(ServeTcp, ErrorsAreInBandAndNonFatal) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(error_type(client.round_trip("this is not json")), "DataError");
  EXPECT_EQ(error_type(client.round_trip("{\"op\":\"wat\"}")), "DataError");
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"estimate\",\"session\":\"ghost\"}")),
            "DataError");
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"open\",\"session\":\"s1\","
                "\"estimator\":\"mystery\"}")),
            "DataError");
  // Estimating an empty session surfaces the estimator's contract error.
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"estimate\",\"session\":\"s1\"}")),
            "ContractError");
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"open\",\"session\":\"s1\","
                "\"estimator\":\"mle\"}")),
            "DataError");  // duplicate id
  // The connection survived every error.
  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  server.stop();
}

TEST(ServeTcp, AbsorbShardsIsIdempotentPerSession) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));

  core::MleEstimator local;
  const Matrix samples = test_samples(100, 2, -1.0);
  local.observe(samples);
  const std::string shard_json =
      stats::shard_to_json(local.export_shard(42));
  const std::string request = "{\"op\":\"absorb\",\"session\":\"s1\","
                              "\"shard\":" +
                              shard_json + "}";
  const JsonValue first = client.round_trip(request);
  ASSERT_TRUE(is_ok(first));
  EXPECT_EQ(first.number_or("total", 0.0), 100.0);
  const JsonValue* duplicate = first.find("duplicate");
  ASSERT_NE(duplicate, nullptr);
  EXPECT_FALSE(duplicate->as_bool());

  // Retrying the same shard id must not double-count.
  const JsonValue second = client.round_trip(request);
  ASSERT_TRUE(is_ok(second));
  EXPECT_TRUE(second.find("duplicate")->as_bool());
  EXPECT_EQ(second.number_or("total", 0.0), 100.0);
  server.stop();
}

TEST(ServeTcp, StatsExportRoundTripsTheStream) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));
  const Matrix samples = test_samples(70, 2, 0.5);
  ASSERT_TRUE(is_ok(client.round_trip(observe_request("s1", samples))));

  const JsonValue response = client.round_trip(
      "{\"op\":\"stats\",\"session\":\"s1\",\"shard_id\":9}");
  ASSERT_TRUE(is_ok(response));
  const JsonValue* shard_json = response.find("shard");
  ASSERT_NE(shard_json, nullptr);
  const stats::StatsShard shard = stats::shard_from_json(*shard_json);
  EXPECT_EQ(shard.shard_id, 9u);
  EXPECT_EQ(shard.estimator, "mle");
  EXPECT_EQ(shard.count(), 70u);

  core::MleEstimator local;
  local.observe(samples);
  const stats::StatsShard reference = local.export_shard(9);
  ASSERT_EQ(shard.folds.size(), reference.folds.size());
  EXPECT_TRUE(shard.folds[0] == reference.folds[0]);
  server.stop();
}

TEST(ServeTcp, ConcurrentClientsOnSeparateSessions) {
  Server server;
  server.start();
  const std::uint16_t port = server.port();
  std::vector<std::thread> workers;
  std::vector<int> failures(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    workers.emplace_back([port, i, &failures] {
      TestClient client(port);
      if (!client.connected()) {
        failures[i] = 1;
        return;
      }
      const std::string id = "c" + std::to_string(i);
      if (!is_ok(client.round_trip("{\"op\":\"open\",\"session\":\"" + id +
                                   "\",\"estimator\":\"mle\"}"))) {
        failures[i] = 2;
        return;
      }
      const Matrix samples =
          test_samples(64, 2, static_cast<double>(i));
      for (int round = 0; round < 20; ++round) {
        if (!is_ok(client.round_trip(observe_request(id, samples)))) {
          failures[i] = 3;
          return;
        }
      }
      const JsonValue estimate = client.round_trip(
          "{\"op\":\"estimate\",\"session\":\"" + id + "\"}");
      if (!is_ok(estimate) ||
          estimate.number_or("count", 0.0) != 64.0 * 20.0) {
        failures[i] = 4;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures, std::vector<int>({0, 0, 0, 0}));
  EXPECT_EQ(server.sessions().size(), 4u);
  server.stop();
}

TEST(ServeTcp, ShutdownRequestStopsTheServer) {
  Server server;
  server.start();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"shutdown\"}")));
  }
  server.wait();  // returns because the shutdown request closed the listener
  EXPECT_FALSE(TestClient(server.port()).connected());
}

TEST(ServeTcp, PipelinedRequestsInOnePacketAnswerInOrder) {
  Server server;
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  // Three requests in a single send: the server must drain every complete
  // line from the read event and answer all of them, in order.
  ASSERT_TRUE(client.send_raw(
      "{\"op\":\"ping\"}\n"
      "{\"op\":\"open\",\"session\":\"p\",\"estimator\":\"mle\"}\n"
      "{\"op\":\"observe\",\"session\":\"p\",\"samples\":[[1,2],[3,4]]}\n"));
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(is_ok(parse_json(line)));  // ping
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(is_ok(parse_json(line)));  // open
  ASSERT_TRUE(client.recv_line(line));
  const JsonValue observed = parse_json(line);
  ASSERT_TRUE(is_ok(observed));
  EXPECT_EQ(observed.number_or("total", 0.0), 2.0);
  server.stop();
}

TEST(ServeTcp, RequestSplitAcrossRecvBoundariesIsReassembled) {
  Server server;
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  const std::string request =
      "{\"op\":\"open\",\"session\":\"frag\",\"estimator\":\"mle\"}\n";
  // Dribble the request a few bytes per send so the server sees it across
  // several read events; no response may be emitted before the newline.
  for (std::size_t i = 0; i < request.size(); i += 7) {
    ASSERT_TRUE(client.send_raw(request.substr(i, 7)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(is_ok(parse_json(line)));
  EXPECT_EQ(server.sessions().size(), 1u);
  server.stop();
}

TEST(ServeTcp, OversizedRequestLineIsRejectedAndConnectionClosed) {
  serve::ServerConfig config;
  config.max_request_bytes = 1024;
  Server server(config);
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  // 4 KiB of newline-free garbage: over the 1 KiB cap even before a line
  // terminator arrives.
  std::string huge(4096, 'x');
  huge += '\n';
  ASSERT_TRUE(client.send_raw(huge));
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const JsonValue response = parse_json(line);
  EXPECT_EQ(error_type(response), "DataError");
  EXPECT_NE(response.find("error")->string_or("message", "")
                .find("max_request_bytes"),
            std::string::npos);
  EXPECT_EQ(line,
            "{\"ok\":false,\"error\":{\"type\":\"DataError\",\"message\":"
            "\"request exceeds max_request_bytes (1024)\"}}");
  // The server hangs up after the in-band error.
  EXPECT_FALSE(client.recv_line(line));
  server.stop();
}

TEST(ServeTcp, DeeplyNestedLineAnswersInBandAndKeepsTheConnection) {
  // The JSON parser recurses per nesting level; past its cap a hostile line
  // is a DataError like any malformed request, not a stack overflow.
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  const JsonValue response = client.round_trip(std::string(100000, '['));
  EXPECT_EQ(error_type(response), "DataError");
  EXPECT_NE(response.find("error")->string_or("message", "").find("nesting"),
            std::string::npos);
  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  server.stop();
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ServeTcp, ManyShortConnectionsReturnFdCountToBaseline) {
  Server server;
  server.start();
  const std::uint16_t port = server.port();
  {
    // Warm-up cycle so lazily-created fds (epoll wakeups etc.) exist
    // before the baseline is taken.
    TestClient warmup(port);
    ASSERT_TRUE(warmup.connected());
    EXPECT_TRUE(is_ok(warmup.round_trip("{\"op\":\"ping\"}")));
  }
  const std::size_t baseline = open_fd_count();

  for (int cycle = 0; cycle < 1000; ++cycle) {
    TestClient client(port);
    ASSERT_TRUE(client.connected()) << "cycle " << cycle;
    ASSERT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")))
        << "cycle " << cycle;
  }

  // Server-side close is asynchronous (the loop reaps on the EOF event),
  // so poll briefly instead of asserting instantly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t now = open_fd_count();
  while (now > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = open_fd_count();
  }
  EXPECT_LE(now, baseline);
  server.stop();
}

std::string binary_observe_payload(const std::string& session,
                                   const Matrix& rows) {
  std::string payload;
  serve::wire::append_string(payload, session);
  serve::wire::append_u32(payload, static_cast<std::uint32_t>(rows.rows()));
  serve::wire::append_u32(payload, static_cast<std::uint32_t>(rows.cols()));
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    for (std::size_t c = 0; c < rows.cols(); ++c) {
      const double value = rows(r, c);
      char bytes[sizeof(double)];
      std::memcpy(bytes, &value, sizeof(double));
      payload.append(bytes, sizeof(double));
    }
  }
  return payload;
}

TEST(ServeBinary, ObserveAndStatsMatchJsonMode) {
  Server server;
  server.start();
  const Matrix samples = test_samples(60, 3, 1.25);

  // JSON-mode reference session.
  TestClient json_client(server.port());
  ASSERT_TRUE(json_client.connected());
  ASSERT_TRUE(is_ok(json_client.round_trip(
      "{\"op\":\"open\",\"session\":\"j\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(json_client.round_trip(observe_request("j", samples))));
  const JsonValue stats_json = json_client.round_trip(
      "{\"op\":\"stats\",\"session\":\"j\",\"shard_id\":7}");
  ASSERT_TRUE(is_ok(stats_json));
  const stats::StatsShard reference =
      stats::shard_from_json(*stats_json.find("shard"));

  // Binary-mode session over the same server.
  serve::LineClient binary;
  ASSERT_TRUE(binary.connect_to(server.port()));
  ASSERT_TRUE(binary.negotiate_binary());
  serve::Frame frame;
  ASSERT_TRUE(binary.request_frame(
      serve::wire::kJson,
      "{\"op\":\"open\",\"session\":\"b\",\"estimator\":\"mle\"}", frame));
  ASSERT_TRUE(frame.ok());

  ASSERT_TRUE(binary.request_frame(
      serve::wire::kObserve, binary_observe_payload("b", samples), frame));
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.payload.size(), 12u);  // u32 rows + u64 total
  std::uint32_t rows = 0;
  std::uint64_t total = 0;
  std::memcpy(&rows, frame.payload.data(), sizeof rows);
  std::memcpy(&total, frame.payload.data() + 4, sizeof total);
  EXPECT_EQ(rows, 60u);
  EXPECT_EQ(total, 60u);

  std::string stats_payload;
  serve::wire::append_string(stats_payload, "b");
  serve::wire::append_u64(stats_payload, 7);
  ASSERT_TRUE(
      binary.request_frame(serve::wire::kStats, stats_payload, frame));
  ASSERT_TRUE(frame.ok());
  const stats::StatsShard shard = stats::parse_shard(frame.payload);

  // Same samples, same shard id: the binary shard must match the JSON one
  // exactly (both sides go through the same estimator).
  EXPECT_EQ(shard.shard_id, reference.shard_id);
  EXPECT_EQ(shard.estimator, reference.estimator);
  EXPECT_EQ(shard.count(), reference.count());
  ASSERT_EQ(shard.folds.size(), reference.folds.size());
  for (std::size_t i = 0; i < shard.folds.size(); ++i) {
    EXPECT_TRUE(shard.folds[i] == reference.folds[i]) << "fold " << i;
  }

  // Errors arrive as flagged frames and keep the connection usable.
  std::string ghost_payload;
  serve::wire::append_string(ghost_payload, "ghost");
  serve::wire::append_u64(ghost_payload, 1);
  ASSERT_TRUE(
      binary.request_frame(serve::wire::kStats, ghost_payload, frame));
  EXPECT_FALSE(frame.ok());
  ASSERT_TRUE(binary.request_frame(serve::wire::kPing, "", frame));
  EXPECT_TRUE(frame.ok());
  server.stop();
}

TEST(ServeBinary, CorruptOrOversizedFrameIsAnsweredOnceThenClosed) {
  // A frame stream cannot be resynchronized after a bad magic byte or an
  // oversized length: one error frame, then the server hangs up.
  serve::ServerConfig config;
  config.max_request_bytes = 1024;
  Server server(config);
  server.start();
  const auto header = [](std::uint8_t magic, std::uint32_t length) {
    std::string bytes(1, static_cast<char>(magic));
    bytes += static_cast<char>(serve::wire::kObserve);
    serve::wire::append_u16(bytes, 0);
    serve::wire::append_u32(bytes, length);
    return bytes;
  };
  const std::pair<std::string, std::string> frames[] = {
      {header(0xAB, 4), "bad frame magic"},
      {header(serve::wire::kMagic, 4096),
       "frame exceeds max_request_bytes (1024)"}};
  for (const auto& [bytes, message] : frames) {
    serve::LineClient binary;
    ASSERT_TRUE(binary.connect_to(server.port()));
    ASSERT_TRUE(binary.negotiate_binary());
    ASSERT_TRUE(binary.send_raw(bytes));
    serve::Frame frame;
    ASSERT_TRUE(binary.recv_frame(frame)) << message;
    EXPECT_EQ(frame.opcode, serve::wire::kObserve);
    EXPECT_EQ(frame.flags, serve::wire::kFlagError);
    std::string expected;
    serve::wire::append_string(expected, "DataError");
    EXPECT_EQ(frame.payload, expected + message);
    EXPECT_FALSE(binary.recv_frame(frame));
  }
  server.stop();
}

TEST(ServeProtocol, StatsShardIdRejectsNonIntegralAndOverflowing) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"observe\",\"session\":\"s\",\"samples\":[[1],[2]]}")));

  for (const char* bad : {"7.5", "-3", "1e16", "1e999", "\"9\""}) {
    const JsonValue response = client.round_trip(
        std::string("{\"op\":\"stats\",\"session\":\"s\",\"shard_id\":") +
        bad + "}");
    EXPECT_EQ(error_type(response), "DataError") << bad;
    EXPECT_NE(response.find("error")->string_or("message", "")
                  .find("shard_id"),
              std::string::npos)
        << bad;
  }
  // 2^53 exactly is still representable and accepted.
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"stats\",\"session\":\"s\",\"shard_id\":9007199254740992}")));
  server.stop();
}

TEST(ServeStdio, DrivesTheSameProtocol) {
  SessionRegistry sessions;
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "{\"op\":\"open\",\"session\":\"s\",\"estimator\":\"mle\"}\n"
      "{\"op\":\"observe\",\"session\":\"s\",\"samples\":[[1,2],[3,4]]}\n"
      "{\"op\":\"estimate\",\"session\":\"s\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\"}\n");  // after shutdown: never handled
  std::ostringstream out;
  const std::size_t handled = serve::run_stdio(sessions, in, out);
  EXPECT_EQ(handled, 5u);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t ok_count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(is_ok(parse_json(line))) << line;
    ++ok_count;
  }
  EXPECT_EQ(ok_count, 5u);
}

TEST(ServeProtocol, HandleRequestIsUsableWithoutTransport) {
  SessionRegistry sessions;
  const serve::ProtocolResult open = serve::handle_request(
      sessions, "{\"op\":\"open\",\"session\":\"x\",\"estimator\":\"mle\"}");
  EXPECT_FALSE(open.shutdown);
  EXPECT_TRUE(is_ok(parse_json(open.response)));
  const serve::ProtocolResult shutdown =
      serve::handle_request(sessions, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown.shutdown);
}

TEST(ServeProtocol, NonFiniteStatsAnswerDataErrorAsJsonAndRawAsBinary) {
  // Finite samples whose sum of squares overflows: 1e200^2 is +inf. JSON
  // has no literal for it, so the JSON stats answer is an in-band DataError
  // (valid JSON naming the member); the binary frame carries the raw bits.
  SessionRegistry sessions;
  const auto json = [&](const std::string& line) {
    return parse_json(serve::handle_request(sessions, line).response);
  };
  ASSERT_TRUE(is_ok(
      json("{\"op\":\"open\",\"session\":\"big\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(json("{\"op\":\"observe\",\"session\":\"big\","
                         "\"samples\":[[1e200,1],[-1e200,2]]}")));

  const JsonValue answer = json("{\"op\":\"stats\",\"session\":\"big\"}");
  EXPECT_FALSE(is_ok(answer));
  EXPECT_EQ(error_type(answer), "DataError");
  const std::string message =
      answer.find("error")->string_or("message", "");
  EXPECT_NE(message.find("folds[0]."), std::string::npos) << message;
  EXPECT_NE(message.find("sum_outer_upper"), std::string::npos) << message;

  std::string payload;
  serve::wire::append_string(payload, "big");
  serve::wire::append_u64(payload, 0);
  const serve::BinaryResult binary = serve::handle_binary_request(
      sessions, serve::wire::kStats, 0, payload);
  ASSERT_GT(binary.response.size(), serve::wire::kHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(binary.response[2]), 0u);
  const stats::StatsShard shard = stats::parse_shard(
      std::string_view(binary.response).substr(serve::wire::kHeaderBytes));
  EXPECT_EQ(shard.count(), 2u);
  const stats::SufficientStats totals = shard.folds.at(0).totals();
  EXPECT_EQ(totals.sum()[0], 0.0);
  EXPECT_EQ(totals.sum_outer()(0, 0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(totals.sum_outer()(1, 1), 5.0);
}

/// Open request for a fusion session with `n` 2-D populations sharing one
/// early prior, a fast CV grid, and a mildly correlated prior structure.
std::string fusion_open_request(const std::string& session, std::size_t n) {
  std::ostringstream out;
  out << "{\"op\":\"open\",\"session\":\"" << session
      << "\",\"estimator\":\"fusion\",\"config\":{\"shift_scale\":false,"
         "\"kappa_points\":4,\"nu_points\":4},\"populations\":[";
  for (std::size_t p = 0; p < n; ++p) {
    if (p != 0) out << ',';
    out << "{\"name\":\"pop" << p
        << "\",\"early\":{\"mean\":[0.0,0.5],"
           "\"covariance\":[[1.0,0.0],[0.0,1.0]]}}";
  }
  out << "],\"correlation\":[";
  for (std::size_t r = 0; r < n; ++r) {
    out << (r == 0 ? "[" : ",[");
    for (std::size_t c = 0; c < n; ++c) {
      if (c != 0) out << ',';
      out << (r == c ? "1.0" : "0.6");
    }
    out << ']';
  }
  out << "]}";
  return out.str();
}

/// observe_request with an explicit population routing member.
std::string fusion_observe_request(const std::string& session,
                                   std::size_t population,
                                   const Matrix& rows) {
  std::string request = observe_request(session, rows);
  request.insert(request.size() - 1,
                 ",\"population\":" + std::to_string(population));
  return request;
}

TEST(ServeFusion, JsonSessionRoutesPopulationsAndEstimatesJointly) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(fusion_open_request("f", 2))));

  // Per-population observes accumulate into one grand total.
  const Matrix pop0 = test_samples(64, 2, 0.0);
  const Matrix pop1 = test_samples(48, 2, 1.0);
  const JsonValue first =
      client.round_trip(fusion_observe_request("f", 0, pop0));
  ASSERT_TRUE(is_ok(first));
  EXPECT_EQ(first.number_or("population", -1.0), 0.0);
  EXPECT_EQ(first.number_or("total", 0.0), 64.0);
  const JsonValue second =
      client.round_trip(fusion_observe_request("f", 1, pop1));
  ASSERT_TRUE(is_ok(second));
  EXPECT_EQ(second.number_or("population", -1.0), 1.0);
  EXPECT_EQ(second.number_or("total", 0.0), 112.0);

  // Routing errors stay in-band and name the population.
  const JsonValue bad =
      client.round_trip(fusion_observe_request("f", 9, pop0));
  EXPECT_EQ(error_type(bad), "DataError");
  EXPECT_NE(bad.find("error")->string_or("message", "").find("population"),
            std::string::npos);

  // Exported shards carry the population tag for downstream routing.
  const JsonValue stats = client.round_trip(
      "{\"op\":\"stats\",\"session\":\"f\",\"shard_id\":5,"
      "\"population\":1}");
  ASSERT_TRUE(is_ok(stats));
  const stats::StatsShard shard =
      stats::shard_from_json(*stats.find("shard"));
  EXPECT_EQ(shard.population_id, 1u);
  EXPECT_EQ(shard.count(), 48u);

  // ...and absorb back into a sibling session by that tag alone.
  ASSERT_TRUE(is_ok(client.round_trip(fusion_open_request("g", 2))));
  std::string absorb = "{\"op\":\"absorb\",\"session\":\"g\",\"shard\":";
  absorb += stats::shard_to_json(shard);
  absorb += '}';
  ASSERT_TRUE(is_ok(client.round_trip(absorb)));

  // The joint estimate reports every population; only observed ones carry
  // an independent posterior.
  const JsonValue estimate =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"f\"}");
  ASSERT_TRUE(is_ok(estimate));
  EXPECT_EQ(estimate.number_or("observed_populations", 0.0), 2.0);
  EXPECT_EQ(estimate.number_or("count", 0.0), 112.0);
  const JsonValue* populations = estimate.find("populations");
  ASSERT_NE(populations, nullptr);
  ASSERT_EQ(populations->as_array().size(), 2u);
  for (const JsonValue& pop : populations->as_array()) {
    EXPECT_NE(pop.find("fused"), nullptr);
    EXPECT_NE(pop.find("independent"), nullptr);
    EXPECT_EQ(pop.find("fused")->find("mean")->as_array().size(), 2u);
  }

  // The sibling session saw only population 1's shard: population 0 is
  // unobserved there, so its slot has no independent posterior but still
  // answers a fused (shifted-prior) estimate.
  const JsonValue sibling =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"g\"}");
  ASSERT_TRUE(is_ok(sibling));
  EXPECT_EQ(sibling.number_or("observed_populations", 0.0), 1.0);
  const auto& slots = sibling.find("populations")->as_array();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].find("independent"), nullptr);
  EXPECT_NE(slots[0].find("fused"), nullptr);
  EXPECT_EQ(slots[1].number_or("observed", 0.0), 48.0);
  EXPECT_NE(slots[1].find("independent"), nullptr);
  server.stop();
}

// ----------------------------------------------------- snapshot reuse

/// Open request for a 2-metric BMF session with a small CV grid.
std::string bmf_open_request(const std::string& session) {
  return "{\"op\":\"open\",\"session\":\"" + session +
         "\",\"estimator\":\"bmf\",\"early\":{\"mean\":[0.0,0.5],"
         "\"covariance\":[[1.0,0.0],[0.0,1.0]],\"nominal\":[0.0,0.5]},"
         "\"config\":{\"shift_scale\":false,\"kappa_points\":4,"
         "\"nu_points\":4}}";
}

/// A shard of `rows` split round-robin over the default 4 CV folds.
stats::StatsShard fold_shard(const Matrix& rows, std::uint64_t id,
                             std::uint64_t population = 0) {
  stats::StatsShard shard;
  shard.shard_id = id;
  shard.population_id = population;
  shard.folds.assign(4, stats::StatStream(rows.cols()));
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    shard.folds[r % 4].add(rows.row(r));
  }
  return shard;
}

/// The served {"mean","covariance","kappa0","nu0"} equal `expected` bit
/// for bit (the protocol prints %.17g, which round-trips a double; a
/// non-finite hyper-parameter, such as an unobserved population's, is null).
void expect_served_estimate(const JsonValue& served,
                            const core::EstimateResult& expected) {
  const auto& mean = served.find("mean")->as_array();
  ASSERT_EQ(mean.size(), expected.moments.mean.size());
  for (std::size_t i = 0; i < mean.size(); ++i) {
    EXPECT_EQ(mean[i].as_number(), expected.moments.mean[i]) << i;
  }
  const auto& covariance = served.find("covariance")->as_array();
  for (std::size_t r = 0; r < covariance.size(); ++r) {
    for (std::size_t c = 0; c < covariance[r].as_array().size(); ++c) {
      EXPECT_EQ(covariance[r].as_array()[c].as_number(),
                expected.moments.covariance(r, c));
    }
  }
  for (const auto& [key, value] :
       {std::pair{"kappa0", expected.kappa0}, std::pair{"nu0", expected.nu0}}) {
    const JsonValue* member = served.find(key);
    ASSERT_NE(member, nullptr) << key;
    if (std::isfinite(value)) {
      EXPECT_EQ(member->as_number(), value) << key;
    } else {
      EXPECT_TRUE(member->is_null()) << key;
    }
  }
}

/// A fusion estimate answer equals `expected`, population by population.
void expect_served_fusion(const JsonValue& served,
                          const fusion::FusionSnapshot& expected) {
  EXPECT_EQ(served.number_or("signal_variance", -1.0),
            expected.signal_variance);
  const auto& populations = served.find("populations")->as_array();
  ASSERT_EQ(populations.size(), expected.populations.size());
  for (std::size_t p = 0; p < populations.size(); ++p) {
    SCOPED_TRACE("population " + std::to_string(p));
    const fusion::PopulationEstimate& slot = expected.populations[p];
    EXPECT_EQ(populations[p].number_or("borrowed_kappa", -1.0),
              slot.borrowed_kappa);
    expect_served_estimate(*populations[p].find("fused"), slot.fused);
    const JsonValue* independent = populations[p].find("independent");
    ASSERT_EQ(independent != nullptr, slot.observed > 0);
    if (independent != nullptr) {
      expect_served_estimate(*independent, slot.independent);
    }
  }
}

TEST(ServeCache, EstimateAfterAbsorbIsFreshInBothWireModes) {
  // estimate -> absorb -> estimate: the second answer must be the snapshot
  // of both shards, not the first estimate served from the cache. A BMF
  // session and a fusion session (the second shard lands in its other
  // population) each run in both wire modes.
  const Matrix first_rows = test_samples(48, 2, 0.0);
  const Matrix second_rows = test_samples(32, 2, 0.7);

  for (const bool fusion : {false, true}) {
    const std::string open =
        fusion ? fusion_open_request("c", 2) : bmf_open_request("c");
    const stats::StatsShard first = fold_shard(first_rows, 1, 0);
    const stats::StatsShard second = fold_shard(second_rows, 2, fusion ? 1 : 0);
    const auto expect_reference = [&](const JsonValue& served,
                                      std::size_t shards) {
      if (fusion) {
        auto estimator = serve::make_fusion_estimator(parse_json(open));
        estimator->absorb(first);
        if (shards == 2) estimator->absorb(second);
        expect_served_fusion(served, estimator->snapshot());
        return;
      }
      auto estimator = serve::make_estimator(parse_json(open));
      estimator->absorb(first);
      if (shards == 2) estimator->absorb(second);
      expect_served_estimate(*served.find("estimate"), estimator->snapshot());
    };

    for (const bool binary : {false, true}) {
      SCOPED_TRACE(std::string(fusion ? "fusion, " : "bmf, ") +
                   (binary ? "binary" : "json"));
      Server server;
      server.start();
      serve::LineClient client;
      ASSERT_TRUE(client.connect_to(server.port()));
      if (binary) ASSERT_TRUE(client.negotiate_binary());
      const auto json = [&](const std::string& request) {
        std::string text;
        serve::Frame frame;
        if (binary) {
          EXPECT_TRUE(
              client.request_frame(serve::wire::kJson, request, frame));
          text = frame.payload;
        } else {
          EXPECT_TRUE(client.request(request, text));
        }
        return parse_json(text);
      };
      const auto absorb = [&](const stats::StatsShard& shard) {
        if (!binary) {
          return json("{\"op\":\"absorb\",\"session\":\"c\",\"shard\":" +
                      stats::shard_to_json(shard) + "}")
              .number_or("total", -1.0);
        }
        std::string payload;
        serve::wire::append_string(payload, "c");
        payload += stats::serialize_shard(shard);
        serve::Frame frame;
        EXPECT_TRUE(
            client.request_frame(serve::wire::kAbsorb, payload, frame));
        EXPECT_TRUE(frame.ok());
        std::uint64_t total = 0;
        std::memcpy(&total, frame.payload.data() + 1, sizeof total);
        return static_cast<double>(total);
      };

      ASSERT_TRUE(is_ok(json(open)));
      EXPECT_EQ(absorb(first), 48.0);
      const JsonValue before = json("{\"op\":\"estimate\",\"session\":\"c\"}");
      ASSERT_TRUE(is_ok(before));
      EXPECT_EQ(before.number_or("count", 0.0), 48.0);
      expect_reference(before, 1);

      EXPECT_EQ(absorb(second), 80.0);
      const JsonValue after = json("{\"op\":\"estimate\",\"session\":\"c\"}");
      ASSERT_TRUE(is_ok(after));
      EXPECT_EQ(after.number_or("count", 0.0), 80.0);
      expect_reference(after, 2);
      server.stop();
    }
  }
}

TEST(ServeFusion, EstimateCountMatchesItsPopulationsUnderConcurrentAbsorbs) {
  // Absorbs land in every population while another connection polls the
  // joint estimate: each response's count must describe the same stream
  // state as its populations.
  constexpr std::size_t kPopulations = 3;
  constexpr std::size_t kShards = 32;
  Server server;
  server.start();
  const std::uint16_t port = server.port();
  {
    TestClient setup(port);
    ASSERT_TRUE(setup.connected());
    ASSERT_TRUE(is_ok(setup.round_trip(fusion_open_request("cc", 3))));
    ASSERT_TRUE(is_ok(setup.round_trip(
        "{\"op\":\"absorb\",\"session\":\"cc\",\"shard\":" +
        stats::shard_to_json(fold_shard(test_samples(16, 2, 0.0), 1)) +
        "}")));
  }

  std::atomic<std::size_t> writers_left{kPopulations};
  std::vector<int> failures(kPopulations + 1, 0);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kPopulations; ++p) {
    threads.emplace_back([&, p] {
      TestClient client(port);
      for (std::size_t i = 0; i < kShards && client.connected(); ++i) {
        const stats::StatsShard shard = fold_shard(
            test_samples(8, 2, 0.1 * static_cast<double>(i + p)),
            100 * (p + 1) + i, p);
        if (!is_ok(client.round_trip(
                "{\"op\":\"absorb\",\"session\":\"cc\",\"shard\":" +
                stats::shard_to_json(shard) + "}"))) {
          failures[p] = 1;
        }
      }
      if (!client.connected()) failures[p] = 2;
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    TestClient client(port);
    std::size_t polls = 0;
    while (client.connected() && (writers_left.load() > 0 || polls < 3)) {
      const JsonValue estimate =
          client.round_trip("{\"op\":\"estimate\",\"session\":\"cc\"}");
      if (!is_ok(estimate)) {
        failures[kPopulations] = 1;
        return;
      }
      double observed = 0.0;
      for (const JsonValue& pop : estimate.find("populations")->as_array()) {
        observed += pop.number_or("observed", 0.0);
      }
      if (estimate.number_or("count", -1.0) != observed) {
        failures[kPopulations] = 2;
      }
      ++polls;
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures, std::vector<int>(kPopulations + 1, 0));
  server.stop();
}

// ------------------------------------------------------ observability plane

/// One raw HTTP exchange against the admin listener: connect, send
/// `request` verbatim, read to EOF (the admin plane closes per response).
std::string admin_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string admin_get(std::uint16_t port, const std::string& path) {
  return admin_exchange(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string http_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

double counter_value(const std::string& name) {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::Registry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0.0;
}

TEST(ServeAdmin, EndpointsAnswerOverHttp) {
  serve::ServerConfig config;
  config.admin_port = 0;  // ephemeral
  Server server(config);
  server.start();
  ASSERT_NE(server.admin_port(), 0);
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"adm\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"observe\",\"session\":\"adm\",\"samples\":[[1,2],[3,4]]}")));

  const std::string health = admin_get(server.admin_port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(http_body(health), "ok\n");

  // /metrics: Prometheus text — every non-comment line is "name value".
  const std::string metrics = admin_get(server.admin_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  std::istringstream lines(http_body(metrics));
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    ++samples;
  }
  if (telemetry::enabled()) {
    EXPECT_GT(samples, 0u);
    EXPECT_NE(http_body(metrics).find("bmfusion_serve_observe_requests"),
              std::string::npos);
  }

  // /metrics.json: the compact snapshot bmf_doctor --live ingests.
  const JsonValue compact =
      parse_json(http_body(admin_get(server.admin_port(), "/metrics.json")));
  EXPECT_NE(compact.find("counters"), nullptr);
  EXPECT_NE(compact.find("histograms"), nullptr);

  // /statusz: versions, uptime, build flags, per-session summaries.
  const JsonValue statusz =
      parse_json(http_body(admin_get(server.admin_port(), "/statusz")));
  EXPECT_TRUE(is_ok(statusz));
  EXPECT_EQ(statusz.string_or("server_version", ""),
            serve::kServerVersion);
  EXPECT_EQ(statusz.number_or("wire_version", 0.0),
            static_cast<double>(serve::kWireVersion));
  EXPECT_GT(statusz.number_or("uptime_s", -1.0), 0.0);
  const JsonValue* build = statusz.find("build");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(build->find("telemetry"), nullptr);
  EXPECT_EQ(build->find("telemetry")->as_bool(), telemetry::enabled());
  const JsonValue* session_list = statusz.find("sessions");
  ASSERT_NE(session_list, nullptr);
  ASSERT_EQ(session_list->as_array().size(), 1u);
  const JsonValue& entry = session_list->as_array()[0];
  EXPECT_EQ(entry.string_or("id", ""), "adm");
  EXPECT_EQ(entry.string_or("estimator", ""), "mle");
  EXPECT_EQ(entry.number_or("observed", 0.0), 2.0);

  // Unknown paths 404 with a hint; non-GET methods 405. Both leave the
  // serve plane untouched.
  EXPECT_NE(admin_get(server.admin_port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(
      admin_exchange(server.admin_port(), "POST /metrics HTTP/1.0\r\n\r\n")
          .find("405"),
      std::string::npos);
  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  server.stop();
}

TEST(ServeAdmin, ScrapesRunConcurrentWithBinaryLoad) {
  serve::ServerConfig config;
  config.admin_port = 0;
  Server server(config);
  server.start();
  const std::uint16_t admin_port = server.admin_port();

  std::atomic<bool> load_failed{false};
  std::thread load([&server, &load_failed] {
    serve::LineClient binary;
    if (!binary.connect_to(server.port()) || !binary.negotiate_binary()) {
      load_failed = true;
      return;
    }
    serve::Frame frame;
    if (!binary.request_frame(
            serve::wire::kJson,
            "{\"op\":\"open\",\"session\":\"load\",\"estimator\":\"mle\"}",
            frame) ||
        !frame.ok()) {
      load_failed = true;
      return;
    }
    const Matrix samples = test_samples(32, 3, 0.5);
    for (int round = 0; round < 200; ++round) {
      if (!binary.request_frame(serve::wire::kObserve,
                                binary_observe_payload("load", samples),
                                frame) ||
          !frame.ok()) {
        load_failed = true;
        return;
      }
    }
  });
  // Scrape every admin endpoint repeatedly while the binary stream runs on
  // the same IoLoops; every response must be complete and well-formed.
  for (int scrape = 0; scrape < 25; ++scrape) {
    EXPECT_NE(admin_get(admin_port, "/healthz").find("200 OK"),
              std::string::npos);
    const std::string metrics = admin_get(admin_port, "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NO_THROW(
        (void)parse_json(http_body(admin_get(admin_port, "/statusz"))));
  }
  load.join();
  EXPECT_FALSE(load_failed);
  server.stop();
}

TEST(ServeObservability, RequestIdsAreMonotonicUnderPipelining) {
  Server server;
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  // Three pings in one packet: the ids they echo must be strictly
  // increasing even though all three are handled off a single read event.
  ASSERT_TRUE(client.send_raw(
      "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
  double previous = 0.0;
  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line));
    const JsonValue response = parse_json(line);
    ASSERT_TRUE(is_ok(response));
    const double id = response.number_or("request_id", 0.0);
    EXPECT_GT(id, previous);
    previous = id;
  }
  server.stop();
}

TEST(ServeObservability, SlowRequestsWarnAndCount) {
  // Stderr off for the duration: the test *wants* warn records, just not
  // in the test log.
  log::Logger::instance().set_stderr_enabled(false);
  serve::set_slow_request_threshold_us(1);  // everything is "slow"
  const double before = counter_value("serve.slow_requests");
  const std::uint64_t ring_before =
      log::FlightRecorder::instance().recorded_count();

  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"slow\",\"estimator\":\"mle\"}")));
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"observe\",\"session\":\"slow\",\"samples\":[[1],[2]]}")));
  server.stop();

  serve::set_slow_request_threshold_us(0);
  log::Logger::instance().set_stderr_enabled(true);
  if (telemetry::enabled()) {
    EXPECT_GE(counter_value("serve.slow_requests"), before + 2.0);
  }
  EXPECT_GT(log::FlightRecorder::instance().recorded_count(), ring_before);
  bool found = false;
  for (const log::LogRecord& rec :
       log::FlightRecorder::instance().snapshot()) {
    if (std::string_view(rec.message) == "slow serve request") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ServeObservability, ObserveRequestsCounterIsExact) {
  const double before = counter_value("serve.observe.requests");
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"cnt\",\"estimator\":\"mle\"}")));
  constexpr int kObserves = 7;
  for (int i = 0; i < kObserves; ++i) {
    ASSERT_TRUE(is_ok(client.round_trip(
        "{\"op\":\"observe\",\"session\":\"cnt\",\"samples\":[[1],[2]]}")));
  }
  server.stop();
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_value("serve.observe.requests"), before + kObserves);
  }
}

TEST(ServeObservability, StatuszAndAdminResponderWorkWithoutTransport) {
  // The responder is transport-agnostic: drive it directly, no sockets.
  SessionRegistry sessions;
  const std::string response =
      serve::handle_admin_request("GET", "/statusz", sessions);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const JsonValue statusz = parse_json(http_body(response));
  EXPECT_TRUE(is_ok(statusz));
  ASSERT_NE(statusz.find("sessions"), nullptr);
  EXPECT_TRUE(statusz.find("sessions")->as_array().empty());
  EXPECT_NE(
      serve::handle_admin_request("GET", "/gone", sessions).find("404"),
      std::string::npos);
  EXPECT_NE(
      serve::handle_admin_request("PUT", "/metrics", sessions).find("405"),
      std::string::npos);
}

TEST(ServeObservability, StatuszEscapesClientChosenSessionIds) {
  // Session ids come from clients; /statusz must stay strict JSON (no raw
  // control characters) whatever they contain.
  SessionRegistry sessions;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(sessions,
                            "{\"op\":\"open\",\"session\":\"a\\r\\u0001\\\"b\","
                            "\"estimator\":\"mle\"}")
          .response)));
  const std::string statusz = serve::statusz_json(sessions);
  for (const char c : statusz) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << statusz;
  }
  const JsonValue parsed = parse_json(statusz);
  ASSERT_EQ(parsed.find("sessions")->as_array().size(), 1u);
  EXPECT_EQ(parsed.find("sessions")->as_array()[0].string_or("id", ""),
            "a\r\x01\"b");
}

TEST(ServeBinary, PopulationFlagRoutesObserveAndStats) {
  Server server;
  server.start();
  serve::LineClient binary;
  ASSERT_TRUE(binary.connect_to(server.port()));
  ASSERT_TRUE(binary.negotiate_binary());
  serve::Frame frame;
  ASSERT_TRUE(binary.request_frame(serve::wire::kJson,
                                   fusion_open_request("b", 3), frame));
  ASSERT_TRUE(frame.ok());

  // kFlagPopulation inserts a u32 population after the session id.
  const Matrix samples = test_samples(56, 2, 0.25);
  std::string payload;
  serve::wire::append_string(payload, "b");
  serve::wire::append_u32(payload, 2);
  serve::wire::append_u32(payload,
                          static_cast<std::uint32_t>(samples.rows()));
  serve::wire::append_u32(payload,
                          static_cast<std::uint32_t>(samples.cols()));
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      const double value = samples(r, c);
      char bytes[sizeof(double)];
      std::memcpy(bytes, &value, sizeof(double));
      payload.append(bytes, sizeof(double));
    }
  }
  ASSERT_TRUE(binary.request_frame(serve::wire::kObserve, payload, frame,
                                   serve::wire::kFlagPopulation));
  ASSERT_TRUE(frame.ok());
  std::uint64_t total = 0;
  std::memcpy(&total, frame.payload.data() + 4, sizeof total);
  EXPECT_EQ(total, 56u);

  // Without the flag the same frame layout routes to population 0.
  ASSERT_TRUE(binary.request_frame(
      serve::wire::kObserve, binary_observe_payload("b", samples), frame));
  ASSERT_TRUE(frame.ok());
  std::memcpy(&total, frame.payload.data() + 4, sizeof total);
  EXPECT_EQ(total, 112u);

  // Stats with the flag exports the tagged population's shard.
  std::string stats_payload;
  serve::wire::append_string(stats_payload, "b");
  serve::wire::append_u32(stats_payload, 2);
  serve::wire::append_u64(stats_payload, 11);
  ASSERT_TRUE(binary.request_frame(serve::wire::kStats, stats_payload,
                                   frame, serve::wire::kFlagPopulation));
  ASSERT_TRUE(frame.ok());
  const stats::StatsShard shard = stats::parse_shard(frame.payload);
  EXPECT_EQ(shard.population_id, 2u);
  EXPECT_EQ(shard.count(), 56u);

  // Out-of-range population routes to a flagged error frame, connection
  // stays usable.
  std::string bad_payload;
  serve::wire::append_string(bad_payload, "b");
  serve::wire::append_u32(bad_payload, 9);
  serve::wire::append_u64(bad_payload, 12);
  ASSERT_TRUE(binary.request_frame(serve::wire::kStats, bad_payload, frame,
                                   serve::wire::kFlagPopulation));
  EXPECT_FALSE(frame.ok());
  ASSERT_TRUE(binary.request_frame(serve::wire::kPing, "", frame));
  EXPECT_TRUE(frame.ok());
  server.stop();
}

TEST(ServeProtocol, BinaryObserveCellCountDoesNotWrap) {
  // rows * cols * sizeof(double) is 2^64 + 32 for this pair: a 64-bit
  // product wraps to 32, which a 32-byte cell block would satisfy.
  SessionRegistry sessions;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(
          sessions, "{\"op\":\"open\",\"session\":\"w\",\"estimator\":\"mle\"}")
          .response)));
  const double internal_before = counter_value("serve.errors.internal");
  const double data_before = counter_value("serve.errors.data");
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {631832658u, 3649452082u}, {3649452082u, 631832658u}};
  for (const auto& [rows, cols] : shapes) {
    std::string payload;
    serve::wire::append_string(payload, "w");
    serve::wire::append_u32(payload, rows);
    serve::wire::append_u32(payload, cols);
    payload.append(32, '\0');
    const serve::BinaryResult result = serve::handle_binary_request(
        sessions, serve::wire::kObserve, 0, payload);
    const std::string expected_payload =
        "DataErrormalformed binary request payload (truncated) "
        "[op=serve_binary index=11]";
    ASSERT_GT(result.response.size(), serve::wire::kHeaderBytes + 2);
    EXPECT_EQ(static_cast<unsigned char>(result.response[2]),
              serve::wire::kFlagError);
    EXPECT_EQ(result.response.substr(serve::wire::kHeaderBytes + 2),
              expected_payload)
        << rows << " x " << cols;
  }
  EXPECT_EQ(sessions.get("w")->observed_count(), 0u);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_value("serve.errors.internal"), internal_before);
    EXPECT_EQ(counter_value("serve.errors.data"), data_before + 2.0);
  }
}

/// The error message of a JSON-mode error response ("" on success).
std::string error_message(const std::string& response) {
  const JsonValue parsed = parse_json(response);
  const JsonValue* error = parsed.find("error");
  return error == nullptr ? "" : error->string_or("message", "");
}

TEST(ServeProtocol, ConfigCountsAcceptOnlyExactIntegers) {
  SessionRegistry sessions;
  int serial = 0;
  const auto open = [&sessions, &serial](const std::string& config) {
    return error_message(
        serve::handle_request(
            sessions, "{\"op\":\"open\",\"session\":\"i" +
                          std::to_string(serial++) +
                          "\",\"estimator\":\"univariate-bmf\","
                          "\"early\":{\"mean\":[0],\"covariance\":[[1]]},"
                          "\"config\":{" +
                          config + "}}")
            .response);
  };
  // Fractions, negatives, non-numbers and values past 2^32-1 (1e999 parses
  // as inf) are rejected by name, never cast: a cast of 1e20 to size_t is
  // undefined, and 2.5 used to become 2.
  for (const char* field : {"folds", "kappa_points", "nu_points"}) {
    for (const char* bad : {"1e20", "1e999", "2.5", "-1", "\"4\"",
                            "4294967296"}) {
      EXPECT_EQ(open(std::string("\"") + field + "\":" + bad),
                std::string("\"config.") + field +
                    "\" must be a nonnegative integer no larger than 2^32-1 "
                    "[op=serve_protocol detail=field: config." +
                    field + "]")
          << field << "=" << bad;
    }
  }
  // "threads" is no longer a config field; clients that still send it
  // open sessions as before.
  EXPECT_EQ(open("\"folds\":3,\"kappa_points\":4,\"nu_points\":4,"
                 "\"threads\":1"),
            "");
  // Exact integers still reach the estimator's own checks.
  EXPECT_NE(open("\"folds\":1").find("folds"), std::string::npos);
}

TEST(ServeProtocol, MalformedSamplesNameTheMember) {
  SessionRegistry sessions;
  (void)serve::handle_request(
      sessions, "{\"op\":\"open\",\"session\":\"m\",\"estimator\":\"mle\"}");
  for (const char* samples : {"[[1,2],[3]]", "[]", "{}", "[[1],[\"x\"]]"}) {
    const std::string message = error_message(
        serve::handle_request(sessions,
                              std::string("{\"op\":\"observe\",\"session\":"
                                          "\"m\",\"samples\":") +
                                  samples + "}")
            .response);
    EXPECT_EQ(message.rfind("\"samples", 0), 0u) << samples << ": " << message;
    EXPECT_EQ(message.find("estimator spec"), std::string::npos) << message;
    EXPECT_EQ(message.find("serve_open"), std::string::npos) << message;
  }
}

// --------------------------------------------------------- golden transcript

/// Rows of exact binary fractions: the shards and MLE moments they produce
/// carry no libm rounding.
Matrix exact_samples(std::size_t rows, std::size_t cols, double shift) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out(r, c) = shift + 0.25 * static_cast<double>((r * cols + 3 * c) % 7);
    }
  }
  return out;
}

/// Bytes outside printable ASCII as \xHH and a backslash as \\, so a binary
/// frame compares as a line of text.
std::string printable(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
      continue;
    }
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
      continue;
    }
    char hex[8];
    std::snprintf(hex, sizeof hex, "\\x%02x", static_cast<unsigned>(byte));
    out += hex;
  }
  return out;
}

/// Replaces what differs from run to run: the request id, the uptime, and
/// the "at <file>:<line>" location that contract messages carry.
std::string mask_volatile(std::string text) {
  for (const std::string_view key : {"\"request_id\":", "\"uptime_s\":"}) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) continue;
    const std::size_t begin = at + key.size();
    const std::size_t end = text.find_first_of(",}", begin);
    text.replace(begin, end - begin, "#");
  }
  for (std::size_t at = text.find(" at "); at != std::string::npos;
       at = text.find(" at ", at + 1)) {
    const std::size_t close = text.find(']', at);
    if (close == std::string::npos) break;
    const std::string_view location(text.data() + at + 4, close - at - 4);
    const std::size_t colon = location.rfind(':');
    if (colon == std::string_view::npos || colon + 1 == location.size() ||
        location.find(' ') != std::string_view::npos ||
        location.find_first_not_of("0123456789", colon + 1) !=
            std::string_view::npos) {
      continue;
    }
    text.replace(at + 4, location.size(), "<file>:<line>");
  }
  return text;
}

/// A response frame with its payload masked. The length field is checked
/// against the payload, then re-derived for the masked payload.
std::string mask_frame(const std::string& frame) {
  if (frame.size() < serve::wire::kHeaderBytes) {
    ADD_FAILURE() << "short frame: " << printable(frame);
    return frame;
  }
  std::uint32_t length = 0;
  std::memcpy(&length, frame.data() + 4, sizeof length);
  EXPECT_EQ(length, frame.size() - serve::wire::kHeaderBytes);
  const std::string payload =
      mask_volatile(frame.substr(serve::wire::kHeaderBytes));
  std::string out = frame.substr(0, 4);
  serve::wire::append_u32(out, static_cast<std::uint32_t>(payload.size()));
  return out + payload;
}

std::uint64_t histogram_count(const std::string& name) {
  for (const auto& histogram :
       telemetry::Registry::instance().snapshot().histograms) {
    if (histogram.name == name) return histogram.data.count;
  }
  return 0;
}

std::string observe_frame_payload(std::string_view session,
                                  std::uint32_t rows, std::uint32_t cols,
                                  std::size_t cell_bytes) {
  std::string payload;
  serve::wire::append_string(payload, session);
  serve::wire::append_u32(payload, rows);
  serve::wire::append_u32(payload, cols);
  payload.append(cell_bytes, '\0');
  return payload;
}

/// Every response of a fixed request sequence, masked as above, recorded
/// before the JSON and binary modes shared one request path. Five entries
/// changed on purpose since: the three malformed-samples errors name the
/// member instead of an open spec, and the two wrapping cell counts answer
/// DataError instead of InternalError. Entries pair a label with the
/// response; binary frames render their non-printable bytes as \xHH. The
/// fusion and BMF estimate digits depend on libm (the CV grid's
/// log/lgamma), as the PinnedDies fingerprints do, so a different libm may
/// legitimately change those entries.
constexpr std::pair<std::string_view, std::string_view> kGolden[] = {
    {"json ping",
     R"g({"ok":true,"op":"ping","request_id":#,"server_version":"1.0.0","wire_version":2,"uptime_s":#})g"},
    {"json hello",
     R"g({"ok":true,"op":"hello","mode":"json","server_version":"1.0.0","wire_version":2,"uptime_s":#})g"},
    {"json hello binary",
     R"g({"ok":true,"op":"hello","mode":"binary","server_version":"1.0.0","wire_version":2,"uptime_s":#} +binary)g"},
    {"json open mle",
     R"g({"ok":true,"op":"open","session":"m","estimator":"mle"})g"},
    {"json open bmf",
     R"g({"ok":true,"op":"open","session":"b","estimator":"bmf"})g"},
    {"json open fusion",
     R"g({"ok":true,"op":"open","session":"f","estimator":"fusion"})g"},
    {"json open empty",
     R"g({"ok":true,"op":"open","session":"e","estimator":"mle"})g"},
    {"json observe",
     R"g({"ok":true,"op":"observe","session":"m","observed":6,"total":6})g"},
    {"json observe population 0",
     R"g({"ok":true,"op":"observe","session":"m","population":0,"observed":3,"total":9})g"},
    {"json observe fusion population 1",
     R"g({"ok":true,"op":"observe","session":"f","population":1,"observed":8,"total":8})g"},
    {"json observe fusion default population",
     R"g({"ok":true,"op":"observe","session":"f","observed":8,"total":16})g"},
    {"json observe bmf",
     R"g({"ok":true,"op":"observe","session":"b","observed":16,"total":16})g"},
    {"json absorb",
     R"g({"ok":true,"op":"absorb","session":"m","duplicate":false,"total":17})g"},
    {"json absorb duplicate",
     R"g({"ok":true,"op":"absorb","session":"m","duplicate":true,"total":17})g"},
    {"json stats",
     R"g({"ok":true,"op":"stats","session":"m","shard":{"format":"bmfusion.stats_shard","version":2,"shard_id":9,"population":0,"estimator":"mle","dimension":2,"nominal":[],"folds":[{"dimension":2,"runs":[{"blocks":0,"stats":{"count":9,"sum":[13,14.5],"sum_outer_upper":[21.625,20.875,26.5]}},{"blocks":0,"stats":{"count":8,"sum":[21.25,22],"sum_outer_upper":[58.6875,57.5625,62.25]}}]}]}})g"},
    {"json stats population",
     R"g({"ok":true,"op":"stats","session":"f","shard":{"format":"bmfusion.stats_shard","version":2,"shard_id":3,"population":1,"estimator":"bmf","dimension":2,"nominal":[],"folds":[{"dimension":2,"runs":[],"partial":{"count":2,"sum":[0.75,2.25],"sum_outer_upper":[0.3125,0.875,2.5625]}},{"dimension":2,"runs":[],"partial":{"count":2,"sum":[1.75,3.25],"sum_outer_upper":[1.5625,2.875,5.3125]}},{"dimension":2,"runs":[],"partial":{"count":2,"sum":[2.75,0.75],"sum_outer_upper":[3.8125,1.0625,0.3125]}},{"dimension":2,"runs":[],"partial":{"count":2,"sum":[2,1.75],"sum_outer_upper":[3.125,1.5625,1.5625]}}]}})g"},
    {"json estimate",
     R"g({"ok":true,"op":"estimate","session":"m","count":17,"estimate":{"mean":[2.0147058823529411,2.1470588235294117],"covariance":[[0.66522491349480983,0.28827854671280306],[0.28827854671280306,0.61072664359861639]],"kappa0":null,"nu0":null,"score":null}})g"},
    {"json estimate fusion",
     R"g({"ok":true,"op":"estimate","session":"f","count":16,"observed_populations":2,"signal_variance":0.17311814128943764,"correlation":[[1,0.51000000000000001],[0.51000000000000001,1]],"populations":[{"population":0,"name":"pop0","observed":8,"borrowed_kappa":1.2682908730646503,"anchor_shift":0.3247786200124273,"fused":{"mean":[0.28335337294714774,0.6536679398302635],"covariance":[[0.37471802963987821,-0.051251113570804648],[-0.051251113570804648,0.45155532165733597]],"kappa0":999.99999999999977,"nu0":3,"score":-1.7877408119981091},"independent":{"mean":[0.0012400793650793654,0.49801587301587302],"covariance":[[0.3817722111992945,-0.13166887125220461],[-0.13166887125220461,0.36067019400352734]],"kappa0":999.99999999999977,"nu0":3,"score":-1.7877408119981091}},{"population":1,"name":"pop1","observed":8,"borrowed_kappa":2.0247801998037396,"anchor_shift":0.0011907532092346762,"fused":{"mean":[0.65778263159189454,0.86254198591574338],"covariance":[[0.7801289701670262,0.0067153670197827465],[0.0067153670197827465,0.68338569164136986]],"kappa0":1,"nu0":11.999999999999998,"score":-2.055412513113696},"independent":{"mean":[0.80555555555555558,0.94444444444444442],"covariance":[[0.72067901234567888,-0.02623456790123457],[-0.02623456790123457,0.6651234567901233]],"kappa0":1,"nu0":11.999999999999998,"score":-2.055412513113696}}]})g"},
    {"json not json",
     R"g({"ok":false,"error":{"type":"DataError","message":"json parse error: invalid literal [op=parse_json index=0]"}})g"},
    {"json non-object",
     R"g({"ok":false,"error":{"type":"DataError","message":"request must be a JSON object [op=serve_protocol]"}})g"},
    {"json missing op",
     R"g({"ok":false,"error":{"type":"DataError","message":"request needs a string \\"op\\" [op=serve_protocol]"}})g"},
    {"json non-string op",
     R"g({"ok":false,"error":{"type":"DataError","message":"request needs a string \\"op\\" [op=serve_protocol]"}})g"},
    {"json unknown op",
     R"g({"ok":false,"error":{"type":"DataError","message":"unknown op \\"wat\\" [op=serve_protocol]"}})g"},
    {"json hello bad mode",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"mode\\" must be \\"json\\" or \\"binary\\" [op=serve_protocol]"}})g"},
    {"json open duplicate",
     R"g({"ok":false,"error":{"type":"DataError","message":"session already open [op=serve_open detail=id: m]"}})g"},
    {"json open unknown estimator",
     R"g({"ok":false,"error":{"type":"DataError","message":"malformed estimator spec [op=serve_open detail=unknown estimator \\"mystery\\" (expected mle, bmf or univariate-bmf)]"}})g"},
    {"json missing session",
     R"g({"ok":false,"error":{"type":"DataError","message":"request needs a string \\"session\\" [op=serve_protocol]"}})g"},
    {"json non-string session",
     R"g({"ok":false,"error":{"type":"DataError","message":"request needs a string \\"session\\" [op=serve_protocol]"}})g"},
    {"json unknown session",
     R"g({"ok":false,"error":{"type":"DataError","message":"unknown session [op=serve_lookup detail=id: ghost]"}})g"},
    {"json population out of range",
     R"g({"ok":false,"error":{"type":"DataError","message":"population id is out of range [op=serve_observe index=9 detail=2 population(s) in session f]"}})g"},
    {"json population -1",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"population\\" must be a nonnegative integer no larger than 2^32-1 [op=serve_protocol detail=field: population]"}})g"},
    {"json population 0.5",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"population\\" must be a nonnegative integer no larger than 2^32-1 [op=serve_protocol detail=field: population]"}})g"},
    {"json population \"1\"",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"population\\" must be a nonnegative integer no larger than 2^32-1 [op=serve_protocol detail=field: population]"}})g"},
    {"json population 4294967296",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"population\\" must be a nonnegative integer no larger than 2^32-1 [op=serve_protocol detail=field: population]"}})g"},
    {"json stats population string",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"population\\" must be a nonnegative integer no larger than 2^32-1 [op=serve_protocol detail=field: population]"}})g"},
    {"json shard_id 7.5",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"shard_id\\" must be a nonnegative integer no larger than 2^53 [op=serve_protocol detail=field: shard_id]"}})g"},
    {"json shard_id 1e16",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"shard_id\\" must be a nonnegative integer no larger than 2^53 [op=serve_protocol detail=field: shard_id]"}})g"},
    {"json missing samples",
     R"g({"ok":false,"error":{"type":"DataError","message":"request needs \\"samples\\" [op=serve_protocol]"}})g"},
    {"json ragged samples",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"samples\\" rows are ragged [op=serve_protocol detail=field: samples]"}})g"},
    {"json empty samples",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"samples\\" must be a non-empty array of rows [op=serve_protocol detail=field: samples]"}})g"},
    {"json zero-column samples",
     R"g({"ok":false,"error":{"type":"ContractError","message":"contract violation: observe needs samples with dimension >= 1 [samples.cols() >= 1 at <file>:<line>]"}})g"},
    {"json decode before lookup",
     R"g({"ok":false,"error":{"type":"DataError","message":"\\"samples\\" rows are ragged [op=serve_protocol detail=field: samples]"}})g"},
    {"json absorb missing shard",
     R"g({"ok":false,"error":{"type":"DataError","message":"request needs \\"shard\\" [op=serve_protocol]"}})g"},
    {"json absorb malformed shard",
     R"g({"ok":false,"error":{"type":"DataError","message":"stats shard JSON has a wrong \\"format\\" marker [op=shard_from_json]"}})g"},
    {"json estimate before any sample",
     R"g({"ok":false,"error":{"type":"ContractError","message":"contract violation: snapshot needs at least one observed sample [observed_ >= 1 at <file>:<line>]"}})g"},
    {"json close unknown session",
     R"g({"ok":false,"error":{"type":"DataError","message":"unknown session [op=serve_close detail=id: ghost]"}})g"},
    {"binary ping",
     R"g(\xbf\x04\x00\x00\x00\x00\x00\x00)g"},
    {"binary observe",
     R"g(\xbf\x01\x00\x00\x0c\x00\x00\x00\x04\x00\x00\x00\x15\x00\x00\x00\x00\x00\x00\x00)g"},
    {"binary observe population",
     R"g(\xbf\x01\x00\x00\x0c\x00\x00\x00\x05\x00\x00\x00\x15\x00\x00\x00\x00\x00\x00\x00)g"},
    {"binary absorb",
     R"g(\xbf\x02\x00\x00\x09\x00\x00\x00\x00\x1b\x00\x00\x00\x00\x00\x00\x00)g"},
    {"binary absorb duplicate",
     R"g(\xbf\x02\x00\x00\x09\x00\x00\x00\x01\x1b\x00\x00\x00\x00\x00\x00\x00)g"},
    {"binary absorb fusion",
     R"g(\xbf\x02\x00\x00\x09\x00\x00\x00\x00\x1d\x00\x00\x00\x00\x00\x00\x00)g"},
    {"binary stats",
     R"g(\xbf\x03\x00\x00 \x01\x00\x00BMFS\x02\x00\x00\x00\x04\x03\x02\x01\x0b\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00mle\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00*@\x00\x00\x00\x00\x00\x00-@\x00\x00\x00\x00\x00\xa05@\x00\x00\x00\x00\x00\xe04@\x00\x00\x00\x00\x00\x80:@\x00\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00@5@\x00\x00\x00\x00\x00\x006@\x00\x00\x00\x00\x00XM@\x00\x00\x00\x00\x00\xc8L@\x00\x00\x00\x00\x00 O@\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"@\x00\x00\x00\x00\x00\x00!@\x00\x00\x00\x00\x00\x805@\x00\x00\x00\x00\x00\xa02@\x00\x00\x00\x00\x00\xe02@\x00\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xc0\x00\x00\x00\x00\x00\x00\xf0\xbf\x00\x00\x00\x00\x00\x00\x01@\x00\x00\x00\x00\x00\x00\xd0\xbf\x00\x00\x00\x00\x00\x00\xfa?\x00\xf8\xb2\x98_\xcc\xd3\xca\xb0)g"},
    {"binary stats population",
     R"g(\xbf\x03\x00\x00\x1b\x02\x00\x00BMFS\x02\x00\x00\x00\x04\x03\x02\x01\x0c\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x03\x00\x00\x00bmf\x00\x00\x00\x00\x04\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x04@\x00\x00\x00\x00\x00\x00\x16@\x00\x00\x00\x00\x00\x00\xfe?\x00\x00\x00\x00\x00\x00\x0e@\x00\x00\x00\x00\x00\x80\x1f@\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x02@\x00\x00\x00\x00\x00\x00\x0e@\x00\x00\x00\x00\x00\x80\x04@\x00\x00\x00\x00\x00\x00\x11@\x00\x00\x00\x00\x00@\x1c@\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x08@\x00\x00\x00\x00\x00\x00\x15@\x00\x00\x00\x00\x00\x00\x09@\x00\x00\x00\x00\x00\x80\x15@\x00\x00\x00\x00\x00\xa0"@\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x0a@\x00\x00\x00\x00\x00\x00\x13@\x00\x00\x00\x00\x00@\x15@\x00\x00\x00\x00\x00\x00\x1f@\x00\x00\x00\x00\x00\xa0&@\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x12@\x00\x00\x00\x00\x00\x00\xf8?\x00\x00\x00\x00\x00\x80\x1b@\x00\x00\x00\x00\x00\x00\x03@\x00\x00\x00\x00\x00\x00\xec?\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x11@\x00\x00\x00\x00\x00\x00\x02@\x00\x00\x00\x00\x00 "@\x00\x00\x00\x00\x00@\x13@\x00\x00\x00\x00\x00\x80\x04@\x00\x02\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x11@\x00\x00\x00\x00\x00\x00\x08@\x00\x00\x00\x00\x00` @\x00\x00\x00\x00\x00\x80\x11@\x00\x00\x00\x00\x00\x00\x09@\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x0c@\x00\x00\x00\x00\x00\x00\x0a@\x00\x00\x00\x00\x00\x00\x1d@\x00\x00\x00\x00\x00\x00\x16@\x00\x00\x00\x00\x00@\x15@\x00U7z\x1a\xcaE\x07^)g"},
    {"binary json estimate",
     R"g(\xbf\x7f\x00\x00\xf5\x00\x00\x00{"ok":true,"op":"estimate","session":"m","count":27,"estimate":{"mean":[1.5277777777777777,1.6296296296296295],"covariance":[[1.5154320987654322,1.0959362139917699],[1.0959362139917699,1.3906035665294927]],"kappa0":null,"nu0":null,"score":null}})g"},
    {"binary json estimate bmf",
     R"g(\xbf\x7f\x00\x00\x06\x01\x00\x00{"ok":true,"op":"estimate","session":"b","count":16,"estimate":{"mean":[0.6470588235294118,0.76470588235294112],"covariance":[[0.32396193771626303,-0.097750865051903113],[-0.097750865051903113,0.2828719723183391]],"kappa0":1,"nu0":3,"score":-1.5517629728089728}})g"},
    {"binary json hello",
     R"g(\xbf\x7f\x00\x00_\x00\x00\x00{"ok":true,"op":"hello","mode":"binary","server_version":"1.0.0","wire_version":2,"uptime_s":#})g"},
    {"binary json close",
     R"g(\xbf\x7f\x00\x00&\x00\x00\x00{"ok":true,"op":"close","session":"b"})g"},
    {"binary json unknown op",
     R"g(\xbf\x7f\x00\x00\\\x00\x00\x00{"ok":false,"error":{"type":"DataError","message":"unknown op \\"wat\\" [op=serve_protocol]"}})g"},
    {"binary json not json",
     R"g(\xbf\x7f\x00\x00z\x00\x00\x00{"ok":false,"error":{"type":"DataError","message":"json parse error: expected object key string [op=parse_json index=1]"}})g"},
    {"binary unknown opcode",
     R"g(\xbf\x09\x01\x004\x00\x00\x00\x09\x00DataErrorunknown binary opcode 9 [op=serve_binary])g"},
    {"binary unknown session",
     R"g(\xbf\x01\x01\x00=\x00\x00\x00\x09\x00DataErrorunknown session [op=serve_lookup detail=id: ghost])g"},
    {"binary empty session",
     R"g(\xbf\x01\x01\x008\x00\x00\x00\x09\x00DataErrorunknown session [op=serve_lookup detail=id: ])g"},
    {"binary truncated session",
     R"g(\xbf\x01\x01\x00Q\x00\x00\x00\x09\x00DataErrormalformed binary request payload (truncated) [op=serve_binary index=2])g"},
    {"binary zero rows",
     R"g(\xbf\x01\x01\x00F\x00\x00\x00\x09\x00DataErrorobserve frame needs rows > 0 and cols > 0 [op=serve_binary])g"},
    {"binary zero cols",
     R"g(\xbf\x01\x01\x00F\x00\x00\x00\x09\x00DataErrorobserve frame needs rows > 0 and cols > 0 [op=serve_binary])g"},
    {"binary truncated cells",
     R"g(\xbf\x01\x01\x00R\x00\x00\x00\x09\x00DataErrormalformed binary request payload (truncated) [op=serve_binary index=11])g"},
    {"binary trailing cells",
     R"g(\xbf\x01\x01\x00W\x00\x00\x00\x09\x00DataErrormalformed binary request payload (trailing bytes) [op=serve_binary index=27])g"},
    {"binary decode before lookup",
     R"g(\xbf\x01\x01\x00W\x00\x00\x00\x09\x00DataErrormalformed binary request payload (trailing bytes) [op=serve_binary index=31])g"},
    {"binary population out of range",
     R"g(\xbf\x01\x01\x00g\x00\x00\x00\x09\x00DataErrorpopulation id is out of range [op=serve_observe index=9 detail=2 population(s) in session f])g"},
    {"binary cell count wraps (rows, cols)",
     R"g(\xbf\x01\x01\x00R\x00\x00\x00\x09\x00DataErrormalformed binary request payload (truncated) [op=serve_binary index=11])g"},
    {"binary cell count wraps (cols, rows)",
     R"g(\xbf\x01\x01\x00R\x00\x00\x00\x09\x00DataErrormalformed binary request payload (truncated) [op=serve_binary index=11])g"},
    {"binary stats trailing",
     R"g(\xbf\x03\x01\x00W\x00\x00\x00\x09\x00DataErrormalformed binary request payload (trailing bytes) [op=serve_binary index=11])g"},
    {"binary stats truncated",
     R"g(\xbf\x03\x01\x00Q\x00\x00\x00\x09\x00DataErrormalformed binary request payload (truncated) [op=serve_binary index=3])g"},
    {"binary stats population out of range",
     R"g(\xbf\x03\x01\x00e\x00\x00\x00\x09\x00DataErrorpopulation id is out of range [op=serve_stats index=9 detail=2 population(s) in session f])g"},
    {"binary absorb corrupt checksum",
     R"g(\xbf\x02\x01\x00k\x00\x00\x00\x09\x00DataErrorstats shard frame checksum mismatch [op=parse_shard index=104 detail=frame corrupted in transit])g"},
    {"binary absorb corrupt fold",
     R"g(\xbf\x02\x01\x00\xb0\x00\x00\x00\x09\x00DataErrorinvalid stats shard fold: contract violation: stat stream partial block must hold < kBlockSamples [partial.count() < kBlockSamples at <file>:<line>] [op=parse_shard])g"},
    {"binary absorb empty shard",
     R"g(\xbf\x02\x01\x00[\x00\x00\x00\x09\x00DataErrortruncated stats shard frame [op=parse_shard index=0 detail=while reading string])g"},
    {"binary absorb unknown session",
     R"g(\xbf\x02\x01\x00=\x00\x00\x00\x09\x00DataErrorunknown session [op=serve_lookup detail=id: ghost])g"},
    {"json close",
     R"g({"ok":true,"op":"close","session":"m"})g"},
    {"binary json shutdown",
     R"g(\xbf\x7f\x00\x00\x1b\x00\x00\x00{"ok":true,"op":"shutdown"} +shutdown)g"},
    {"json shutdown",
     R"g({"ok":true,"op":"shutdown"} +shutdown)g"},
};

TEST(ServeProtocol, GoldenTranscript) {
  SessionRegistry sessions;
  constexpr const char* kOps[] = {
      "ping",     "hello", "open",     "observe", "absorb", "stats",
      "estimate", "close", "shutdown", "metrics", "unknown"};
  std::map<std::string, double> ops_before;
  for (const char* op : kOps) {
    ops_before[op] = counter_value(std::string("serve.") + op + ".requests");
  }
  const double requests_before = counter_value("serve.requests");
  const std::uint64_t request_us_before = histogram_count("serve.request_us");

  std::vector<std::pair<std::string, std::string>> transcript;
  std::map<std::string, double> ops_expected;
  double json_path_requests = 0;
  const auto json = [&](const char* label, const char* op,
                        const std::string& line) {
    const serve::ProtocolResult result = serve::handle_request(sessions, line);
    std::string entry = printable(mask_volatile(result.response));
    if (result.shutdown) entry += " +shutdown";
    if (result.switch_to_binary) entry += " +binary";
    transcript.emplace_back(label, entry);
    ops_expected[op] += 1;
    json_path_requests += 1;
  };
  const auto binary = [&](const char* label, const char* op,
                          std::uint8_t opcode, std::string_view payload,
                          std::uint16_t flags = 0) {
    const serve::BinaryResult result =
        serve::handle_binary_request(sessions, opcode, flags, payload);
    std::string entry = printable(mask_frame(result.response));
    if (result.shutdown) entry += " +shutdown";
    transcript.emplace_back(label, entry);
    ops_expected[op] += 1;
    if (opcode == serve::wire::kJson) json_path_requests += 1;
  };
  const auto with_session = [](std::string_view session) {
    std::string payload;
    serve::wire::append_string(payload, session);
    return payload;
  };
  const auto cells = [](const Matrix& rows) {
    return std::string(reinterpret_cast<const char*>(rows.data()),
                       rows.rows() * rows.cols() * sizeof(double));
  };

  // JSON mode: every op.
  json("json ping", "ping", "{\"op\":\"ping\"}");
  json("json hello", "hello", "{\"op\":\"hello\"}");
  json("json hello binary", "hello", "{\"op\":\"hello\",\"mode\":\"binary\"}");
  json("json open mle", "open",
       "{\"op\":\"open\",\"session\":\"m\",\"estimator\":\"mle\"}");
  json("json open bmf", "open", bmf_open_request("b"));
  json("json open fusion", "open", fusion_open_request("f", 2));
  json("json open empty", "open",
       "{\"op\":\"open\",\"session\":\"e\",\"estimator\":\"mle\"}");
  json("json observe", "observe",
       observe_request("m", exact_samples(6, 2, 1.0)));
  json("json observe population 0", "observe",
       fusion_observe_request("m", 0, exact_samples(3, 2, 0.5)));
  json("json observe fusion population 1", "observe",
       fusion_observe_request("f", 1, exact_samples(8, 2, 0.25)));
  json("json observe fusion default population", "observe",
       observe_request("f", exact_samples(8, 2, -0.5)));
  json("json observe bmf", "observe",
       observe_request("b", exact_samples(16, 2, 0.0)));
  core::MleEstimator local;
  local.observe(exact_samples(8, 2, 2.0));
  const std::string absorb_m =
      "{\"op\":\"absorb\",\"session\":\"m\",\"shard\":" +
      stats::shard_to_json(local.export_shard(42)) + "}";
  json("json absorb", "absorb", absorb_m);
  json("json absorb duplicate", "absorb", absorb_m);
  json("json stats", "stats",
       "{\"op\":\"stats\",\"session\":\"m\",\"shard_id\":9}");
  json("json stats population", "stats",
       "{\"op\":\"stats\",\"session\":\"f\",\"population\":1,\"shard_id\":3}");
  json("json estimate", "estimate", "{\"op\":\"estimate\",\"session\":\"m\"}");
  json("json estimate fusion", "estimate",
       "{\"op\":\"estimate\",\"session\":\"f\"}");

  // JSON mode: every error path.
  json("json not json", "unknown", "this is not json");
  json("json non-object", "unknown", "[1,2,3]");
  json("json missing op", "unknown", "{\"session\":\"m\"}");
  json("json non-string op", "unknown", "{\"op\":7}");
  json("json unknown op", "unknown", "{\"op\":\"wat\",\"session\":\"m\"}");
  json("json hello bad mode", "hello",
       "{\"op\":\"hello\",\"mode\":\"carrier-pigeon\"}");
  json("json open duplicate", "open",
       "{\"op\":\"open\",\"session\":\"m\",\"estimator\":\"mle\"}");
  json("json open unknown estimator", "open",
       "{\"op\":\"open\",\"session\":\"u\",\"estimator\":\"mystery\"}");
  json("json missing session", "observe",
       "{\"op\":\"observe\",\"samples\":[[1,2]]}");
  json("json non-string session", "observe",
       "{\"op\":\"observe\",\"session\":5,\"samples\":[[1,2]]}");
  json("json unknown session", "estimate",
       "{\"op\":\"estimate\",\"session\":\"ghost\"}");
  json("json population out of range", "observe",
       "{\"op\":\"observe\",\"session\":\"f\",\"population\":9,"
       "\"samples\":[[1,2]]}");
  for (const char* bad : {"-1", "0.5", "\"1\"", "4294967296"}) {
    json((std::string("json population ") + bad).c_str(), "observe",
         std::string("{\"op\":\"observe\",\"session\":\"f\",\"population\":") +
             bad + ",\"samples\":[[1,2]]}");
  }
  json("json stats population string", "stats",
       "{\"op\":\"stats\",\"session\":\"f\",\"population\":\"0\"}");
  json("json shard_id 7.5", "stats",
       "{\"op\":\"stats\",\"session\":\"m\",\"shard_id\":7.5}");
  json("json shard_id 1e16", "stats",
       "{\"op\":\"stats\",\"session\":\"m\",\"shard_id\":1e16}");
  json("json missing samples", "observe",
       "{\"op\":\"observe\",\"session\":\"m\"}");
  json("json ragged samples", "observe",
       "{\"op\":\"observe\",\"session\":\"m\",\"samples\":[[1,2],[3]]}");
  json("json empty samples", "observe",
       "{\"op\":\"observe\",\"session\":\"m\",\"samples\":[]}");
  json("json zero-column samples", "observe",
       "{\"op\":\"observe\",\"session\":\"e\",\"samples\":[[]]}");
  json("json decode before lookup", "observe",
       "{\"op\":\"observe\",\"session\":\"ghost\",\"samples\":[[1],[2,3]]}");
  json("json absorb missing shard", "absorb",
       "{\"op\":\"absorb\",\"session\":\"m\"}");
  json("json absorb malformed shard", "absorb",
       "{\"op\":\"absorb\",\"session\":\"m\",\"shard\":{}}");
  json("json estimate before any sample", "estimate",
       "{\"op\":\"estimate\",\"session\":\"e\"}");
  json("json close unknown session", "close",
       "{\"op\":\"close\",\"session\":\"ghost\"}");

  // Binary mode: every opcode, and JSON through the kJson escape.
  const Matrix binary_rows = exact_samples(4, 2, 1.5);
  binary("binary ping", "ping", serve::wire::kPing, "");
  binary("binary observe", "observe", serve::wire::kObserve,
         binary_observe_payload("m", binary_rows));
  std::string population_observe = with_session("f");
  serve::wire::append_u32(population_observe, 1);
  serve::wire::append_u32(population_observe, 5);
  serve::wire::append_u32(population_observe, 2);
  population_observe += cells(exact_samples(5, 2, 0.75));
  binary("binary observe population", "observe", serve::wire::kObserve,
         population_observe, serve::wire::kFlagPopulation);
  core::MleEstimator binary_local;
  binary_local.observe(exact_samples(6, 2, -1.0));
  const std::string shard_m =
      stats::serialize_shard(binary_local.export_shard(77));
  binary("binary absorb", "absorb", serve::wire::kAbsorb,
         with_session("m") + shard_m);
  binary("binary absorb duplicate", "absorb", serve::wire::kAbsorb,
         with_session("m") + shard_m);
  binary("binary absorb fusion", "absorb", serve::wire::kAbsorb,
         with_session("f") + stats::serialize_shard(fold_shard(
                                 exact_samples(8, 2, 1.0), 5, 1)));
  std::string stats_m = with_session("m");
  serve::wire::append_u64(stats_m, 11);
  binary("binary stats", "stats", serve::wire::kStats, stats_m);
  std::string stats_f = with_session("f");
  serve::wire::append_u32(stats_f, 1);
  serve::wire::append_u64(stats_f, 12);
  binary("binary stats population", "stats", serve::wire::kStats, stats_f,
         serve::wire::kFlagPopulation);
  binary("binary json estimate", "estimate", serve::wire::kJson,
         "{\"op\":\"estimate\",\"session\":\"m\"}");
  binary("binary json estimate bmf", "estimate", serve::wire::kJson,
         "{\"op\":\"estimate\",\"session\":\"b\"}");
  binary("binary json hello", "hello", serve::wire::kJson,
         "{\"op\":\"hello\",\"mode\":\"binary\"}");
  binary("binary json close", "close", serve::wire::kJson,
         "{\"op\":\"close\",\"session\":\"b\"}");
  binary("binary json unknown op", "unknown", serve::wire::kJson,
         "{\"op\":\"wat\"}");
  binary("binary json not json", "unknown", serve::wire::kJson, "{");

  // Binary mode: every error path.
  binary("binary unknown opcode", "unknown", 0x09, "");
  binary("binary unknown session", "observe", serve::wire::kObserve,
         binary_observe_payload("ghost", binary_rows));
  binary("binary empty session", "observe", serve::wire::kObserve,
         binary_observe_payload("", binary_rows));
  binary("binary truncated session", "observe", serve::wire::kObserve,
         std::string("\x05\x00" "ab", 4));
  binary("binary zero rows", "observe", serve::wire::kObserve,
         observe_frame_payload("m", 0, 2, 0));
  binary("binary zero cols", "observe", serve::wire::kObserve,
         observe_frame_payload("m", 2, 0, 0));
  binary("binary truncated cells", "observe", serve::wire::kObserve,
         observe_frame_payload("m", 2, 2, 3 * sizeof(double)));
  binary("binary trailing cells", "observe", serve::wire::kObserve,
         observe_frame_payload("m", 1, 2, 2 * sizeof(double) + 1));
  binary("binary decode before lookup", "observe", serve::wire::kObserve,
         observe_frame_payload("ghost", 1, 2, 2 * sizeof(double) + 1));
  std::string bad_population = with_session("f");
  serve::wire::append_u32(bad_population, 9);
  serve::wire::append_u32(bad_population, 1);
  serve::wire::append_u32(bad_population, 2);
  bad_population.append(2 * sizeof(double), '\0');
  binary("binary population out of range", "observe", serve::wire::kObserve,
         bad_population, serve::wire::kFlagPopulation);
  binary("binary cell count wraps (rows, cols)", "observe",
         serve::wire::kObserve,
         observe_frame_payload("m", 631832658u, 3649452082u, 32));
  binary("binary cell count wraps (cols, rows)", "observe",
         serve::wire::kObserve,
         observe_frame_payload("m", 3649452082u, 631832658u, 32));
  std::string stats_trailing = stats_m + '\0';
  binary("binary stats trailing", "stats", serve::wire::kStats,
         stats_trailing);
  binary("binary stats truncated", "stats", serve::wire::kStats,
         with_session("m") + std::string(3, '\0'));
  std::string stats_bad_population = with_session("f");
  serve::wire::append_u32(stats_bad_population, 9);
  serve::wire::append_u64(stats_bad_population, 1);
  binary("binary stats population out of range", "stats",
         serve::wire::kStats, stats_bad_population,
         serve::wire::kFlagPopulation);
  const auto flipped = [&shard_m](std::size_t at) {
    std::string bytes = shard_m;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x40);
    return bytes;
  };
  binary("binary absorb corrupt checksum", "absorb", serve::wire::kAbsorb,
         with_session("m") + flipped(shard_m.size() - 1));
  binary("binary absorb corrupt fold", "absorb", serve::wire::kAbsorb,
         with_session("m") + flipped(shard_m.size() / 2));
  binary("binary absorb empty shard", "absorb", serve::wire::kAbsorb,
         with_session("m"));
  binary("binary absorb unknown session", "absorb", serve::wire::kAbsorb,
         with_session("ghost") + shard_m);

  // Teardown through both modes.
  json("json close", "close", "{\"op\":\"close\",\"session\":\"m\"}");
  binary("binary json shutdown", "shutdown", serve::wire::kJson,
         "{\"op\":\"shutdown\"}");
  json("json shutdown", "shutdown", "{\"op\":\"shutdown\"}");

  const std::size_t entries = std::max(transcript.size(), std::size(kGolden));
  for (std::size_t i = 0; i < entries; ++i) {
    const std::string_view label =
        i < transcript.size() ? std::string_view(transcript[i].first) : "";
    const std::string_view actual =
        i < transcript.size() ? std::string_view(transcript[i].second) : "";
    const std::pair<std::string_view, std::string_view> expected =
        i < std::size(kGolden) ? kGolden[i]
                               : std::pair<std::string_view,
                                           std::string_view>{"", ""};
    EXPECT_TRUE(label == expected.first && actual == expected.second)
        << "entry " << i << ", expected " << expected.first << ": "
        << expected.second << "\n    {\"" << label << "\",\n     R\"g("
        << actual << ")g\"},";
  }

  if (!telemetry::enabled()) return;
  EXPECT_EQ(counter_value("serve.requests") - requests_before,
            static_cast<double>(transcript.size()));
  for (const char* op : kOps) {
    EXPECT_EQ(
        counter_value(std::string("serve.") + op + ".requests") -
            ops_before[op],
        ops_expected[op])
        << op;
  }
  EXPECT_EQ(static_cast<double>(histogram_count("serve.request_us") -
                                request_us_before),
            json_path_requests);
}

}  // namespace
}  // namespace bmfusion
