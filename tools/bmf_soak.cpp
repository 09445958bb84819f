// bmf_soak: load/soak driver for the bmf_serve protocol.
//
// Spins up client threads that stream deterministic pseudo-measurements
// into per-client sessions over real loopback sockets, interleaving
// estimate requests, then verifies the server's final answer against a
// locally accumulated reference (drift check) and reports client-side
// latency quantiles plus observe-request throughput as one JSON line.
//
// By default the server runs in-process (so one ASan run covers client and
// server, and leaked sessions/threads/fds fail the leak check); --port
// targets an already-running bmf_serve instead. Exits nonzero on any
// protocol failure, drift, or violated --min-observe-rps /
// --max-estimate-p99-ms gate — tier1.sh runs this as the serve smoke
// stage, bench.sh as the serve throughput bench.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/sufficient_stats.hpp"
#include "telemetry/decimal.hpp"
#include "telemetry/export.hpp"

namespace {

using bmfusion::JsonValue;
using bmfusion::parse_json;
using bmfusion::telemetry::append_double;
using bmfusion::serve::Frame;
using bmfusion::serve::LineClient;
namespace wire = bmfusion::serve::wire;

// ------------------------------------------------------- sample generation

/// xorshift64* + Box-Muller: deterministic per-client Gaussian stream.
class GaussianStream {
 public:
  explicit GaussianStream(std::uint64_t seed) : state_(seed * 2862933555777941757ULL + 3037000493ULL) {}

  double next() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    do {
      u = uniform();
    } while (u <= 1e-300);
    v = uniform();
    const double r = std::sqrt(-2.0 * std::log(u));
    spare_ = r * std::sin(2.0 * M_PI * v);
    have_spare_ = true;
    return r * std::cos(2.0 * M_PI * v);
  }

 private:
  double uniform() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    const std::uint64_t bits = state_ * 2685821657736338717ULL;
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  std::uint64_t state_;
  double spare_ = 0.0;
  bool have_spare_ = false;
};

// ----------------------------------------------------------- soak clients

struct SoakOptions {
  std::uint16_t port = 0;
  std::size_t requests_per_client = 0;  ///< observe requests per client
  std::size_t batch = 16;
  std::size_t dim = 4;
  std::size_t estimate_every = 100;
  std::string estimator = "mle";
  bool binary = false;  ///< negotiate binary frames for the hot path
};

struct ClientReport {
  std::vector<double> observe_us;
  std::vector<double> estimate_us;
  std::size_t samples = 0;
  std::string failure;  ///< empty on success
};

std::string open_request(const SoakOptions& options, const std::string& id) {
  std::string out = "{\"op\":\"open\",\"session\":\"" + id +
                    "\",\"estimator\":\"" + options.estimator + "\"";
  if (options.estimator != "mle") {
    // Standard-normal early stage at a zero nominal, with a small grid so
    // estimate requests stay cheap enough to interleave densely.
    out += ",\"early\":{\"mean\":[";
    for (std::size_t j = 0; j < options.dim; ++j) {
      out += j == 0 ? "0" : ",0";
    }
    out += "],\"covariance\":[";
    for (std::size_t r = 0; r < options.dim; ++r) {
      if (r != 0) out += ',';
      out += '[';
      for (std::size_t c = 0; c < options.dim; ++c) {
        if (c != 0) out += ',';
        out += r == c ? "1" : "0";
      }
      out += ']';
    }
    out += "],\"nominal\":[";
    for (std::size_t j = 0; j < options.dim; ++j) {
      out += j == 0 ? "0" : ",0";
    }
    out += "]},\"config\":{\"folds\":4,\"kappa_points\":4,\"nu_points\":4}";
    out += ",\"nominal\":[";
    for (std::size_t j = 0; j < options.dim; ++j) {
      out += j == 0 ? "0" : ",0";
    }
    out += ']';
  }
  out += '}';
  return out;
}

bool check_ok_json(const std::string& text, std::string& failure,
                   JsonValue* parsed) {
  try {
    JsonValue response = parse_json(text);
    const JsonValue* ok = response.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      failure = "error response: " + text;
      return false;
    }
    if (parsed != nullptr) *parsed = std::move(response);
    return true;
  } catch (const std::exception& e) {
    failure = std::string("unparseable response: ") + e.what();
    return false;
  }
}

/// JSON request over whichever framing the connection negotiated: a raw
/// line in JSON mode, a kJson passthrough frame in binary mode.
bool expect_ok(LineClient& client, bool binary, const std::string& request,
               std::string& failure, JsonValue* parsed = nullptr) {
  if (binary) {
    Frame frame;
    if (!client.request_frame(wire::kJson, request, frame)) {
      failure = "connection dropped";
      return false;
    }
    return check_ok_json(frame.payload, failure, parsed);
  }
  std::string line;
  if (!client.send_line(request) || !client.recv_line(line)) {
    failure = "connection dropped";
    return false;
  }
  return check_ok_json(line, failure, parsed);
}

void run_client(const SoakOptions& options, std::size_t index,
                ClientReport& report) {
  using Clock = std::chrono::steady_clock;
  LineClient client;
  if (!client.connect_to(options.port)) {
    report.failure = "connect failed";
    return;
  }
  const std::string id = "soak-" + std::to_string(index);
  if (options.binary && !client.negotiate_binary()) {
    report.failure = "binary negotiation failed";
    return;
  }
  if (!expect_ok(client, options.binary, open_request(options, id),
                 report.failure)) {
    return;
  }

  GaussianStream rng(0x9E3779B97F4A7C15ULL + index);
  bmfusion::stats::SufficientStats reference(options.dim);
  bmfusion::linalg::Vector sample(options.dim);
  report.observe_us.reserve(options.requests_per_client);

  for (std::size_t r = 0; r < options.requests_per_client; ++r) {
    bool sent_ok = true;
    if (options.binary) {
      std::string payload;
      payload.reserve(2 + id.size() + 8 +
                      options.batch * options.dim * sizeof(double));
      wire::append_string(payload, id);
      wire::append_u32(payload, static_cast<std::uint32_t>(options.batch));
      wire::append_u32(payload, static_cast<std::uint32_t>(options.dim));
      for (std::size_t i = 0; i < options.batch; ++i) {
        for (std::size_t j = 0; j < options.dim; ++j) {
          sample[j] = rng.next() + static_cast<double>(j);
          char bytes[sizeof(double)];
          std::memcpy(bytes, &sample[j], sizeof(double));
          payload.append(bytes, sizeof(double));
        }
        reference.add(sample);
      }
      const auto start = Clock::now();
      Frame frame;
      sent_ok = client.request_frame(wire::kObserve, payload, frame) &&
                frame.ok();
      if (sent_ok) {
        report.observe_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    } else {
      std::string request =
          "{\"op\":\"observe\",\"session\":\"" + id + "\",\"samples\":[";
      for (std::size_t i = 0; i < options.batch; ++i) {
        if (i != 0) request += ',';
        request += '[';
        for (std::size_t j = 0; j < options.dim; ++j) {
          if (j != 0) request += ',';
          sample[j] = rng.next() + static_cast<double>(j);
          append_double(request, sample[j]);
        }
        request += ']';
        reference.add(sample);
      }
      request += "]}";
      const auto start = Clock::now();
      sent_ok = expect_ok(client, false, request, report.failure);
      if (sent_ok) {
        report.observe_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    }
    if (!sent_ok) {
      if (report.failure.empty()) report.failure = "observe failed";
      return;
    }
    report.samples += options.batch;

    if (options.estimate_every != 0 &&
        (r + 1) % options.estimate_every == 0) {
      const std::string estimate =
          "{\"op\":\"estimate\",\"session\":\"" + id + "\"}";
      const auto est_start = Clock::now();
      if (!expect_ok(client, options.binary, estimate, report.failure)) {
        return;
      }
      report.estimate_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - est_start)
              .count());
    }
  }

  // Drift check: the server's final estimate must agree with the reference
  // statistics this client accumulated from the very same samples. For MLE
  // the estimate mean *is* the sample mean, so agreement is tight; for
  // other estimators we still require a sane finite answer.
  JsonValue response;
  if (!expect_ok(client, options.binary,
                 "{\"op\":\"estimate\",\"session\":\"" + id + "\"}",
                 report.failure, &response)) {
    return;
  }
  const JsonValue* estimate = response.find("estimate");
  const JsonValue* mean =
      estimate != nullptr ? estimate->find("mean") : nullptr;
  if (mean == nullptr || !mean->is_array() ||
      mean->as_array().size() != options.dim) {
    report.failure = "estimate response missing mean";
    return;
  }
  const bmfusion::linalg::Vector local_mean = reference.mean();
  for (std::size_t j = 0; j < options.dim; ++j) {
    const double served = mean->as_array()[j].as_number();
    if (!std::isfinite(served)) {
      report.failure = "non-finite served mean";
      return;
    }
    const double drift = std::abs(served - local_mean[j]);
    const double tolerance =
        options.estimator == "mle" ? 1e-9 : 1.0;  // shrinkage moves BMF
    if (drift > tolerance) {
      report.failure = "mean drift " + std::to_string(drift) +
                       " at dimension " + std::to_string(j);
      return;
    }
  }
  if (!expect_ok(client, options.binary,
                 "{\"op\":\"close\",\"session\":\"" + id + "\"}",
                 report.failure)) {
    return;
  }
}

double quantile_us(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using bmfusion::CliParser;

  CliParser cli("bmf_soak: load driver and drift checker for bmf_serve");
  cli.add_flag("requests", "50000",
               "total observe requests across all clients");
  cli.add_flag("batch", "16", "samples per observe request");
  cli.add_flag("sessions", "4", "concurrent client sessions");
  cli.add_flag("dim", "4", "sample dimension");
  cli.add_flag("estimator", "mle", "estimator per session: mle or bmf");
  cli.add_flag("mode", "json",
               "wire framing for the observe hot path: json or binary");
  cli.add_flag("estimate-every", "100",
               "interleave an estimate request every N observes (0 = off)");
  cli.add_flag("port", "0",
               "target an already-running bmf_serve (0 = in-process server)");
  cli.add_flag("shutdown", "false",
               "send a shutdown request to an external server when done");
  cli.add_flag("min-observe-rps", "0",
               "fail when observe request throughput falls below this");
  cli.add_flag("max-estimate-p99-ms", "0",
               "fail when the client-side estimate p99 exceeds this");
  cli.add_flag("telemetry", "",
               "write the (in-process) server telemetry snapshot here");
  cli.add_flag("json", "",
               "append a BENCH record (bench bmf_soak / bmf_soak_binary) "
               "to this JSON file");
  cli.add_flag("label", "", "run label recorded in the --json record");
  cli.add_flag("git", "", "git sha recorded in the --json record");
  cli.add_flag("date", "", "date recorded in the --json record");

  try {
    if (!cli.parse(argc, argv)) return 0;
    SoakOptions options;
    const std::size_t sessions =
        static_cast<std::size_t>(std::max(1L, cli.get_int("sessions")));
    const std::size_t total_requests =
        static_cast<std::size_t>(std::max(1L, cli.get_int("requests")));
    options.requests_per_client =
        (total_requests + sessions - 1) / sessions;
    options.batch =
        static_cast<std::size_t>(std::max(1L, cli.get_int("batch")));
    options.dim = static_cast<std::size_t>(std::max(1L, cli.get_int("dim")));
    options.estimate_every =
        static_cast<std::size_t>(std::max(0L, cli.get_int("estimate-every")));
    options.estimator = cli.get_string("estimator");
    if (options.estimator != "mle" && options.estimator != "bmf") {
      std::cerr << "bmf_soak: --estimator must be mle or bmf\n";
      return 2;
    }
    const std::string mode = cli.get_string("mode");
    if (mode != "json" && mode != "binary") {
      std::cerr << "bmf_soak: --mode must be json or binary\n";
      return 2;
    }
    options.binary = mode == "binary";

    const long external_port = cli.get_int("port");
    std::unique_ptr<bmfusion::serve::Server> server;
    if (external_port == 0) {
      server = std::make_unique<bmfusion::serve::Server>();
      server->start();
      options.port = server->port();
    } else {
      options.port = static_cast<std::uint16_t>(external_port);
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<ClientReport> reports(sessions);
    std::vector<std::thread> clients;
    clients.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      clients.emplace_back(run_client, std::cref(options), i,
                           std::ref(reports[i]));
    }
    for (std::thread& t : clients) t.join();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    if (server != nullptr || cli.get_bool("shutdown")) {
      LineClient control;
      std::string failure;
      if (control.connect_to(options.port)) {
        (void)expect_ok(control, false, "{\"op\":\"shutdown\"}", failure);
      }
    }
    if (server != nullptr) {
      server->wait();
      const std::string telemetry_path = cli.get_string("telemetry");
      if (!telemetry_path.empty()) {
        bmfusion::telemetry::write_text_file_atomic(
            telemetry_path, bmfusion::telemetry::json_snapshot());
      }
      server.reset();
    }

    std::vector<double> observe_us;
    std::vector<double> estimate_us;
    std::size_t samples = 0;
    std::size_t failures = 0;
    for (const ClientReport& report : reports) {
      if (!report.failure.empty()) {
        ++failures;
        std::cerr << "bmf_soak: client failure: " << report.failure << "\n";
      }
      observe_us.insert(observe_us.end(), report.observe_us.begin(),
                        report.observe_us.end());
      estimate_us.insert(estimate_us.end(), report.estimate_us.begin(),
                         report.estimate_us.end());
      samples += report.samples;
    }
    const std::size_t observe_requests = observe_us.size();
    const std::size_t estimate_requests = estimate_us.size();
    const double observe_rps =
        elapsed_s > 0.0 ? static_cast<double>(observe_requests) / elapsed_s
                        : 0.0;
    const double observe_p50 = quantile_us(observe_us, 0.50);
    const double observe_p95 = quantile_us(observe_us, 0.95);
    const double observe_p99 = quantile_us(observe_us, 0.99);
    const double estimate_p50 = quantile_us(estimate_us, 0.50);
    const double estimate_p95 = quantile_us(estimate_us, 0.95);
    const double estimate_p99 = quantile_us(estimate_us, 0.99);

    std::string summary = "{\"observe_requests\":" +
                          std::to_string(observe_requests) +
                          ",\"estimate_requests\":" +
                          std::to_string(estimate_requests) +
                          ",\"samples\":" + std::to_string(samples) +
                          ",\"sessions\":" + std::to_string(sessions) +
                          ",\"mode\":\"" + mode + "\"" +
                          ",\"failures\":" + std::to_string(failures) +
                          ",\"elapsed_s\":";
    append_double(summary, elapsed_s);
    summary += ",\"observe_rps\":";
    append_double(summary, observe_rps);
    summary += ",\"observe_p50_us\":";
    append_double(summary, observe_p50);
    summary += ",\"observe_p95_us\":";
    append_double(summary, observe_p95);
    summary += ",\"observe_p99_us\":";
    append_double(summary, observe_p99);
    summary += ",\"estimate_p50_us\":";
    append_double(summary, estimate_p50);
    summary += ",\"estimate_p95_us\":";
    append_double(summary, estimate_p95);
    summary += ",\"estimate_p99_us\":";
    append_double(summary, estimate_p99);
    summary += '}';
    std::cout << summary << std::endl;

    // Perf-trajectory record: client-observed quantiles are the numbers a
    // deployment actually experiences, so bench_check.py gates on these
    // rather than on server-side histograms.
    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      const char* bench_name = options.binary ? "bmf_soak_binary" : "bmf_soak";
      std::string record = std::string("{\"bench\": \"") + bench_name +
                           "\", " +
                           bmfusion::bench::run_metadata_json(cli, sessions) +
                           ", \"mode\": \"" + mode + "\"" +
                           ", \"sessions\": " + std::to_string(sessions) +
                           ", \"requests\": " +
                           std::to_string(observe_requests) +
                           ", \"batch\": " + std::to_string(options.batch) +
                           ", \"dim\": " + std::to_string(options.dim) +
                           ", \"observe_throughput_rps\": ";
      append_double(record, observe_rps);
      record += ", \"latency_us\": {\"observe_p50\": ";
      append_double(record, observe_p50);
      record += ", \"observe_p95\": ";
      append_double(record, observe_p95);
      record += ", \"observe_p99\": ";
      append_double(record, observe_p99);
      record += ", \"estimate_p50\": ";
      append_double(record, estimate_p50);
      record += ", \"estimate_p95\": ";
      append_double(record, estimate_p95);
      record += ", \"estimate_p99\": ";
      append_double(record, estimate_p99);
      record += "}}";
      bmfusion::bench::append_json_record(json_path, record);
    }

    bool ok = failures == 0;
    const double min_rps = cli.get_double("min-observe-rps");
    if (min_rps > 0.0 && observe_rps < min_rps) {
      std::cerr << "bmf_soak: observe throughput " << observe_rps
                << " req/s below gate " << min_rps << "\n";
      ok = false;
    }
    const double max_p99_ms = cli.get_double("max-estimate-p99-ms");
    if (max_p99_ms > 0.0 && estimate_p99 > max_p99_ms * 1000.0) {
      std::cerr << "bmf_soak: estimate p99 " << estimate_p99 / 1000.0
                << " ms above gate " << max_p99_ms << " ms\n";
      ok = false;
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bmf_soak: " << e.what() << "\n";
    return 2;
  }
}
