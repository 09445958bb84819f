#include "serve/admin.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/strings.hpp"
#include "log/log.hpp"
#include "serve/protocol.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion::serve {

namespace {

std::string http_response(int status, const char* reason,
                          const char* content_type, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string statusz_json(const SessionRegistry& sessions) {
  std::ostringstream out;
  out << "{\"ok\": true,\"server_version\": \""
      << json_escaped(kServerVersion) << "\",\"wire_version\": " << kWireVersion
      << ",\"uptime_s\": " << format_double(process_uptime_s(), 17)
      << ",\"build\": {\"telemetry\": "
      << (telemetry::enabled() ? "true" : "false")
      << ",\"log_min_level\": " << BMFUSION_LOG_MIN_LEVEL << "}";
  out << ",\"sessions\": [";
  const std::vector<SessionSummary> summaries = sessions.summaries();
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const SessionSummary& s = summaries[i];
    out << (i ? "," : "") << "{\"id\": \"" << json_escaped(s.id)
        << "\",\"estimator\": \"" << json_escaped(s.estimator)
        << "\",\"populations\": " << s.populations
        << ",\"observed\": " << s.observed << "}";
  }
  out << "]";
  // Fusion health (tau^2 / shrinkage / per-population sample gauges) gets
  // its own section so dashboards need not know the gauge naming scheme.
  const telemetry::MetricsSnapshot snapshot =
      telemetry::Registry::instance().snapshot();
  out << ",\"fusion\": {";
  bool first = true;
  for (const auto& g : snapshot.gauges) {
    if (g.name.rfind("fusion.", 0) != 0) continue;
    out << (first ? "" : ",") << "\"" << json_escaped(g.name) << "\": ";
    if (std::isnan(g.value)) {
      out << "NaN";
    } else if (std::isinf(g.value)) {
      out << (g.value > 0 ? "1e308" : "-1e308");
    } else {
      out << format_double(g.value, 17);
    }
    first = false;
  }
  out << "}";
  out << ",\"metrics\": " << telemetry::json_snapshot_compact(snapshot) << "}";
  return out.str();
}

std::string handle_admin_request(std::string_view method,
                                 std::string_view path,
                                 const SessionRegistry& sessions) {
  BMF_COUNTER_ADD("serve.admin.requests", 1);
  if (method != "GET") {
    return http_response(405, "Method Not Allowed", "text/plain",
                         "only GET is supported\n");
  }
  if (path == "/metrics") {
    return http_response(200, "OK", "text/plain; version=0.0.4",
                         telemetry::prometheus_text());
  }
  if (path == "/metrics.json") {
    return http_response(200, "OK", "application/json",
                         telemetry::json_snapshot_compact() + "\n");
  }
  if (path == "/healthz") {
    return http_response(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/statusz") {
    return http_response(200, "OK", "application/json",
                         statusz_json(sessions) + "\n");
  }
  return http_response(
      404, "Not Found", "text/plain",
      "unknown path (try /metrics, /metrics.json, /healthz, /statusz)\n");
}

}  // namespace bmfusion::serve
