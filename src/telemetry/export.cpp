#include "telemetry/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "telemetry/decimal.hpp"

#ifndef BMFUSION_TELEMETRY_ENABLED
#define BMFUSION_TELEMETRY_ENABLED 1
#endif

namespace bmfusion::telemetry {

namespace {

/// "circuit.dc.solves" -> "bmfusion_circuit_dc_solves".
std::string prometheus_name(const std::string& dotted) {
  std::string out = "bmfusion_";
  out.reserve(out.size() + dotted.size());
  for (const char c : dotted) {
    out.push_back(c == '.' || c == '-' ? '_' : c);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c); break;
    }
  }
  return out;
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name);
    out << "# TYPE " << name << " counter\n";
    out << name << ' ' << c.value << '\n';
  }
  for (const auto& g : snapshot.gauges) {
    const std::string name = prometheus_name(g.name);
    out << "# TYPE " << name << " gauge\n";
    out << name << ' ' << format_metric(g.value) << '\n';
  }
  for (const auto& h : snapshot.histograms) {
    const std::string name = prometheus_name(h.name);
    out << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.data.bounds.size(); ++b) {
      cumulative += h.data.counts[b];
      out << name << "_bucket{le=\"" << format_metric(h.data.bounds[b])
          << "\"} " << cumulative << '\n';
    }
    out << name << "_bucket{le=\"+Inf\"} " << h.data.count << '\n';
    out << name << "_sum " << format_metric(h.data.sum) << '\n';
    out << name << "_count " << h.data.count << '\n';
    // Pre-computed quantiles from the fixed buckets, so dashboards without
    // recording rules still get latency percentiles.
    out << name << "_p50 " << format_metric(histogram_quantile(h.data, 0.50))
        << '\n';
    out << name << "_p95 " << format_metric(histogram_quantile(h.data, 0.95))
        << '\n';
    out << name << "_p99 " << format_metric(histogram_quantile(h.data, 0.99))
        << '\n';
  }
  return out.str();
}

std::string prometheus_text() {
  return prometheus_text(Registry::instance().snapshot());
}

namespace {

/// Shared body of json_snapshot() / json_snapshot_compact(): the pretty
/// variant is byte-identical to the historical multi-line output; the
/// compact variant has no newlines so it can ride a JSON-lines response.
std::string json_snapshot_impl(const MetricsSnapshot& snapshot, bool pretty) {
  const char* section = pretty ? ",\n  " : ",";
  const char* first_item = pretty ? "\n    " : "";
  const char* next_item = pretty ? ",\n    " : ",";
  const char* close_map = pretty ? "\n  }" : "}";
  std::ostringstream out;
  out << (pretty ? "{\n  " : "{") << "\"telemetry_enabled\": "
      << (BMFUSION_TELEMETRY_ENABLED ? "true" : "false")
      << section << "\"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    out << (i ? next_item : first_item) << '"'
        << json_escape(snapshot.counters[i].name)
        << "\": " << snapshot.counters[i].value;
  }
  out << (snapshot.counters.empty() ? "}" : close_map);
  out << section << "\"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out << (i ? next_item : first_item) << '"'
        << json_escape(snapshot.gauges[i].name)
        << "\": " << format_metric(snapshot.gauges[i].value);
  }
  out << (snapshot.gauges.empty() ? "}" : close_map);
  out << section << "\"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    out << (i ? next_item : first_item) << '"' << json_escape(h.name)
        << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < h.data.bounds.size(); ++b) {
      out << (b ? ", " : "") << format_metric(h.data.bounds[b]);
    }
    out << "], \"counts\": [";
    for (std::size_t b = 0; b < h.data.counts.size(); ++b) {
      out << (b ? ", " : "") << h.data.counts[b];
    }
    out << "], \"count\": " << h.data.count
        << ", \"sum\": " << format_metric(h.data.sum)
        << ", \"p50\": " << format_metric(histogram_quantile(h.data, 0.50))
        << ", \"p95\": " << format_metric(histogram_quantile(h.data, 0.95))
        << ", \"p99\": " << format_metric(histogram_quantile(h.data, 0.99))
        << '}';
  }
  out << (snapshot.histograms.empty() ? "}" : close_map);
  const TraceBuffer& trace = TraceBuffer::instance();
  out << section << "\"trace\": {\"recorded\": " << trace.recorded_count()
      << ", \"capacity\": " << TraceBuffer::kCapacity
      << ", \"dropped\": " << trace.dropped_count() << "}"
      << (pretty ? "\n}\n" : "}");
  return out.str();
}

}  // namespace

std::string json_snapshot(const MetricsSnapshot& snapshot) {
  return json_snapshot_impl(snapshot, /*pretty=*/true);
}

std::string json_snapshot() {
  return json_snapshot(Registry::instance().snapshot());
}

std::string json_snapshot_compact(const MetricsSnapshot& snapshot) {
  return json_snapshot_impl(snapshot, /*pretty=*/false);
}

std::string json_snapshot_compact() {
  return json_snapshot_compact(Registry::instance().snapshot());
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::uint64_t min_start = 0;
  bool first = true;
  for (const TraceEvent& e : events) {
    if (first || e.start_ns < min_start) min_start = e.start_ns;
    first = false;
  }
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out << (i ? ",\n  " : "\n  ");
    out << "{\"name\": \"" << json_escape(e.name ? e.name : "?")
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.thread
        << ", \"ts\": " << format_metric(
               static_cast<double>(e.start_ns - min_start) * 1e-3)
        << ", \"dur\": " << format_metric(
               static_cast<double>(e.duration_ns) * 1e-3)
        << ", \"args\": {\"depth\": " << e.depth << "}}";
  }
  out << (events.empty() ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

std::string chrome_trace_json() {
  return chrome_trace_json(TraceBuffer::instance().snapshot());
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "telemetry: cannot open '" << path << "' for writing\n";
    return false;
  }
  out << content;
  out.flush();
  if (!out) {
    std::cerr << "telemetry: write to '" << path << "' failed\n";
    return false;
  }
  return true;
}

bool write_text_file_atomic(const std::string& path,
                            const std::string& content) {
  const std::string tmp = path + ".tmp";
  if (!write_text_file(tmp, content)) return false;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::cerr << "telemetry: rename '" << tmp << "' -> '" << path
              << "' failed\n";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool write_outputs(const std::string& snapshot_path,
                   const std::string& trace_path) {
  bool ok = true;
  if (!snapshot_path.empty()) {
    ok = write_text_file(snapshot_path, json_snapshot()) && ok;
  }
  if (!trace_path.empty()) {
    ok = write_text_file(trace_path, chrome_trace_json()) && ok;
  }
  return ok;
}

}  // namespace bmfusion::telemetry
