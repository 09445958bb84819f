#include "log/sinks.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "telemetry/clock.hpp"
#include "telemetry/decimal.hpp"

namespace bmfusion::log {

namespace {

/// Strips the directory part so text lines show "dc.cpp:301", not the whole
/// build-tree path.
const char* basename_of(const char* path) {
  if (path == nullptr) return "?";
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

/// Timestamp origin shared by every text line in the process, so relative
/// times line up across threads.
std::uint64_t process_origin_ns() {
  static const std::uint64_t origin = telemetry::now_ns();
  return origin;
}

void append_field_value(std::ostringstream& out, const Field& field,
                        bool json) {
  switch (field.kind) {
    case Field::Kind::kInt:
      out << field.value.i;
      break;
    case Field::Kind::kUint:
      out << field.value.u;
      break;
    case Field::Kind::kReal:
      if (json) {
        // JSON has no literal for non-finite numbers; quote them.
        if (std::isfinite(field.value.real)) {
          out << telemetry::format_metric(field.value.real);
        } else {
          out << '"' << telemetry::format_metric(field.value.real) << '"';
        }
      } else {
        out << telemetry::format_metric(field.value.real);
      }
      break;
    case Field::Kind::kLiteral: {
      const char* text = field.value.literal ? field.value.literal : "";
      if (json) {
        out << '"' << json_escape_text(text) << '"';
      } else {
        out << text;
      }
      break;
    }
    case Field::Kind::kText:
      if (json) {
        out << '"' << json_escape_text(field.text) << '"';
      } else {
        out << field.text;
      }
      break;
    case Field::Kind::kNone:
      out << (json ? "null" : "?");
      break;
  }
}

}  // namespace

std::string json_escape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

std::string format_text_line(const LogRecord& record) {
  std::ostringstream out;
  const std::uint64_t origin = process_origin_ns();
  const double rel_s =
      record.time_ns >= origin
          ? static_cast<double>(record.time_ns - origin) * 1e-9
          : 0.0;
  char stamp[48];
  std::snprintf(stamp, sizeof(stamp), "[%11.6f] %-5s ", rel_s,
                level_name(record.level));
  out << stamp << basename_of(record.file) << ':' << record.line << ' '
      << (record.message ? record.message : "?");
  const std::size_t count =
      std::min<std::size_t>(record.field_count, kMaxLogFields);
  for (std::size_t i = 0; i < count; ++i) {
    const Field& field = record.fields[i];
    out << ' ' << (field.key ? field.key : "?") << '=';
    append_field_value(out, field, /*json=*/false);
  }
  return out.str();
}

std::string format_json_line(const LogRecord& record) {
  std::ostringstream out;
  out << "{\"t_ns\": " << record.time_ns << ", \"level\": \""
      << level_name(record.level) << "\", \"msg\": \""
      << json_escape_text(record.message ? record.message : "") << "\""
      << ", \"file\": \"" << json_escape_text(basename_of(record.file))
      << "\", \"line\": " << record.line
      << ", \"thread\": " << record.thread << ", \"fields\": {";
  const std::size_t count =
      std::min<std::size_t>(record.field_count, kMaxLogFields);
  for (std::size_t i = 0; i < count; ++i) {
    const Field& field = record.fields[i];
    out << (i ? ", " : "") << '"'
        << json_escape_text(field.key ? field.key : "?") << "\": ";
    append_field_value(out, field, /*json=*/true);
  }
  out << "}}";
  return out.str();
}

bool JsonLinesSink::open(const std::string& path) {
  close();
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    std::fprintf(stderr, "log: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  path_ = path;
  return true;
}

void JsonLinesSink::close() {
  if (out_.is_open()) out_.close();
  path_.clear();
}

void JsonLinesSink::write(const LogRecord& record) {
  if (!out_.is_open()) return;
  out_ << format_json_line(record) << '\n';
}

void JsonLinesSink::write_raw_line(const std::string& line) {
  if (!out_.is_open()) return;
  out_ << line << '\n';
}

void JsonLinesSink::flush() {
  if (out_.is_open()) out_.flush();
}

}  // namespace bmfusion::log
