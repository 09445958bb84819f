// Minimal JSON value model and recursive-descent parser.
//
// The doctor tool (src/core/diagnose.*) ingests telemetry snapshots,
// JSON-lines logs and BENCH_*.json histories; all three are produced by this
// repository, so the parser targets standard JSON (RFC 8259) without
// extensions. Malformed input throws DataError with the byte offset of the
// problem, consistent with the CSV reader's error style.
//
// JsonValue is a tagged union over null/bool/number/string/array/object.
// Numbers are stored as double (every producer in this repo emits doubles or
// integers well inside the 2^53 exact range). Object member order is
// preserved so reports render in the order the exporters wrote.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bmfusion {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;
  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array items);
  static JsonValue make_object(Object members);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw DataError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup (first match). Returns nullptr when absent or when
  /// this value is not an object — callers chain lookups without try/catch.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// find() + typed accessor with a fallback for absent/mismatched members.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Arrays and objects nest at most this deep; parse_json throws DataError
/// past it. Each level is one stack frame of the parser, so an uncapped
/// line of '[' overflows the stack long before any size limit. The deepest
/// document this repo writes (a stats response carrying a shard) nests 8.
inline constexpr std::size_t kJsonMaxDepth = 64;

/// Parses one JSON document; trailing non-whitespace throws DataError.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Reads and parses a whole file; DataError on I/O or parse failure carries
/// the path in its context.
[[nodiscard]] JsonValue parse_json_file(const std::string& path);

}  // namespace bmfusion
