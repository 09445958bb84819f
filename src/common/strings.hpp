// Small string utilities shared across modules (gcc 12 lacks std::format).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bmfusion {

/// Splits `text` on `delim`, keeping empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> split(std::string_view text, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Formats `value` as printf's %.{digits}g, `digits` clamped to [1, 17]
/// (telemetry::append_double writes it). The default 6 suits aligned
/// console tables; 17 round-trips every double.
std::string format_double(double value, int digits = 6);

/// Joins the elements of `parts` with `sep` between them.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Lower-cases ASCII characters.
std::string to_lower(std::string_view text);

}  // namespace bmfusion
