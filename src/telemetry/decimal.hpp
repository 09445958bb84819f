// The one spelling of a double on every text surface of the repository:
// the bytes std::snprintf("%.*g") prints, written by std::to_chars.
//
// Seventeen significant digits (the default) round-trip every finite
// double, so a served estimate, a JSON shard or an exported gauge parses
// back to the same bits; the console tables ask for fewer through
// bmfusion::format_double. std::to_chars(general, p) is specified as
// printf's %.{p}g in the C locale: the output is byte-identical (test_common
// checks 10^6 random bit patterns at 17 digits and 40,000 values at each
// precision, the edge values, and both signs of inf and nan), costs about
// a quarter of snprintf's time, and ignores the process locale.
//
// Header-only and std-only, so that the bottom layer can use it: the
// exporters live in telemetry/, log/ sits below common/, and every layer
// above links telemetry.
#pragma once

#include <charconv>
#include <cmath>
#include <string>

namespace bmfusion::telemetry {

/// Appends `value` exactly as %.{digits}g spells it, for `digits` in
/// [1, 17]: inf, -inf, nan and -nan included. Callers that need another
/// spelling for a non-finite value branch before calling.
inline void append_double(std::string& out, double value, int digits = 17) {
  char buffer[32];  // the longest spelling is 24: sign, 17 digits, ".", "e-308"
  const std::to_chars_result written =
      std::to_chars(buffer, buffer + sizeof buffer, value,
                    std::chars_format::general, digits);
  out.append(buffer, written.ptr);
}

/// The exposition spelling the exporters, the log lines and the doctor's
/// text share: finite values as append_double, non-finite ones as
/// Prometheus writes them.
inline std::string format_metric(double value, int digits = 17) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  std::string out;
  append_double(out, value, digits);
  return out;
}

}  // namespace bmfusion::telemetry
