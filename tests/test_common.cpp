// Tests for the common substrate: contracts, strings, csv, cli, table,
// parallel_for, stopwatch, the one double writer (byte parity with %.*g)
// and the JSON parser (values, number grammar, bit-exact round trips,
// malformed input, the nesting cap).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "telemetry/decimal.hpp"

namespace bmfusion {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, RequirePassesOnTrue) {
  EXPECT_NO_THROW(BMFUSION_REQUIRE(1 + 1 == 2, "math works"));
}

TEST(Contracts, RequireThrowsWithContext) {
  try {
    BMFUSION_REQUIRE(false, "custom message");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Contracts, ErrorHierarchy) {
  // ContractError is a logic error; NumericError/DataError are runtime.
  EXPECT_THROW(throw ContractError("x"), std::logic_error);
  EXPECT_THROW(throw NumericError("x"), std::runtime_error);
  EXPECT_THROW(throw DataError("x"), std::runtime_error);
}

// ------------------------------------------------------------------ strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto fields = split("abc", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ", "), "only");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC1"), "abc1"); }

// --------------------------------------------------------------------- csv

TEST(Csv, ParsesHeaderAndBody) {
  std::istringstream in("a,b\n1,2\n3,4\n");
  const CsvTable t = read_csv(in, /*expect_header=*/true);
  ASSERT_EQ(t.header.size(), 2u);
  EXPECT_EQ(t.header[1], "b");
  ASSERT_EQ(t.row_count(), 2u);
  EXPECT_EQ(t.rows[1][0], 3.0);
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  std::istringstream in("# comment\n\n1,2\n# more\n3,4\n");
  const CsvTable t = read_csv(in, /*expect_header=*/false);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Csv, HandlesCrLf) {
  std::istringstream in("x\r\n1\r\n");
  const CsvTable t = read_csv(in, true);
  EXPECT_EQ(t.header[0], "x");
  EXPECT_EQ(t.rows[0][0], 1.0);
}

TEST(Csv, RaggedRowThrows) {
  std::istringstream in("1,2\n3\n");
  EXPECT_THROW((void)read_csv(in, false), DataError);
}

TEST(Csv, NonNumericCellThrows) {
  std::istringstream in("1,two\n");
  EXPECT_THROW((void)read_csv(in, false), DataError);
}

TEST(Csv, ScientificNotationParses) {
  std::istringstream in("1e-12,-2.5E+3\n");
  const CsvTable t = read_csv(in, false);
  EXPECT_DOUBLE_EQ(t.rows[0][0], 1e-12);
  EXPECT_DOUBLE_EQ(t.rows[0][1], -2500.0);
}

TEST(Csv, WriteReadRoundTrip) {
  CsvTable t;
  t.header = {"alpha", "beta"};
  t.rows = {{0.1 + 0.2, -1e-300}, {3.25, 7.0}};
  std::stringstream buf;
  write_csv(buf, t);
  const CsvTable back = read_csv(buf, true);
  ASSERT_EQ(back.header, t.header);
  ASSERT_EQ(back.row_count(), 2u);
  EXPECT_EQ(back.rows[0][0], t.rows[0][0]);  // exact round-trip
  EXPECT_EQ(back.rows[0][1], t.rows[0][1]);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW((void)read_csv_file("/nonexistent/abc.csv", true), DataError);
}

// --------------------------------------------------------------------- cli

TEST(Cli, ParsesEqualsAndSpaceForms) {
  CliParser cli("test");
  cli.add_flag("runs", "10", "run count");
  cli.add_flag("name", "x", "a name");
  const char* argv[] = {"prog", "--runs=25", "--name", "hello"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("runs"), 25);
  EXPECT_EQ(cli.get_string("name"), "hello");
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser cli("test");
  cli.add_flag("ratio", "0.5", "a ratio");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio"), 0.5);
}

TEST(Cli, BooleanFlagWithoutValue) {
  CliParser cli("test");
  cli.add_flag("quick", "false", "quick mode");
  const char* argv[] = {"prog", "--quick"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("quick"));
}

TEST(Cli, UnknownFlagThrows) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW((void)cli.parse(2, argv), DataError);
}

TEST(Cli, PositionalArgumentRejected) {
  CliParser cli("test");
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW((void)cli.parse(2, argv), DataError);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  cli.add_flag("x", "1", "doc");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, TypeErrorsThrow) {
  CliParser cli("test");
  cli.add_flag("n", "5", "count");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW((void)cli.get_int("n"), DataError);
  EXPECT_THROW((void)cli.get_double("n"), DataError);
  EXPECT_THROW((void)cli.get_bool("n"), DataError);
}

TEST(Cli, DuplicateRegistrationRejected) {
  CliParser cli("test");
  cli.add_flag("x", "1", "doc");
  EXPECT_THROW(cli.add_flag("x", "2", "doc"), ContractError);
}

// ------------------------------------------------------------------- table

TEST(Table, PrintsAlignedColumns) {
  ConsoleTable table({"n", "error"});
  table.add_numeric_row({8, 0.5});
  table.add_numeric_row({128, 0.0625});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("error"), std::string::npos);
  EXPECT_NE(out.find("128"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  ConsoleTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"1"}), ContractError);
}

TEST(Table, ToCsvRoundTrip) {
  ConsoleTable table({"a", "b"});
  table.add_numeric_row({1.0, 2.0});
  const CsvTable csv = table.to_csv();
  EXPECT_EQ(csv.header[0], "a");
  EXPECT_EQ(csv.rows[0][1], 2.0);
}

TEST(Table, ToCsvRejectsNonNumericCells) {
  ConsoleTable table({"a"});
  table.add_row({"hello"});
  EXPECT_THROW((void)table.to_csv(), DataError);
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  parallel_for(kCount, [&](std::size_t i) { visits[i].fetch_add(1); }, 4);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(Parallel, SingleThreadRunsInline) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw NumericError("worker failure");
          },
          4),
      NumericError);
}

TEST(Parallel, DefaultThreadCountPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

// ------------------------------------------------------------------- timer

TEST(Timer, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_GE(sw.milliseconds(), 0.0);
}

TEST(Timer, RestartResetsOrigin) {
  Stopwatch sw;
  const double before = sw.restart();
  EXPECT_GE(before, 0.0);
  EXPECT_LE(sw.seconds(), before + 1.0);  // restarted clock is near zero
}


// ----------------------------------------------------------- double writer

/// What the writer must reproduce, byte for byte.
std::string printf_17g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The edge values both directions are pinned on, with their negatives.
std::vector<double> edge_values() {
  const std::vector<double> positive = {
      0.0,
      std::numeric_limits<double>::denorm_min(),  // 5e-324
      std::numeric_limits<double>::min(),         // DBL_MIN
      1.0,
      0.1,
      1e22,
      1e23,
      9007199254740993.0,  // 2^53 + 1, rounds to 2^53
      123456789012345678.0,
      std::numeric_limits<double>::max(),
      std::nextafter(1.0, 2.0),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),  // subnormal
  };
  std::vector<double> out;
  for (const double value : positive) {
    out.push_back(value);
    out.push_back(-value);
  }
  return out;
}

/// `count` finite doubles drawn as uniform 64-bit patterns (fixed seed),
/// so every exponent, subnormals included, is covered.
std::vector<double> random_finite_doubles(std::size_t count) {
  std::mt19937_64 rng(20150607);
  std::vector<double> out;
  out.reserve(count);
  while (out.size() < count) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) out.push_back(value);
  }
  return out;
}

constexpr std::size_t kRandomDoubles = 1'000'000;

TEST(DoubleWriter, MatchesSnprintf17g) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = random_finite_doubles(kRandomDoubles);
  for (const double value : edge_values()) values.push_back(value);
  for (const double value : {inf, -inf, nan, -nan}) values.push_back(value);
  std::size_t mismatches = 0;
  std::string out;
  for (const double value : values) {
    out.clear();
    telemetry::append_double(out, value);
    if (out != printf_17g(value) && ++mismatches <= 5) {
      ADD_FAILURE() << "writer '" << out << "' vs %.17g '"
                    << printf_17g(value) << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The exporters' and log lines' spelling of the values JSON cannot carry.
  EXPECT_EQ(telemetry::format_metric(nan), "NaN");
  EXPECT_EQ(telemetry::format_metric(inf), "+Inf");
  EXPECT_EQ(telemetry::format_metric(-inf), "-Inf");
  EXPECT_EQ(telemetry::format_metric(0.1), "0.10000000000000001");
}

TEST(DoubleWriter, ParseJsonReadsEveryWriterOutputBackToTheSameBits) {
  std::vector<double> values = random_finite_doubles(kRandomDoubles);
  for (const double value : edge_values()) values.push_back(value);
  std::size_t mismatches = 0;
  std::string text;
  for (const double value : values) {
    text.clear();
    telemetry::append_double(text, value);
    const double read = parse_json(text).as_number();
    if (std::bit_cast<std::uint64_t>(read) !=
            std::bit_cast<std::uint64_t>(value) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << text << " read back as " << printf_17g(read);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1234567.0, 3), "1.23e+06");
  // Round-trips at 17 digits.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_double(value, 17)), value);

  // The console tables (3 to 6 digits), the CSV and knowledge files (17)
  // and the doctor's text (6) print through the one writer at a precision:
  // %.{digits}g at every precision it accepts.
  std::mt19937_64 rng(19700101);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-7, 18);
  std::vector<double> values = random_finite_doubles(20'000);
  for (int i = 0; i < 20'000; ++i) {  // where %g switches fixed/scientific
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
  }
  for (int k = -7; k <= 18; ++k) {  // carries into the next decade
    const double decade = std::pow(10.0, k);
    for (const double v : {decade, 9.5 * decade, 9.95 * decade,
                           9.9999995 * decade, 0.99999999999999995 * decade}) {
      values.push_back(std::nextafter(v, 0.0));
      values.push_back(v);
      values.push_back(std::nextafter(v, 20.0 * decade));
    }
  }
  for (const double v : edge_values()) values.push_back(v);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, -inf, nan, -nan}) values.push_back(v);
  const auto printf_g = [](double v, int digits) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.*g", digits, v);
    return std::string(buffer);
  };
  std::size_t mismatches = 0;
  for (int digits = 1; digits <= 17; ++digits) {
    for (const double v : values) {
      const std::string written = format_double(v, digits);
      if (written != printf_g(v, digits) && ++mismatches <= 5) {
        ADD_FAILURE() << "format_double '" << written << "' vs %." << digits
                      << "g '" << printf_g(v, digits) << "'";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(format_double(2.5, 0), printf_g(2.5, 1));  // clamped to [1, 17]
  EXPECT_EQ(format_double(0.1, 40), printf_17g(0.1));
}

// --------------------------------------------------------------------- json

/// `depth` arrays nested inside each other around one number.
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + "1" + std::string(depth, ']');
}

TEST(Json, ParsesNestingAtTheCap) {
  JsonValue value = parse_json(nested_arrays(kJsonMaxDepth));
  for (std::size_t level = 0; level < kJsonMaxDepth; ++level) {
    ASSERT_TRUE(value.is_array()) << level;
    ASSERT_EQ(value.as_array().size(), 1u);
    value = JsonValue(value.as_array()[0]);
  }
  EXPECT_EQ(value.as_number(), 1.0);
  EXPECT_NO_THROW((void)parse_json(
      std::string(kJsonMaxDepth - 1, '[') + "{\"a\":1}" +
      std::string(kJsonMaxDepth - 1, ']')));
}

TEST(Json, RejectsNestingPastTheCapWithTheByteIndex) {
  for (const std::string& text :
       {nested_arrays(kJsonMaxDepth + 1),
        std::string(kJsonMaxDepth, '[') + "{\"a\":1}" +
            std::string(kJsonMaxDepth, ']'),
        std::string(100000, '[')}) {
    try {
      (void)parse_json(text);
      FAIL() << "nesting past the cap parsed";
    } catch (const DataError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("nesting deeper than " +
                          std::to_string(kJsonMaxDepth) + " levels"),
                std::string::npos)
          << what;
      // The offending open bracket is the first one past the cap.
      EXPECT_NE(what.find("index=" + std::to_string(kJsonMaxDepth)),
                std::string::npos)
          << what;
    }
  }
}

TEST(JsonParse, ParsesScalarsArraysAndObjects) {
  const JsonValue doc = parse_json(
      R"({"a": 1.5, "b": [true, null, "x"], "c": {"n": -2e3}, "d": false})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.number_or("a", 0.0), 1.5);
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[1].is_null());
  EXPECT_EQ(b->as_array()[2].as_string(), "x");
  const JsonValue* c = doc.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->number_or("n", 0.0), -2000.0);
  const JsonValue* d = doc.find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->as_bool());
}

TEST(JsonParse, DecodesEscapesAndUnicode) {
  const JsonValue doc =
      parse_json(R"({"s": "a\"b\\c\nd", "u": "A\u00e9B", "t": "\u0041"})");
  EXPECT_EQ(doc.string_or("s", ""), "a\"b\\c\nd");
  EXPECT_EQ(doc.string_or("u", ""), "A\xc3\xa9"
                                    "B");
  EXPECT_EQ(doc.string_or("t", ""), "A");
}

TEST(JsonParse, PreservesObjectMemberOrder) {
  const JsonValue doc = parse_json(R"({"zz": 1, "aa": 2, "mm": 3})");
  const JsonValue::Object& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "zz");
  EXPECT_EQ(members[1].first, "aa");
  EXPECT_EQ(members[2].first, "mm");
}

TEST(JsonParse, MalformedInputThrowsDataError) {
  EXPECT_THROW((void)parse_json("{"), DataError);
  EXPECT_THROW((void)parse_json("[1, 2"), DataError);
  EXPECT_THROW((void)parse_json("{\"a\": }"), DataError);
  EXPECT_THROW((void)parse_json("true false"), DataError);  // trailing junk
  EXPECT_THROW((void)parse_json(""), DataError);
  EXPECT_THROW((void)parse_json("{\"a\": 1,}"), DataError);
}

TEST(JsonParse, KindMismatchAndMissingFileThrowDataError) {
  const JsonValue doc = parse_json(R"({"n": 4})");
  EXPECT_THROW((void)doc.as_array(), DataError);
  EXPECT_THROW((void)doc.find("n")->as_string(), DataError);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_EQ(doc.number_or("absent", -1.0), -1.0);
  EXPECT_EQ(doc.string_or("n", "fallback"), "fallback");
  EXPECT_THROW((void)parse_json_file("/nonexistent/bmf_doctor.json"),
               DataError);
}

TEST(JsonParse, NumberGrammarIsStrtods) {
  // parse_json accepts strtod's grammar over the characters a JSON number
  // may hold, and strtod's answers out of range, whichever function reads
  // the token. These pin both, and the bits.
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(parse_json("+1").as_number(), 1.0);
  EXPECT_EQ(parse_json(".5").as_number(), 0.5);
  EXPECT_EQ(parse_json("1.").as_number(), 1.0);
  EXPECT_EQ(bits(parse_json("-0").as_number()), bits(-0.0));
  EXPECT_EQ(parse_json("[1e400]").as_array()[0].as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_json("-1e400").as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(bits(parse_json("1e-400").as_number()), bits(0.0));
  EXPECT_EQ(bits(parse_json("-1e-400").as_number()), bits(-0.0));
  EXPECT_EQ(parse_json("4.9406564584124654e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_json(" {\"n\": 2.5e+3 }").number_or("n", 0.0), 2500.0);
  for (const char* bad : {"-", "1e", "--1", "1e+", "+", ".", "1e5.5",
                          "[1e+]", "{\"n\": -}"}) {
    EXPECT_THROW((void)parse_json(bad), DataError) << bad;
  }
  // A malformed number names its token and the offset just past it.
  try {
    (void)parse_json("[1, 2e+]");
    FAIL() << "a truncated exponent parsed";
  } catch (const DataError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("malformed number '2e+'"), std::string::npos) << what;
    EXPECT_NE(what.find("index=7"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace bmfusion
