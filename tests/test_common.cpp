// Tests for the common substrate: contracts, strings, csv, cli, table,
// parallel_for, stopwatch, the JSON parser's nesting cap.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "common/cli.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

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

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(1234567.0, 3), "1.23e+06");
  // Round-trips at 17 digits.
  const double value = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_double(value, 17)), value);
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

}  // namespace
}  // namespace bmfusion
