// util substrate: contracts, aligned buffers, string helpers, argument
// parser, table rendering, timers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "util/aligned.h"
#include "util/args.h"
#include "util/contracts.h"
#include "util/str.h"
#include "util/table.h"
#include "util/timer.h"

namespace tinge {
namespace {

// ---- contracts -------------------------------------------------------------

TEST(Contracts, ExpectsThrowsWithLocation) {
  try {
    TINGE_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Contracts, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(TINGE_EXPECTS(true));
  EXPECT_NO_THROW(TINGE_ENSURES(2 > 1));
  EXPECT_NO_THROW(TINGE_ASSERT(1 + 1 == 2));
}

// ---- aligned buffers --------------------------------------------------------

TEST(AlignedBuffer, IsAlignedAndZeroInitialized) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kSimdAlignment, 0u);
  for (const float v : buf) EXPECT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, EmptyBufferIsSafe) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  AlignedBuffer<double> moved = std::move(buf);
  EXPECT_TRUE(moved.empty());
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(10);
  a[3] = 42;
  const int* ptr = a.data();
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[3], 42);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(AlignedBuffer, CloneIsDeep) {
  AlignedBuffer<int> a(4);
  a[0] = 7;
  AlignedBuffer<int> b = a.clone();
  b[0] = 9;
  EXPECT_EQ(a[0], 7);
  EXPECT_EQ(b[0], 9);
}

TEST(AlignedBuffer, BoundsChecked) {
  AlignedBuffer<int> a(4);
  EXPECT_THROW(a[4], ContractViolation);
}

TEST(AlignedBuffer, FillSetsEveryElement) {
  AlignedBuffer<float> a(33);
  a.fill(2.5f);
  for (const float v : a) EXPECT_EQ(v, 2.5f);
}

TEST(RoundUp, Basics) {
  EXPECT_EQ(round_up(0, 16), 0u);
  EXPECT_EQ(round_up(1, 16), 16u);
  EXPECT_EQ(round_up(16, 16), 16u);
  EXPECT_EQ(round_up(17, 16), 32u);
  EXPECT_EQ(round_up(5, 0), 5u);
}

// ---- string helpers ---------------------------------------------------------

TEST(Str, SplitViewKeepsEmptyFields) {
  const auto fields = split_view("a\t\tb\t", '\t');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Str, SplitViewSingleField) {
  const auto fields = split_view("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Str, ParseFloatAcceptsMissingMarkers) {
  for (const char* na : {"NA", "NaN", "nan", "", "  "}) {
    const auto v = parse_float(na);
    ASSERT_TRUE(v.has_value()) << na;
    EXPECT_TRUE(std::isnan(*v)) << na;
  }
}

TEST(Str, ParseFloatParsesNumbers) {
  EXPECT_FLOAT_EQ(*parse_float("3.5"), 3.5f);
  EXPECT_FLOAT_EQ(*parse_float("-1e-3"), -1e-3f);
  EXPECT_FLOAT_EQ(*parse_float(" 42 "), 42.0f);
}

TEST(Str, ParseFloatRejectsGarbage) {
  EXPECT_FALSE(parse_float("3.5x").has_value());
  EXPECT_FALSE(parse_float("abc").has_value());
}

TEST(Str, ParseInt) {
  EXPECT_EQ(*parse_int("123"), 123);
  EXPECT_EQ(*parse_int("-5"), -5);
  EXPECT_FALSE(parse_int("12.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Str, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("%.2f", 1.2345), "1.23");
}

// ---- argument parser ---------------------------------------------------------

TEST(ArgParser, ParsesEqualsAndSpaceForms) {
  ArgParser parser;
  parser.add("genes", "gene count", "100").add("alpha", "level", "0.001");
  const char* argv[] = {"prog", "--genes=500", "--alpha", "0.01"};
  parser.parse(4, argv);
  EXPECT_EQ(parser.get_int("genes"), 500);
  EXPECT_DOUBLE_EQ(parser.get_double("alpha"), 0.01);
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  ArgParser parser;
  parser.add("genes", "gene count", "100");
  const char* argv[] = {"prog"};
  parser.parse(1, argv);
  EXPECT_FALSE(parser.has("genes"));
  EXPECT_EQ(parser.get_int("genes"), 100);
}

TEST(ArgParser, FlagsAndPositionals) {
  ArgParser parser;
  parser.add_flag("verbose", "talk more");
  const char* argv[] = {"prog", "input.tsv", "--verbose", "out.tsv"};
  parser.parse(4, argv);
  EXPECT_TRUE(parser.get_flag("verbose"));
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.tsv");
}

TEST(ArgParser, UnknownOptionThrows) {
  ArgParser parser;
  parser.add("genes", "gene count", "100");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, MissingValueThrows) {
  ArgParser parser;
  parser.add("genes", "gene count", "100");
  const char* argv[] = {"prog", "--genes"};
  EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, FlagWithValueThrows) {
  ArgParser parser;
  parser.add_flag("verbose", "talk");
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_THROW(parser.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, NonNumericGetIntThrows) {
  ArgParser parser;
  parser.add("genes", "gene count", "abc");
  const char* argv[] = {"prog"};
  parser.parse(1, argv);
  EXPECT_THROW(parser.get_int("genes"), std::invalid_argument);
}

TEST(ArgParser, UsageListsOptions) {
  ArgParser parser;
  parser.add("genes", "number of genes", "100").add_flag("dpi", "enable DPI");
  const std::string usage = parser.usage("prog", "Does things.");
  EXPECT_NE(usage.find("--genes"), std::string::npos);
  EXPECT_NE(usage.find("--dpi"), std::string::npos);
  EXPECT_NE(usage.find("number of genes"), std::string::npos);
}

TEST(ArgParser, UsageShowsDeclaredDefaultsAfterParse) {
  ArgParser parser;
  parser.add("synthetic", "genes to synthesize", "0").add("out", "output path");
  const char* argv[] = {"prog", "--synthetic=60", "--out=net.tsv"};
  parser.parse(3, argv);
  EXPECT_EQ(parser.get("synthetic"), "60");
  const std::string usage = parser.usage("prog", "Does things.");
  EXPECT_NE(usage.find("--synthetic=<0>"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("<60>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--out=<value>"), std::string::npos) << usage;
}

// ---- tables -------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22.5"});
  const std::string rendered = table.to_string();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("22.5"), std::string::npos);
  EXPECT_NE(rendered.find("----"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ContractViolation);
}

TEST(Table, NumericRowFormatting) {
  Table table({"x", "y"});
  table.add_row_numeric({1.23456, 2.0}, 2);
  EXPECT_NE(table.to_string().find("1.23"), std::string::npos);
  EXPECT_EQ(table.rows(), 1u);
}

// ---- timers --------------------------------------------------------------------

TEST(Timer, StopwatchAdvances) {
  Stopwatch watch;
  double x = 0.0;
  for (int i = 0; i < 100000; ++i) x += static_cast<double>(i) * 1e-9;
  EXPECT_GT(watch.seconds(), 0.0);
  EXPECT_GT(x, 0.0);
}

TEST(Timer, ScopedAccumulatorAddsUp) {
  double sink = 0.0;
  {
    ScopedAccumulator acc(sink);
  }
  {
    ScopedAccumulator acc(sink);
  }
  EXPECT_GE(sink, 0.0);
}

TEST(Timer, FormatDurationPicksUnits) {
  EXPECT_NE(format_duration(2e-5).find("us"), std::string::npos);
  EXPECT_NE(format_duration(0.02).find("ms"), std::string::npos);
  EXPECT_NE(format_duration(3.0).find(" s"), std::string::npos);
  EXPECT_NE(format_duration(1320.0).find("min"), std::string::npos);
  EXPECT_NE(format_duration(8000.0).find("h"), std::string::npos);
}

}  // namespace
}  // namespace tinge
