#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace chicsim::util {
namespace {

TEST(StringUtil, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t x \r\n"), "x");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringUtil, TrimOfAllWhitespaceIsEmpty) {
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtil, SplitKeepsEmptyPieces) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, SplitTrimsEachPiece) {
  auto parts = split(" a ; b ;c", ';');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitOfEmptyStringYieldsOneEmptyPiece) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, ToLower) {
  EXPECT_EQ(to_lower("JobDataPresent"), "jobdatapresent");
  EXPECT_EQ(to_lower("ABC123xyz"), "abc123xyz");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(StringUtil, ParseIntAcceptsValidIntegers) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int(" 100 ").value(), 100);
}

TEST(StringUtil, ParseIntRejectsGarbage) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
}

TEST(StringUtil, ParseDoubleAcceptsValidNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("10").value(), 10.0);
}

TEST(StringUtil, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("x").has_value());
}

TEST(StringUtil, ParseDoubleRejectsNonFinite) {
  for (const char* s : {"nan", "NaN", "-nan", "nan(0x1)", "inf", "-inf", "Infinity", "1e999"}) {
    EXPECT_FALSE(parse_double(s).has_value()) << s;
  }
  EXPECT_DOUBLE_EQ(parse_double("1e300").value(), 1e300);
}

TEST(StringUtil, ParseBoolAcceptsCommonForms) {
  EXPECT_TRUE(parse_bool("true").value());
  EXPECT_TRUE(parse_bool("YES").value());
  EXPECT_TRUE(parse_bool("1").value());
  EXPECT_TRUE(parse_bool("on").value());
  EXPECT_FALSE(parse_bool("false").value());
  EXPECT_FALSE(parse_bool("No").value());
  EXPECT_FALSE(parse_bool("0").value());
  EXPECT_FALSE(parse_bool("off").value());
}

TEST(StringUtil, ParseBoolRejectsGarbage) {
  EXPECT_FALSE(parse_bool("2").has_value());
  EXPECT_FALSE(parse_bool("").has_value());
  EXPECT_FALSE(parse_bool("truth").has_value());
}

TEST(StringUtil, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({"only"}, ";"), "only");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, FormatExactRoundTrips) {
  EXPECT_EQ(format_exact(12.5), "12.5");
  EXPECT_EQ(format_exact(0.0525), "0.0525");
  EXPECT_EQ(format_exact(300.0), "300");
  for (double v : {0.1, 1.0 / 3.0, 2.0e-7, 1e300, 5e-324, -42.125}) {
    EXPECT_EQ(parse_double(format_exact(v)).value(), v) << format_exact(v);
  }
}

TEST(StringUtil, FormatFixedControlsPrecision) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
}

}  // namespace
}  // namespace chicsim::util
