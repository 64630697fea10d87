#include "common/string_util.h"

#include <gtest/gtest.h>

namespace rheem {
namespace {

TEST(SplitStringTest, Basic) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitStringTest, KeepsEmptyFields) {
  EXPECT_EQ(SplitString("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(SplitString(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitStringTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
}

TEST(JoinStringsTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts{"x", "yy", "zzz"};
  EXPECT_EQ(JoinStrings(parts, "::"), "x::yy::zzz");
  EXPECT_EQ(SplitString(JoinStrings(parts, ","), ','), parts);
}

TEST(JoinStringsTest, EmptyAndSingle) {
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace("hi"), "hi");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" a b "), "a b");
}

TEST(PrefixSuffixTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("rheem.platforms", "rheem."));
  EXPECT_FALSE(StartsWith("rheem", "rheem."));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo-123"), "hello-123");
}

TEST(FormatCountTest, ThousandsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-1234567), "-1,234,567");
}

TEST(FormatDurationTest, AdaptiveUnits) {
  EXPECT_EQ(FormatDuration(2.5), "2.500 s");
  EXPECT_EQ(FormatDuration(0.0123), "12.300 ms");
  EXPECT_EQ(FormatDuration(0.000045), "45.0 us");
}

TEST(FormatBytesTest, BinaryUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(SqlQuoteStringTest, DoublesEmbeddedQuotes) {
  EXPECT_EQ(SqlQuoteString("O'Brien"), "'O''Brien'");
}

}  // namespace
}  // namespace rheem
