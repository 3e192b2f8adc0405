#include "common/string_util.h"

#include <gtest/gtest.h>

namespace somr {
namespace {

TEST(StripAsciiWhitespaceTest, Basic) {
  EXPECT_EQ(StripAsciiWhitespace("  hello  "), "hello");
  EXPECT_EQ(StripAsciiWhitespace("\t\na b\r\n"), "a b");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(AsciiToLowerTest, LowersOnlyAscii) {
  EXPECT_EQ(AsciiToLower("HeLLo 123"), "hello 123");
  EXPECT_EQ(AsciiToLower("\xC3\x84"), "\xC3\x84");  // UTF-8 untouched
}

TEST(SplitStringTest, Basic) {
  auto pieces = SplitString("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
}

TEST(SplitStringTest, EmptyInputYieldsOneEmptyPiece) {
  auto pieces = SplitString("", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "");
}

TEST(SplitStringTest, NoSeparator) {
  auto pieces = SplitString("abc", ',');
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], "abc");
}

TEST(SplitAndTrimTest, DropsEmptyAndTrims) {
  auto pieces = SplitAndTrim(" a ; ;b ;", ';');
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(JoinStringsTest, Basic) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(ReplaceAllTest, Basic) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaaa", "aa", "b"), "bb");
  EXPECT_EQ(ReplaceAll("abc", "", "x"), "abc");
  EXPECT_EQ(ReplaceAll("abc", "z", "x"), "abc");
}

TEST(LooksNumericTest, AcceptsNumbers) {
  EXPECT_TRUE(LooksNumeric("42"));
  EXPECT_TRUE(LooksNumeric("-3.5"));
  EXPECT_TRUE(LooksNumeric("+7"));
  EXPECT_TRUE(LooksNumeric("1,234,567"));
  EXPECT_TRUE(LooksNumeric(" 99 "));
}

TEST(LooksNumericTest, RejectsNonNumbers) {
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("abc"));
  EXPECT_FALSE(LooksNumeric("3a"));
  EXPECT_FALSE(LooksNumeric("-"));
  EXPECT_FALSE(LooksNumeric("1.2.3"));
  EXPECT_FALSE(LooksNumeric("."));
}

TEST(CollapseWhitespaceTest, Basic) {
  EXPECT_EQ(CollapseWhitespace("a  b\n c"), "a b c");
  EXPECT_EQ(CollapseWhitespace("  x  "), "x");
  EXPECT_EQ(CollapseWhitespace(""), "");
  EXPECT_EQ(CollapseWhitespace(" \t\n "), "");
}

TEST(EqualsIgnoreAsciiCaseTest, Basic) {
  EXPECT_TRUE(EqualsIgnoreAsciiCase("Infobox", "infobox"));
  EXPECT_TRUE(EqualsIgnoreAsciiCase("", ""));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("abc", "abd"));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("abc", "abcd"));
}

TEST(ParseIntegerTest, WholeTextInRangeOnly) {
  int64_t signed_value = 0;
  EXPECT_TRUE(ParseInteger("-42", &signed_value));
  EXPECT_EQ(signed_value, -42);
  uint64_t value = 0;
  EXPECT_TRUE(ParseInteger("ff", &value, 16));
  EXPECT_EQ(value, 255u);
  uint32_t narrow = 0;
  EXPECT_FALSE(ParseInteger("4294967296", &narrow));
  EXPECT_FALSE(ParseInteger("-1", &value));
  EXPECT_FALSE(ParseInteger("12 ", &value));
  EXPECT_FALSE(ParseInteger(" 12", &value));
  EXPECT_FALSE(ParseInteger("", &value));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain \xc3\xa9"), "plain \xc3\xa9");
  EXPECT_EQ(JsonEscape("say \"hi\" \\ back"), "say \\\"hi\\\" \\\\ back");
  EXPECT_EQ(JsonEscape("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
}

}  // namespace
}  // namespace somr
