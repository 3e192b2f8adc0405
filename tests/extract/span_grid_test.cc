#include "extract/span_grid.h"

#include <gtest/gtest.h>

namespace somr::extract {
namespace {

SpannedCell Cell(const char* text, int colspan = 1, int rowspan = 1,
                 bool header = false) {
  return {text, header, colspan, rowspan};
}

TEST(ParseSpanValueTest, Basics) {
  EXPECT_EQ(ParseSpanValue("2"), 2);
  EXPECT_EQ(ParseSpanValue("02"), 2);
  EXPECT_EQ(ParseSpanValue(""), 1);
  EXPECT_EQ(ParseSpanValue("garbage"), 1);
  EXPECT_EQ(ParseSpanValue("0"), 1);
  EXPECT_EQ(ParseSpanValue("-3"), 1);
  EXPECT_EQ(ParseSpanValue("99999"), 1000);
}

TEST(ParseSpanValueTest, SaturatesPastIntRange) {
  EXPECT_EQ(ParseSpanValue("2147483648"), 1000);
  EXPECT_EQ(ParseSpanValue("4294967297"), 1000);
  EXPECT_EQ(ParseSpanValue("99999999999"), 1000);
  EXPECT_EQ(ParseSpanValue("-99999999999"), 1);
  EXPECT_EQ(ParseSpanValue(" 3px"), 3);
}

TEST(ExpandSpansTest, NoSpansPassThrough) {
  ExpandedGrid grid = ExpandSpans({{Cell("a"), Cell("b")}, {Cell("c")}});
  ASSERT_EQ(grid.rows.size(), 2u);
  EXPECT_EQ(grid.rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(grid.rows[1], (std::vector<std::string>{"c"}));
}

TEST(ExpandSpansTest, ColspanDuplicates) {
  ExpandedGrid grid = ExpandSpans({{Cell("wide", 3), Cell("x")}});
  ASSERT_EQ(grid.rows.size(), 1u);
  EXPECT_EQ(grid.rows[0],
            (std::vector<std::string>{"wide", "wide", "wide", "x"}));
}

TEST(ExpandSpansTest, RowspanFillsFollowingRows) {
  ExpandedGrid grid = ExpandSpans({
      {Cell("tall", 1, 2), Cell("a")},
      {Cell("b")},
      {Cell("c"), Cell("d")},
  });
  ASSERT_EQ(grid.rows.size(), 3u);
  EXPECT_EQ(grid.rows[0], (std::vector<std::string>{"tall", "a"}));
  // The rowspan cell occupies column 0 of row 1; "b" shifts to column 1.
  EXPECT_EQ(grid.rows[1], (std::vector<std::string>{"tall", "b"}));
  EXPECT_EQ(grid.rows[2], (std::vector<std::string>{"c", "d"}));
}

TEST(ExpandSpansTest, CombinedColAndRowSpan) {
  ExpandedGrid grid = ExpandSpans({
      {Cell("block", 2, 2), Cell("a")},
      {Cell("b")},
  });
  EXPECT_EQ(grid.rows[0],
            (std::vector<std::string>{"block", "block", "a"}));
  EXPECT_EQ(grid.rows[1],
            (std::vector<std::string>{"block", "block", "b"}));
}

TEST(ExpandSpansTest, HeaderFlagsPerRow) {
  ExpandedGrid grid = ExpandSpans({
      {Cell("h1", 1, 1, true), Cell("h2", 1, 1, true)},
      {Cell("h", 1, 1, true), Cell("d")},
  });
  EXPECT_TRUE(grid.all_header[0]);
  EXPECT_FALSE(grid.all_header[1]);
}

TEST(ExpandSpansTest, EmptyInput) {
  ExpandedGrid grid = ExpandSpans({});
  EXPECT_TRUE(grid.rows.empty());
}

TEST(ExpandSpansTest, RowspanBeyondLastRowIgnored) {
  ExpandedGrid grid = ExpandSpans({{Cell("deep", 1, 99), Cell("a")}});
  ASSERT_EQ(grid.rows.size(), 1u);
  EXPECT_EQ(grid.rows[0], (std::vector<std::string>{"deep", "a"}));
}

}  // namespace
}  // namespace somr::extract
