#include "extract/wikitext_extractor.h"

#include <gtest/gtest.h>

namespace somr::extract {
namespace {

constexpr const char* kPage = R"(Intro paragraph.

== Career ==
{{Infobox person
| name = Jane Doe
| occupation = actress
}}

{| class="wikitable"
|+ Films
|-
! Year !! Title
|-
| 2001 || [[The Movie|A Movie]]
|-
| 2003 || Другой
|}

=== Early work ===
* [[First Film]] (1999)
* Second Film (2000)

== Awards ==
{|
|-
! Category !! Result
|-
| Best Actor || Won
|}
)";

TEST(WikitextExtractorTest, CountsAndPositions) {
  PageObjects objects = ExtractFromWikitextSource(kPage);
  ASSERT_EQ(objects.tables.size(), 2u);
  ASSERT_EQ(objects.infoboxes.size(), 1u);
  ASSERT_EQ(objects.lists.size(), 1u);
  EXPECT_EQ(objects.tables[0].position, 0);
  EXPECT_EQ(objects.tables[1].position, 1);
  EXPECT_EQ(objects.infoboxes[0].position, 0);
  EXPECT_EQ(objects.TotalCount(), 4u);
}

TEST(WikitextExtractorTest, TableContentIsPlainText) {
  PageObjects objects = ExtractFromWikitextSource(kPage);
  const ObjectInstance& films = objects.tables[0];
  EXPECT_EQ(films.caption, "Films");
  ASSERT_EQ(films.rows.size(), 3u);
  EXPECT_EQ(films.rows[0][0], "Year");
  EXPECT_EQ(films.rows[1][1], "A Movie");  // link label resolved
  EXPECT_EQ(films.schema, (std::vector<std::string>{"Year", "Title"}));
}

TEST(WikitextExtractorTest, SectionPaths) {
  PageObjects objects = ExtractFromWikitextSource(kPage);
  EXPECT_EQ(objects.tables[0].section_path,
            (std::vector<std::string>{"Career"}));
  EXPECT_EQ(objects.lists[0].section_path,
            (std::vector<std::string>{"Career", "Early work"}));
  EXPECT_EQ(objects.tables[1].section_path,
            (std::vector<std::string>{"Awards"}));
}

TEST(WikitextExtractorTest, InfoboxKeyValues) {
  PageObjects objects = ExtractFromWikitextSource(kPage);
  const ObjectInstance& infobox = objects.infoboxes[0];
  EXPECT_EQ(infobox.caption, "Infobox person");
  ASSERT_EQ(infobox.rows.size(), 2u);
  EXPECT_EQ(infobox.rows[0], (std::vector<std::string>{"name", "Jane Doe"}));
  EXPECT_EQ(infobox.schema,
            (std::vector<std::string>{"name", "occupation"}));
}

TEST(WikitextExtractorTest, ListItems) {
  PageObjects objects = ExtractFromWikitextSource(kPage);
  const ObjectInstance& list = objects.lists[0];
  ASSERT_EQ(list.rows.size(), 2u);
  EXPECT_EQ(list.rows[0][0], "First Film (1999)");
  EXPECT_TRUE(list.schema.empty());  // lists have no schema
}

TEST(WikitextExtractorTest, NonInfoboxTemplatesIgnored) {
  PageObjects objects =
      ExtractFromWikitextSource("{{Citation needed|date=May}}\n");
  EXPECT_EQ(objects.TotalCount(), 0u);
}

TEST(WikitextExtractorTest, HeadingReplacementAtSameLevel) {
  PageObjects objects = ExtractFromWikitextSource(
      "== A ==\n== B ==\n{|\n|-\n| x\n|}\n");
  ASSERT_EQ(objects.tables.size(), 1u);
  EXPECT_EQ(objects.tables[0].section_path,
            (std::vector<std::string>{"B"}));
}

TEST(WikitextExtractorTest, EmptyPage) {
  PageObjects objects = ExtractFromWikitextSource("");
  EXPECT_EQ(objects.TotalCount(), 0u);
}

TEST(WikitextExtractorTest, TableWithoutHeaderHasNoSchema) {
  PageObjects objects =
      ExtractFromWikitextSource("{|\n|-\n| a || b\n|}\n");
  ASSERT_EQ(objects.tables.size(), 1u);
  EXPECT_TRUE(objects.tables[0].schema.empty());
  EXPECT_EQ(objects.tables[0].ColumnCount(), 2u);
}

TEST(ObjectInstanceTest, FlatCells) {
  PageObjects objects = ExtractFromWikitextSource(kPage);
  auto flat = objects.tables[1].FlatCells();
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[2], "Best Actor");
}


TEST(WikitextExtractorTest, ColspanExpanded) {
  PageObjects objects = ExtractFromWikitextSource(
      "{|\n|-\n| colspan=2 | wide || x\n|-\n| a || b || c\n|}\n");
  ASSERT_EQ(objects.tables.size(), 1u);
  const ObjectInstance& table = objects.tables[0];
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0],
            (std::vector<std::string>{"wide", "wide", "x"}));
  EXPECT_EQ(table.rows[1].size(), 3u);
}

TEST(WikitextExtractorTest, RowspanExpanded) {
  PageObjects objects = ExtractFromWikitextSource(
      "{|\n|-\n| rowspan=2 | tall || a\n|-\n| b\n|}\n");
  const ObjectInstance& table = objects.tables[0];
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1],
            (std::vector<std::string>{"tall", "b"}));
}

TEST(WikitextExtractorTest, HtmlCommentsStripped) {
  // A commented-out row must not appear; a commented-out table must not
  // be extracted at all.
  PageObjects objects = ExtractFromWikitextSource(
      "{|\n|-\n| keep\n<!--\n|-\n| hidden\n-->\n|}\n"
      "<!--\n{|\n|-\n| gone\n|}\n-->\n");
  ASSERT_EQ(objects.tables.size(), 1u);
  ASSERT_EQ(objects.tables[0].rows.size(), 1u);
  EXPECT_EQ(objects.tables[0].rows[0][0], "keep");
}

TEST(WikitextExtractorTest, DeeplyNestedInlineTemplatesExtract) {
  // 200,000 nested {{a|...}} (1.2 MB): expansion stops at MediaWiki's
  // template depth limit, so the cell and the infobox value still come
  // out, holding what the first 40 levels render.
  std::string deep;
  for (int i = 0; i < 200000; ++i) deep += "{{a|";
  deep += "leaf";
  for (int i = 0; i < 200000; ++i) deep += "}}";
  PageObjects table = ExtractFromWikitextSource(
      "{|\n|-\n! k !! v\n|-\n| cell " + deep + " || after\n|}\n");
  ASSERT_EQ(table.tables.size(), 1u);
  ASSERT_EQ(table.tables[0].rows.size(), 2u);
  EXPECT_EQ(table.tables[0].rows[1],
            (std::vector<std::string>{"cell", "after"}));
  PageObjects infobox = ExtractFromWikitextSource(
      "{{Infobox person\n| name = Jane " + deep +
      "\n| occupation = actress\n}}\n");
  ASSERT_EQ(infobox.infoboxes.size(), 1u);
  EXPECT_EQ(infobox.infoboxes[0].rows,
            (std::vector<std::vector<std::string>>{
                {"name", "Jane"}, {"occupation", "actress"}}));
}

}  // namespace
}  // namespace somr::extract
