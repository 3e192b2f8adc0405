#include "wikitext/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

namespace somr::wikitext {
namespace {

TEST(WikitextParserTest, Headings) {
  Document doc = ParseWikitext("== Section ==\n=== Sub ===\n");
  ASSERT_EQ(doc.elements.size(), 2u);
  const auto& h1 = std::get<Heading>(doc.elements[0]);
  EXPECT_EQ(h1.level, 2);
  EXPECT_EQ(h1.title, "Section");
  const auto& h2 = std::get<Heading>(doc.elements[1]);
  EXPECT_EQ(h2.level, 3);
  EXPECT_EQ(h2.title, "Sub");
}

TEST(WikitextParserTest, UnbalancedEqualsIsParagraph) {
  Document doc = ParseWikitext("== Not a heading\n");
  ASSERT_EQ(doc.elements.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<Paragraph>(doc.elements[0]));
}

TEST(WikitextParserTest, Paragraphs) {
  Document doc = ParseWikitext("line one\nline two\n\nsecond para\n");
  ASSERT_EQ(doc.elements.size(), 2u);
  EXPECT_EQ(std::get<Paragraph>(doc.elements[0]).text,
            "line one\nline two");
  EXPECT_EQ(std::get<Paragraph>(doc.elements[1]).text, "second para");
}

TEST(WikitextParserTest, BasicTable) {
  Document doc = ParseWikitext(
      "{| class=\"wikitable\"\n"
      "|+ My Caption\n"
      "|-\n"
      "! Year !! Result\n"
      "|-\n"
      "| 2001 || Won\n"
      "|-\n"
      "| 2002 || Nominated\n"
      "|}\n");
  ASSERT_EQ(doc.elements.size(), 1u);
  const Table& table = std::get<Table>(doc.elements[0]);
  EXPECT_EQ(table.attrs, "class=\"wikitable\"");
  EXPECT_EQ(table.caption, "My Caption");
  ASSERT_EQ(table.rows.size(), 3u);
  ASSERT_EQ(table.rows[0].cells.size(), 2u);
  EXPECT_TRUE(table.rows[0].cells[0].header);
  EXPECT_EQ(table.rows[0].cells[0].content, "Year");
  EXPECT_FALSE(table.rows[1].cells[0].header);
  EXPECT_EQ(table.rows[2].cells[1].content, "Nominated");
}

TEST(WikitextParserTest, OneCellPerLine) {
  Document doc = ParseWikitext("{|\n|-\n| a\n| b\n|-\n| c\n|}\n");
  const Table& table = std::get<Table>(doc.elements[0]);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0].cells.size(), 2u);
  EXPECT_EQ(table.rows[1].cells.size(), 1u);
}

TEST(WikitextParserTest, CellAttributes) {
  Document doc =
      ParseWikitext("{|\n|-\n| colspan=2 | wide cell\n|}\n");
  const Table& table = std::get<Table>(doc.elements[0]);
  ASSERT_EQ(table.rows.size(), 1u);
  ASSERT_EQ(table.rows[0].cells.size(), 1u);
  EXPECT_EQ(table.rows[0].cells[0].attrs, "colspan=2");
  EXPECT_EQ(table.rows[0].cells[0].content, "wide cell");
}

TEST(WikitextParserTest, PipeInsideLinkDoesNotSplitCell) {
  Document doc =
      ParseWikitext("{|\n|-\n| [[Page|label]] || second\n|}\n");
  const Table& table = std::get<Table>(doc.elements[0]);
  ASSERT_EQ(table.rows[0].cells.size(), 2u);
  EXPECT_EQ(table.rows[0].cells[0].content, "[[Page|label]]");
}

TEST(WikitextParserTest, CellsBeforeFirstRowMarker) {
  Document doc = ParseWikitext("{|\n! A !! B\n|-\n| 1 || 2\n|}\n");
  const Table& table = std::get<Table>(doc.elements[0]);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_TRUE(table.rows[0].cells[0].header);
}

TEST(WikitextParserTest, UnterminatedTableConsumedToEof) {
  Document doc = ParseWikitext("{|\n|-\n| cell\n");
  ASSERT_EQ(doc.elements.size(), 1u);
  const Table& table = std::get<Table>(doc.elements[0]);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0].cells[0].content, "cell");
}

TEST(WikitextParserTest, InfoboxTemplate) {
  Document doc = ParseWikitext(
      "{{Infobox person\n"
      "| name = Jane Doe\n"
      "| birth_date = 1970\n"
      "| occupation = [[Actor|actress]]\n"
      "}}\n");
  ASSERT_EQ(doc.elements.size(), 1u);
  const Template& tmpl = std::get<Template>(doc.elements[0]);
  EXPECT_TRUE(tmpl.IsInfobox());
  EXPECT_EQ(tmpl.name, "Infobox person");
  EXPECT_EQ(tmpl.Param("name"), "Jane Doe");
  EXPECT_EQ(tmpl.Param("occupation"), "[[Actor|actress]]");
  EXPECT_EQ(tmpl.Param("missing"), "");
}

TEST(WikitextParserTest, TemplateSingleLine) {
  Document doc = ParseWikitext("{{Infobox city|name=X|population=5}}\n");
  const Template& tmpl = std::get<Template>(doc.elements[0]);
  EXPECT_EQ(tmpl.Param("name"), "X");
  EXPECT_EQ(tmpl.Param("population"), "5");
}

TEST(WikitextParserTest, TemplatePositionalParams) {
  Document doc = ParseWikitext("{{Infobox x|first|second}}\n");
  const Template& tmpl = std::get<Template>(doc.elements[0]);
  EXPECT_EQ(tmpl.Param("1"), "first");
  EXPECT_EQ(tmpl.Param("2"), "second");
}

TEST(WikitextParserTest, NestedTemplateInParamValue) {
  Document doc = ParseWikitext(
      "{{Infobox a\n| date = {{start date|2001|2|3}}\n}}\n");
  const Template& tmpl = std::get<Template>(doc.elements[0]);
  EXPECT_EQ(tmpl.Param("date"), "{{start date|2001|2|3}}");
}

TEST(WikitextParserTest, NonInfoboxTemplateStillParsed) {
  Document doc = ParseWikitext("{{Citation needed|date=May 2020}}\n");
  const Template& tmpl = std::get<Template>(doc.elements[0]);
  EXPECT_FALSE(tmpl.IsInfobox());
}

TEST(WikitextParserTest, UnbalancedTemplateBecomesParagraph) {
  Document doc = ParseWikitext("{{Broken template\nmore text\n");
  ASSERT_FALSE(doc.elements.empty());
  EXPECT_TRUE(std::holds_alternative<Paragraph>(doc.elements[0]));
}

TEST(WikitextParserTest, Lists) {
  Document doc = ParseWikitext("* one\n* two\n** nested\n# numbered\n");
  ASSERT_EQ(doc.elements.size(), 1u);
  const List& list = std::get<List>(doc.elements[0]);
  ASSERT_EQ(list.items.size(), 4u);
  EXPECT_EQ(list.items[0].markers, "*");
  EXPECT_EQ(list.items[0].content, "one");
  EXPECT_EQ(list.items[2].markers, "**");
  EXPECT_EQ(list.items[2].Level(), 2);
  EXPECT_EQ(list.items[3].markers, "#");
}

TEST(WikitextParserTest, BlankLineSplitsLists) {
  Document doc = ParseWikitext("* a\n* b\n\n* c\n");
  ASSERT_EQ(doc.elements.size(), 2u);
  EXPECT_EQ(std::get<List>(doc.elements[0]).items.size(), 2u);
  EXPECT_EQ(std::get<List>(doc.elements[1]).items.size(), 1u);
}

TEST(WikitextParserTest, MixedDocument) {
  Document doc = ParseWikitext(
      "Intro text.\n\n== Awards ==\n{|\n|-\n| x\n|}\n* item\n");
  ASSERT_EQ(doc.elements.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<Paragraph>(doc.elements[0]));
  EXPECT_TRUE(std::holds_alternative<Heading>(doc.elements[1]));
  EXPECT_TRUE(std::holds_alternative<Table>(doc.elements[2]));
  EXPECT_TRUE(std::holds_alternative<List>(doc.elements[3]));
}

TEST(WikitextParserTest, CrLfLineEndings) {
  Document doc = ParseWikitext("== H ==\r\n* a\r\n");
  ASSERT_EQ(doc.elements.size(), 2u);
  EXPECT_EQ(std::get<Heading>(doc.elements[0]).title, "H");
  EXPECT_EQ(std::get<List>(doc.elements[1]).items[0].content, "a");
}

TEST(WikitextParserTest, EmptyInput) {
  EXPECT_TRUE(ParseWikitext("").elements.empty());
  EXPECT_TRUE(ParseWikitext("\n\n\n").elements.empty());
}

TEST(WikitextParserTest, NestedTableKeptInsideCell) {
  Document doc =
      ParseWikitext("{|\n|-\n| outer\n{|\n|-\n| inner\n|}\n|}\n");
  ASSERT_EQ(doc.elements.size(), 1u);
  const Table& table = std::get<Table>(doc.elements[0]);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_NE(table.rows[0].cells[0].content.find("inner"),
            std::string::npos);
}


TEST(WikitextParserTest, CaptionWithAttributes) {
  Document doc = ParseWikitext(
      "{|\n|+ style=\"bold\" | Real Caption\n|-\n| x\n|}\n");
  const Table& table = std::get<Table>(doc.elements[0]);
  EXPECT_EQ(table.caption, "Real Caption");
}

TEST(SegmentBlocksTest, LineRangesOfEveryBlock) {
  const std::vector<std::string_view> lines = SplitLines(
      "== H ==\ntext\nmore\n\n{|\n| a\n{|\n| b\n|}\n|}\n"
      "{{X|y=1\n}}\n{{open\n* i\n* j\n");
  const std::vector<Block> blocks = SegmentBlocks(lines);
  const std::vector<std::tuple<BlockKind, size_t, size_t>> want = {
      {BlockKind::kHeading, 0, 1},  {BlockKind::kParagraph, 1, 3},
      {BlockKind::kTable, 4, 10},   {BlockKind::kTemplate, 10, 12},
      {BlockKind::kParagraph, 12, 13},  // `{{open` never balances
      {BlockKind::kList, 13, 15}};
  ASSERT_EQ(blocks.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::make_tuple(blocks[i].kind, blocks[i].begin, blocks[i].end),
              want[i])
        << "block " << i;
  }
}

TEST(SegmentBlocksTest, BlockParsesFromItsOwnLinesAlone) {
  const std::vector<std::string_view> lines =
      SplitLines("intro\n{|\n! A\n|-\n| 1\n|}\n* x\n");
  const std::vector<Block> blocks = SegmentBlocks(lines);
  ASSERT_EQ(blocks.size(), 3u);
  for (const Block& block : blocks) {
    const std::vector<std::string_view> own(lines.begin() + block.begin,
                                            lines.begin() + block.end);
    EXPECT_EQ(ParseBlock(lines, block),
              ParseBlock(own, {block.kind, 0, own.size()}));
  }
}

constexpr size_t kNever = static_cast<size_t>(-1);

// The template-end scan SegmentBlocks used before its single pass, kept
// as the reference: one past the line where the braces opened at line
// `begin` balance, rescanning from `begin` for every `{{` line, or kNever.
size_t ReferenceTemplateEnd(const std::vector<std::string_view>& lines,
                            size_t begin) {
  int depth = 0;
  for (size_t pos = begin; pos < lines.size(); ++pos) {
    std::string_view line = lines[pos];
    for (size_t i = 0; i + 1 < line.size(); ++i) {
      if (line[i] == '{' && line[i + 1] == '{') {
        depth++;
        ++i;
      } else if (line[i] == '}' && line[i + 1] == '}') {
        depth--;
        ++i;
      }
    }
    if (depth <= 0) return pos + 1;
  }
  return kNever;
}

bool OpensTemplate(std::string_view line) {
  return StripAsciiWhitespace(line).substr(0, 2) == "{{";
}

// Every block template ends where the reference scan says, and every `{{`
// line SegmentBlocks left as paragraph text never balances by it. Lines
// inside tables, templates and lists never start a block, so these are
// all of SegmentBlocks' template decisions. `stride` > 1 checks only
// every stride-th paragraph line, to bound the reference's cost.
void ExpectTemplateEndsMatchReference(
    const std::vector<std::string_view>& lines, size_t stride = 1) {
  for (const Block& block : SegmentBlocks(lines)) {
    if (block.kind == BlockKind::kTemplate) {
      EXPECT_EQ(block.end, ReferenceTemplateEnd(lines, block.begin))
          << "template at line " << block.begin;
    } else if (block.kind == BlockKind::kParagraph) {
      for (size_t pos = block.begin; pos < block.end; pos += stride) {
        if (OpensTemplate(lines[pos])) {
          EXPECT_EQ(ReferenceTemplateEnd(lines, pos), kNever)
              << "paragraph line " << pos;
        }
      }
    }
  }
}

TEST(SegmentBlocksTest, TemplateEndsMatchReferenceOnBraceSoup) {
  const std::vector<std::string> pieces = {
      "{{", "}}", "{{a|b=1", "}}x{{", "{{x}}", "x}}", "{{{", "}}}", "{}}",
      " {{ y", "|c=2", "{|", "|}", "* item", "== H ==", "text", "{", "}",
      "{{Infobox z", "| d = {{e}}"};
  Rng rng(20261019);
  size_t templates = 0;
  for (int page = 0; page < 400; ++page) {
    std::vector<std::string> text;
    const int64_t num_lines = rng.UniformInt(1, 60);
    for (int64_t l = 0; l < num_lines; ++l) {
      std::string line;
      const int64_t parts = rng.UniformInt(0, 3);
      for (int64_t p = 0; p < parts; ++p) {
        line += pieces[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(pieces.size()) - 1))];
      }
      text.push_back(line);
    }
    const std::vector<std::string_view> lines(text.begin(), text.end());
    ExpectTemplateEndsMatchReference(lines);
    for (const Block& block : SegmentBlocks(lines)) {
      templates += block.kind == BlockKind::kTemplate;
    }
  }
  EXPECT_GT(templates, 100u);  // the soups do exercise block templates
}

TEST(SegmentBlocksTest, SixteenThousandUnclosedTemplateLines) {
  // Each `{{unclosed` line used to rescan the rest of the page, so this
  // page took about a second; the single pass reads each line once.
  std::string text;
  for (int i = 0; i < 16000; ++i) text += "{{unclosed\n";
  const std::vector<std::string_view> lines = SplitLines(text);
  const std::vector<Block> blocks = SegmentBlocks(lines);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].kind, BlockKind::kParagraph);
  EXPECT_EQ(blocks[0].begin, 0u);
  EXPECT_EQ(blocks[0].end, 16000u);
  ExpectTemplateEndsMatchReference(lines, /*stride=*/997);

  // The same lines closed at the end: one template over the whole page.
  for (int i = 0; i < 16000; ++i) text += "}}\n";
  const std::vector<std::string_view> closed = SplitLines(text);
  const std::vector<Block> whole = SegmentBlocks(closed);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].kind, BlockKind::kTemplate);
  EXPECT_EQ(whole[0].end, 32000u);
  ExpectTemplateEndsMatchReference(closed);
}

TEST(ParseTemplateSourceTest, Direct) {
  Template tmpl = ParseTemplateSource("{{Infobox t|a=1|b=2}}");
  EXPECT_EQ(tmpl.name, "Infobox t");
  EXPECT_EQ(tmpl.Param("a"), "1");
  EXPECT_EQ(tmpl.Param("b"), "2");
}

}  // namespace
}  // namespace somr::wikitext
