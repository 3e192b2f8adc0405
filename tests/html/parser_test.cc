#include "html/parser.h"

#include <gtest/gtest.h>

namespace somr::html {
namespace {

TEST(HtmlParserTest, SimpleNesting) {
  const Document doc = ParseHtml("<div><p>text</p></div>");
  auto divs = doc.root().Descendants("div");
  ASSERT_EQ(divs.size(), 1u);
  auto ps = divs[0].ChildElements("p");
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].InnerText(), "text");
}

TEST(HtmlParserTest, TableStructure) {
  const Document doc = ParseHtml(
      "<table><tr><th>H1</th><th>H2</th></tr>"
      "<tr><td>a</td><td>b</td></tr></table>");
  auto tables = doc.root().Descendants("table");
  ASSERT_EQ(tables.size(), 1u);
  auto rows = tables[0].ChildElements("tr");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].ChildElements("th").size(), 2u);
  EXPECT_EQ(rows[1].ChildElements("td").size(), 2u);
}

TEST(HtmlParserTest, ImpliedEndTagsInTables) {
  // No </td> or </tr> anywhere — browsers recover; so do we.
  const Document doc = ParseHtml(
      "<table><tr><td>a<td>b<tr><td>c<td>d</table>");
  auto tables = doc.root().Descendants("table");
  ASSERT_EQ(tables.size(), 1u);
  auto rows = tables[0].ChildElements("tr");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].ChildElements("td").size(), 2u);
  EXPECT_EQ(rows[1].ChildElements("td").size(), 2u);
  EXPECT_EQ(rows[1].ChildElements("td")[1].InnerText(), "d");
}

TEST(HtmlParserTest, ImpliedLiEndTags) {
  const Document doc = ParseHtml("<ul><li>one<li>two<li>three</ul>");
  auto uls = doc.root().Descendants("ul");
  ASSERT_EQ(uls.size(), 1u);
  auto lis = uls[0].ChildElements("li");
  ASSERT_EQ(lis.size(), 3u);
  EXPECT_EQ(lis[1].InnerText(), "two");
}

TEST(HtmlParserTest, ParagraphClosedByBlockElement) {
  const Document doc = ParseHtml("<p>intro<table><tr><td>x</td></tr></table>");
  auto ps = doc.root().Descendants("p");
  ASSERT_EQ(ps.size(), 1u);
  // The table must NOT be inside the paragraph.
  EXPECT_TRUE(ps[0].Descendants("table").empty());
  EXPECT_EQ(doc.root().Descendants("table").size(), 1u);
}

TEST(HtmlParserTest, TbodyRows) {
  const Document doc = ParseHtml(
      "<table><thead><tr><th>h</th></tr></thead>"
      "<tbody><tr><td>1</td></tr><tr><td>2</td></tr></tbody></table>");
  auto tables = doc.root().Descendants("table");
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].Descendants("tr").size(), 3u);
}

TEST(HtmlParserTest, StrayEndTagIgnored) {
  const Document doc = ParseHtml("<div>a</span>b</div>");
  auto divs = doc.root().Descendants("div");
  ASSERT_EQ(divs.size(), 1u);
  // Text nodes are joined with single spaces by InnerText.
  EXPECT_EQ(divs[0].InnerText(), "a b");
}

TEST(HtmlParserTest, MismatchedEndTagDoesNotEscapeCell) {
  const Document doc = ParseHtml(
      "<table><tr><td><b>x</i></td><td>y</td></tr></table>");
  auto tds = doc.root().Descendants("td");
  ASSERT_EQ(tds.size(), 2u);
  EXPECT_EQ(tds[1].InnerText(), "y");
}

TEST(HtmlParserTest, VoidElements) {
  const Document doc = ParseHtml("<p>a<br>b<img src=\"x\">c</p>");
  auto ps = doc.root().Descendants("p");
  ASSERT_EQ(ps.size(), 1u);
  EXPECT_EQ(ps[0].InnerText(), "a b c");
  // br must not swallow following content as children.
  auto brs = doc.root().Descendants("br");
  ASSERT_EQ(brs.size(), 1u);
  EXPECT_FALSE(brs[0].first_child());
}

TEST(HtmlParserTest, NestedTables) {
  const Document doc = ParseHtml(
      "<table><tr><td><table><tr><td>inner</td></tr></table></td></tr>"
      "</table>");
  EXPECT_EQ(doc.root().Descendants("table").size(), 2u);
}

TEST(HtmlParserTest, RoundTripWellFormed) {
  std::string html =
      "<div class=\"x\"><p>hello <b>world</b></p><ul><li>a</li>"
      "<li>b</li></ul></div>";
  const Document doc = ParseHtml(html);
  EXPECT_EQ(doc.root().OuterHtml(), html);
}

TEST(HtmlParserTest, UnclosedElementsAtEof) {
  const Document doc = ParseHtml("<div><p>unclosed");
  EXPECT_EQ(doc.root().Descendants("p").size(), 1u);
  EXPECT_EQ(doc.root().Descendants("p")[0].InnerText(), "unclosed");
}

TEST(HtmlParserTest, EmptyDocument) {
  const Document doc = ParseHtml("");
  EXPECT_EQ(doc.root().type(), NodeType::kDocument);
  EXPECT_FALSE(doc.root().first_child());
}

TEST(HtmlParserTest, FullDocumentSkeleton) {
  const Document doc = ParseHtml(
      "<!DOCTYPE html><html><head><title>T</title></head>"
      "<body><h1>T</h1><p>b</p></body></html>");
  EXPECT_EQ(doc.root().Descendants("title").size(), 1u);
  EXPECT_EQ(doc.root().Descendants("h1")[0].InnerText(), "T");
}

// The tokenizer-level cases of tokenizer_test.cc (which tests the
// reference tokenizer), seen through the one-pass parser's Document.
TEST(HtmlParserTest, TagAndAttributeNamesLowercased) {
  const Document doc = ParseHtml("<DIV ID=a></DIV><div>b</div>");
  const auto divs = doc.root().Descendants("div");
  ASSERT_EQ(divs.size(), 2u);
  EXPECT_EQ(divs[0].Attribute("id"), "a");
  EXPECT_EQ(divs[1].InnerText(), "b");
}

TEST(HtmlParserTest, QuotedUnquotedAndValuelessAttributes) {
  const Document doc = ParseHtml(
      "<a href=\"x.html\" title='hi there'><input type=checkbox checked>");
  const Node a = doc.root().first_child();
  EXPECT_EQ(a.Attribute("href"), "x.html");
  EXPECT_EQ(a.Attribute("title"), "hi there");
  EXPECT_EQ(a.Attribute("missing"), "");
  const Node input = a.first_child();
  EXPECT_EQ(input.Attribute("type"), "checkbox");
  EXPECT_TRUE(input.HasAttribute("checked"));
  EXPECT_EQ(input.Attribute("checked"), "");
  EXPECT_EQ(input.attributes().size(), 2u);
}

TEST(HtmlParserTest, RepeatedAttributeKeepsFirstPositionAndLastValue) {
  const Document doc = ParseHtml("<td CLASS=a rowspan=2 class=\"b&amp;c\">");
  const Node td = doc.root().first_child();
  ASSERT_EQ(td.attributes().size(), 2u);
  EXPECT_EQ(td.attributes()[0].name, "class");
  EXPECT_EQ(td.attributes()[0].value, "b&c");
  EXPECT_EQ(td.attributes()[1].name, "rowspan");
}

TEST(HtmlParserTest, SelfClosingTagsOpenNothing) {
  const Document doc = ParseHtml("<div/><span>x</span><br/>y");
  const Node div = doc.root().first_child();
  EXPECT_TRUE(div.IsElement("div"));
  EXPECT_FALSE(div.first_child());
  EXPECT_TRUE(div.next_sibling().IsElement("span"));
  EXPECT_EQ(doc.root().SubtreeSize(), 6u);
}

TEST(HtmlParserTest, CommentsKeptDoctypeDropped) {
  const Document doc = ParseHtml("<!DOCTYPE html>a<!-- hidden -->b");
  const Node a = doc.root().first_child();
  EXPECT_EQ(a.text(), "a");
  EXPECT_EQ(a.next_sibling().type(), NodeType::kComment);
  EXPECT_EQ(a.next_sibling().text(), " hidden ");
  EXPECT_EQ(a.next_sibling().next_sibling().text(), "b");
}

TEST(HtmlParserTest, TextDecodedAndBareLessThanIsText) {
  const Document doc = ParseHtml("<p>a &lt; b</p>3 < 4 </ x");
  EXPECT_EQ(doc.root().first_child().InnerText(), "a < b");
  EXPECT_EQ(doc.root().first_child().next_sibling().text(), "3 < 4 </ x");
}

TEST(HtmlParserTest, ScriptAndStyleAreRawText) {
  const Document doc = ParseHtml(
      "<script>if (a<b) {x} &amp;</SCRIPT><style>p<q</style >z");
  const Node script = doc.root().first_child();
  EXPECT_EQ(script.first_child().text(), "if (a<b) {x} &amp;");
  const Node style = script.next_sibling();
  EXPECT_EQ(style.first_child().text(), "p<q");
  EXPECT_EQ(style.next_sibling().text(), "z");
}

TEST(HtmlParserTest, UnterminatedConstructsAtEof) {
  EXPECT_TRUE(ParseHtml("<div class=\"x").root().first_child().IsElement(
      "div"));
  EXPECT_EQ(ParseHtml("a<!-- open").root().OuterHtml(), "a<!-- open-->");
  EXPECT_EQ(ParseHtml("<script>x<").root().OuterHtml(),
            "<script>x&lt;</script>");
  EXPECT_EQ(ParseHtml("<!DOCTYPE").root().SubtreeSize(), 1u);
}

}  // namespace
}  // namespace somr::html
