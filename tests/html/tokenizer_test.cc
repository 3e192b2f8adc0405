// Tests of the reference tokenizer (tests/html/reference), which the
// differential tests trust; html::ParseHtml tokenizes without a token list.
#include "reference/tokenizer.h"

#include <gtest/gtest.h>

namespace somr::html::reference {
namespace {

TEST(HtmlTokenizerTest, SimpleElement) {
  auto tokens = TokenizeHtml("<p>hello</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kStartTag);
  EXPECT_EQ(tokens[0].name, "p");
  EXPECT_EQ(tokens[1].type, TokenType::kText);
  EXPECT_EQ(tokens[1].text, "hello");
  EXPECT_EQ(tokens[2].type, TokenType::kEndTag);
  EXPECT_EQ(tokens[2].name, "p");
}

TEST(HtmlTokenizerTest, TagNamesLowercased) {
  auto tokens = TokenizeHtml("<DIV></DIV>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "div");
  EXPECT_EQ(tokens[1].name, "div");
}

TEST(HtmlTokenizerTest, QuotedAttributes) {
  auto tokens = TokenizeHtml("<a href=\"x.html\" title='hi there'>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].Attribute("href"), "x.html");
  EXPECT_EQ(tokens[0].Attribute("title"), "hi there");
  EXPECT_EQ(tokens[0].Attribute("missing"), "");
}

TEST(HtmlTokenizerTest, UnquotedAndValuelessAttributes) {
  auto tokens = TokenizeHtml("<input type=checkbox checked>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].Attribute("type"), "checkbox");
  EXPECT_EQ(tokens[0].Attribute("checked"), "");
  EXPECT_EQ(tokens[0].attributes.size(), 2u);
}

TEST(HtmlTokenizerTest, AttributeEntityDecoding) {
  auto tokens = TokenizeHtml("<a title=\"a &amp; b\">");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].Attribute("title"), "a & b");
}

TEST(HtmlTokenizerTest, SelfClosing) {
  auto tokens = TokenizeHtml("<br/><img src=\"x\"/>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_TRUE(tokens[0].self_closing);
  EXPECT_TRUE(tokens[1].self_closing);
}

TEST(HtmlTokenizerTest, Comment) {
  auto tokens = TokenizeHtml("a<!-- hidden -->b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].type, TokenType::kComment);
  EXPECT_EQ(tokens[1].text, " hidden ");
}

TEST(HtmlTokenizerTest, Doctype) {
  auto tokens = TokenizeHtml("<!DOCTYPE html><html></html>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kDoctype);
}

TEST(HtmlTokenizerTest, TextEntityDecoding) {
  auto tokens = TokenizeHtml("<p>a &lt; b</p>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].text, "a < b");
}

TEST(HtmlTokenizerTest, BareLessThanIsText) {
  auto tokens = TokenizeHtml("3 < 4");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].text, "3 < 4");
}

TEST(HtmlTokenizerTest, ScriptIsRawText) {
  auto tokens = TokenizeHtml("<script>if (a<b) {x}</script>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].name, "script");
  EXPECT_EQ(tokens[1].text, "if (a<b) {x}");
  EXPECT_EQ(tokens[2].type, TokenType::kEndTag);
}

TEST(HtmlTokenizerTest, UnterminatedTagAtEof) {
  auto tokens = TokenizeHtml("<div class=\"x");
  // Must not crash; produces a start tag.
  ASSERT_GE(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].name, "div");
}

TEST(HtmlTokenizerTest, EmptyInput) {
  EXPECT_TRUE(TokenizeHtml("").empty());
}

}  // namespace
}  // namespace somr::html::reference
