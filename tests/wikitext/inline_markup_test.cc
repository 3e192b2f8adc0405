#include "wikitext/inline_markup.h"

#include <gtest/gtest.h>

#include <string>

namespace somr::wikitext {
namespace {

TEST(StripInlineMarkupTest, PlainTextUnchanged) {
  EXPECT_EQ(StripInlineMarkup("hello world"), "hello world");
}

TEST(StripInlineMarkupTest, SimpleLink) {
  EXPECT_EQ(StripInlineMarkup("born in [[Berlin]]"), "born in Berlin");
}

TEST(StripInlineMarkupTest, PipedLink) {
  EXPECT_EQ(StripInlineMarkup("[[Berlin|the capital]] is big"),
            "the capital is big");
}

TEST(StripInlineMarkupTest, ExternalLinkWithLabel) {
  EXPECT_EQ(StripInlineMarkup("see [http://x.org the site]"),
            "see the site");
}

TEST(StripInlineMarkupTest, BareExternalLinkDropped) {
  EXPECT_EQ(StripInlineMarkup("see [http://x.org] now"), "see now");
}

TEST(StripInlineMarkupTest, BoldItalicQuotesStripped) {
  EXPECT_EQ(StripInlineMarkup("'''bold''' and ''italic''"),
            "bold and italic");
  EXPECT_EQ(StripInlineMarkup("'''''both'''''"), "both");
}

TEST(StripInlineMarkupTest, SingleApostropheKept) {
  EXPECT_EQ(StripInlineMarkup("it's fine"), "it's fine");
}

TEST(StripInlineMarkupTest, RefsDropped) {
  EXPECT_EQ(StripInlineMarkup("fact<ref>source</ref> stated"),
            "fact stated");
  EXPECT_EQ(StripInlineMarkup("fact<ref name=\"a\"/> stated"),
            "fact stated");
  EXPECT_EQ(StripInlineMarkup("x<ref name=b>cite</ref>"), "x");
}

TEST(StripInlineMarkupTest, HtmlTagsRemovedTextKept) {
  EXPECT_EQ(StripInlineMarkup("a <small>little</small> note"),
            "a little note");
  EXPECT_EQ(StripInlineMarkup("line<br/>break"), "linebreak");
}

TEST(StripInlineMarkupTest, EntitiesDecoded) {
  EXPECT_EQ(StripInlineMarkup("Tom &amp; Jerry"), "Tom & Jerry");
}

TEST(StripInlineMarkupTest, UnterminatedLinkSurvives) {
  // Malformed markup must not crash or loop.
  std::string out = StripInlineMarkup("[[broken link");
  EXPECT_FALSE(out.empty());
}

TEST(StripInlineMarkupTest, WhitespaceCollapsed) {
  EXPECT_EQ(StripInlineMarkup("a   b\t c"), "a b c");
}


TEST(StripInlineMarkupTest, InlineTemplateParamsRendered) {
  EXPECT_EQ(StripInlineMarkup("born {{start date|2001|2|3}} here"),
            "born 2001 2 3 here");
}

TEST(StripInlineMarkupTest, NamedTemplateParamsKeepValuesOnly) {
  EXPECT_EQ(StripInlineMarkup("{{height|m=1.85}}"), "1.85");
}

TEST(StripInlineMarkupTest, BareTemplateRendersToNothing) {
  EXPECT_EQ(StripInlineMarkup("fact{{citation needed}} here"),
            "fact here");
}

TEST(StripInlineMarkupTest, NestedTemplates) {
  EXPECT_EQ(StripInlineMarkup("{{outer|{{inner|x}}|y}}"), "x y");
}

/// `depth` nested invocations, each with its own label:
/// {{a|L1 {{a|L2 ... {{a|Ln }} ... }} }}.
std::string LabeledNesting(int depth) {
  std::string out;
  for (int i = 1; i <= depth; ++i) out += "{{a|L" + std::to_string(i) + " ";
  for (int i = 0; i < depth; ++i) out += "}}";
  return out;
}

/// "L1 L2 ... Ln": every level rendered.
std::string Labels(int depth) {
  std::string out;
  for (int i = 1; i <= depth; ++i) {
    out += (i > 1 ? " L" : "L") + std::to_string(i);
  }
  return out;
}

TEST(StripInlineMarkupTest, NestingUpToTheTemplateDepthLimitRendersAll) {
  for (int depth = 1; depth <= 40; ++depth) {
    EXPECT_EQ(StripInlineMarkup(LabeledNesting(depth)), Labels(depth));
  }
}

TEST(StripInlineMarkupTest, InvocationsPastTheDepthLimitRenderAsNothing) {
  // MediaWiki's template depth limit: below 40 levels an invocation
  // renders as nothing, as an unknown template does.
  EXPECT_EQ(StripInlineMarkup(LabeledNesting(41)), Labels(40));
  EXPECT_EQ(StripInlineMarkup("a " + LabeledNesting(60) + " b"),
            "a " + Labels(40) + " b");
  std::string deep;
  for (int i = 0; i < 200000; ++i) deep += "{{a|";
  deep += "leaf";
  for (int i = 0; i < 200000; ++i) deep += "}}";
  EXPECT_EQ(StripInlineMarkup("top " + deep + " end"), "top end");
}

TEST(StripInlineMarkupTest, UnbalancedTemplateLeftAlone) {
  std::string out = StripInlineMarkup("{{broken|a");
  EXPECT_NE(out.find("broken"), std::string::npos);
}

TEST(ExtractLinkTargetsTest, Basic) {
  auto targets = ExtractLinkTargets("[[A]] text [[B|label]] [[C]]");
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_EQ(targets[0], "A");
  EXPECT_EQ(targets[1], "B");
  EXPECT_EQ(targets[2], "C");
}

TEST(ExtractLinkTargetsTest, NoLinks) {
  EXPECT_TRUE(ExtractLinkTargets("no links here").empty());
}

}  // namespace
}  // namespace somr::wikitext
