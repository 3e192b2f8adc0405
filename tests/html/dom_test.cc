#include "html/dom.h"

#include <gtest/gtest.h>

#include "html/parser.h"

namespace somr::html {
namespace {

size_t ChildCount(Node node) {
  size_t count = 0;
  for (Node child = node.first_child(); child; child = child.next_sibling()) {
    ++count;
  }
  return count;
}

TEST(DomTest, BuildTree) {
  const Document doc = ParseHtml("<div>hello</div>");
  const Node div = doc.root().first_child();
  EXPECT_EQ(ChildCount(doc.root()), 1u);
  EXPECT_EQ(div.parent(), doc.root());
  EXPECT_EQ(div.first_child().text(), "hello");
}

TEST(DomTest, Attributes) {
  const Document doc = ParseHtml("<a href=\"x\">");
  const Node el = doc.root().first_child();
  EXPECT_EQ(el.Attribute("href"), "x");
  EXPECT_TRUE(el.HasAttribute("href"));
  EXPECT_FALSE(el.HasAttribute("title"));
  const Document again = ParseHtml("<a href=\"x\" href=\"y\">");  // overwrite
  const Node overwritten = again.root().first_child();
  EXPECT_EQ(overwritten.Attribute("href"), "y");
  EXPECT_EQ(overwritten.attributes().size(), 1u);
}

TEST(DomTest, DescendantsDocumentOrder) {
  const Document doc =
      ParseHtml("<div><span><span></span></span><span></span></div>");
  const Node first = doc.root().first_child().first_child();
  auto spans = doc.root().Descendants("span");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0], first);
}

TEST(DomTest, ChildElementsFiltersByTag) {
  const Document doc = ParseHtml("<tr><td></td>x<th></th><td></td></tr>");
  const Node parent = doc.root().first_child();
  EXPECT_EQ(parent.ChildElements("td").size(), 2u);
  EXPECT_EQ(parent.ChildElements("th").size(), 1u);
}

TEST(DomTest, InnerTextCollapsesWhitespace) {
  const Document doc = ParseHtml("<div>  a <span> b\n</span></div>");
  const Node div = doc.root().first_child();
  EXPECT_EQ(div.InnerText(), "a b");
}

TEST(DomTest, OuterHtmlSerialization) {
  const Document doc = ParseHtml("<div class=\"x\">a&lt;b</div>");
  const Node div = doc.root().first_child();
  EXPECT_EQ(div.OuterHtml(), "<div class=\"x\">a&lt;b</div>");
}

TEST(DomTest, VoidElementSerialization) {
  const Document doc = ParseHtml("<br>");
  const Node br = doc.root().first_child();
  EXPECT_EQ(br.OuterHtml(), "<br>");
}

TEST(DomTest, CommentSerialization) {
  const Document doc = ParseHtml("<!--note-->");
  EXPECT_EQ(doc.root().OuterHtml(), "<!--note-->");
}

TEST(DomTest, HasClass) {
  const Document doc = ParseHtml("<table class=\"infobox vcard\">");
  const Node el = doc.root().first_child();
  EXPECT_TRUE(el.HasClass("infobox"));
  EXPECT_TRUE(el.HasClass("vcard"));
  EXPECT_FALSE(el.HasClass("info"));
  EXPECT_FALSE(el.HasClass(""));
}

TEST(DomTest, SubtreeSize) {
  const Document doc = ParseHtml("<div>x<span></span></div>");
  EXPECT_EQ(doc.root().SubtreeSize(), 4u);
}

TEST(DomTest, NodesAreLinkedInDocumentOrder) {
  const Document doc = ParseHtml("<ul><li>a</li><li>b<b>c</b></li></ul>d");
  std::string order;
  for (Node node = doc.root(); node; node = node.Next(doc.root())) {
    order += node.type() == NodeType::kText ? std::string(node.text())
                                            : "<" + std::string(node.tag()) +
                                                  ">";
  }
  EXPECT_EQ(order, "<><ul><li>a<li>b<b>cd");
  const Node ul = doc.root().first_child();
  EXPECT_EQ(ul.next_sibling().text(), "d");
  EXPECT_FALSE(ul.next_sibling().next_sibling());
  EXPECT_FALSE(doc.root().parent());
  // Next stays inside its scope and can skip a subtree.
  EXPECT_EQ(ul.first_child().Next(ul, /*descend=*/false),
            ul.first_child().next_sibling());
  EXPECT_FALSE(ul.first_child().next_sibling().Next(ul, false));
}

TEST(DomTest, StringsOutliveTheInputAndTheMove) {
  std::string input = "<P CLASS=\"a&amp;b\" Title=plain>x &lt; y</P>";
  Document doc = ParseHtml(input);
  input.assign(input.size(), '#');  // the document keeps its own copy
  const Document moved = std::move(doc);
  const Node p = moved.root().first_child();
  EXPECT_EQ(p.tag(), "p");
  ASSERT_EQ(p.attributes().size(), 2u);
  EXPECT_EQ(p.attributes()[0].name, "class");
  EXPECT_EQ(p.attributes()[0].value, "a&b");
  EXPECT_EQ(p.attributes()[1].name, "title");
  EXPECT_EQ(p.Attribute("title"), "plain");
  EXPECT_EQ(p.first_child().text(), "x < y");
}

}  // namespace
}  // namespace somr::html
