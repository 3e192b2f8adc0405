#include "xmldump/dump.h"

#include <gtest/gtest.h>

#include <sstream>

namespace somr::xmldump {
namespace {

Dump MakeSampleDump() {
  Dump dump;
  dump.site_name = "testwiki";
  PageHistory page;
  page.title = "Test & Page";
  page.page_id = 12;
  Revision r1;
  r1.id = 100;
  r1.timestamp = 1567296000;  // 2019-09-01
  r1.contributor = "Alice";
  r1.comment = "created <page>";
  r1.text = "== Heading ==\n{|\n|-\n| cell & co\n|}\n";
  page.revisions.push_back(r1);
  Revision r2;
  r2.id = 101;
  r2.timestamp = 1567382400;
  r2.contributor = "Bob";
  r2.text = "updated text";
  page.revisions.push_back(r2);
  dump.pages.push_back(page);
  return dump;
}

TEST(DumpTest, WriteReadRoundTrip) {
  Dump original = MakeSampleDump();
  std::string xml = WriteDump(original);
  auto parsed = ReadDump(xml);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->pages.size(), 1u);
  const PageHistory& page = parsed->pages[0];
  EXPECT_EQ(parsed->site_name, "testwiki");
  EXPECT_EQ(page.title, "Test & Page");
  EXPECT_EQ(page.page_id, 12);
  ASSERT_EQ(page.revisions.size(), 2u);
  EXPECT_EQ(page.revisions[0].id, 100);
  EXPECT_EQ(page.revisions[0].timestamp, 1567296000);
  EXPECT_EQ(page.revisions[0].contributor, "Alice");
  EXPECT_EQ(page.revisions[0].comment, "created <page>");
  EXPECT_EQ(page.revisions[0].text, MakeSampleDump().pages[0].revisions[0].text);
  EXPECT_EQ(page.revisions[1].contributor, "Bob");
}

TEST(DumpTest, PageIdNotConfusedWithRevisionId) {
  std::string xml = WriteDump(MakeSampleDump());
  auto parsed = ReadDump(xml);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->pages[0].page_id, 12);
  EXPECT_EQ(parsed->pages[0].revisions[0].id, 100);
}

TEST(DumpTest, RealisticMediawikiSnippet) {
  // Structure as exported by MediaWiki Special:Export.
  const char* xml = R"(<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
  <siteinfo><sitename>Wikipedia</sitename><dbname>enwiki</dbname></siteinfo>
  <page>
    <title>Example</title>
    <ns>0</ns>
    <id>42</id>
    <revision>
      <id>1001</id>
      <parentid>1000</parentid>
      <timestamp>2019-09-01T00:00:00Z</timestamp>
      <contributor><username>X</username><id>7</id></contributor>
      <minor />
      <comment>fix</comment>
      <model>wikitext</model>
      <format>text/x-wiki</format>
      <text bytes="5" xml:space="preserve">hello</text>
      <sha1>abc</sha1>
    </revision>
  </page>
</mediawiki>)";
  auto parsed = ReadDump(xml);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->pages.size(), 1u);
  EXPECT_EQ(parsed->pages[0].title, "Example");
  EXPECT_EQ(parsed->pages[0].page_id, 42);
  ASSERT_EQ(parsed->pages[0].revisions.size(), 1u);
  const Revision& rev = parsed->pages[0].revisions[0];
  EXPECT_EQ(rev.id, 1001);
  EXPECT_EQ(rev.contributor, "X");
  EXPECT_EQ(rev.comment, "fix");
  EXPECT_EQ(rev.text, "hello");
  EXPECT_EQ(FormatIso8601(rev.timestamp), "2019-09-01T00:00:00Z");
}

TEST(DumpTest, MissingRootIsError) {
  auto parsed = ReadDump("<notawiki></notawiki>");
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
}

TEST(DumpTest, EmptyDump) {
  auto parsed = ReadDump("<mediawiki></mediawiki>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->pages.empty());
}

TEST(DumpTest, MultiplePages) {
  Dump dump;
  for (int i = 0; i < 3; ++i) {
    PageHistory page;
    page.title = "P" + std::to_string(i);
    page.page_id = i + 1;
    dump.pages.push_back(page);
  }
  auto parsed = ReadDump(WriteDump(dump));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->pages.size(), 3u);
  EXPECT_EQ(parsed->pages[2].title, "P2");
}

TEST(DumpTest, WikitextSpecialCharactersSurvive) {
  Dump dump;
  PageHistory page;
  page.title = "T";
  Revision rev;
  rev.text = "{| class=\"x\"\n|-\n| a < b & c > d || \"quoted\"\n|}";
  page.revisions.push_back(rev);
  dump.pages.push_back(page);
  auto parsed = ReadDump(WriteDump(dump));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->pages[0].revisions[0].text,
            dump.pages[0].revisions[0].text);
}


TEST(DumpTest, DumpEndingInsideAPageIsError) {
  Dump dump = MakeSampleDump();
  PageHistory second;
  second.title = "Second";
  second.page_id = 13;
  Revision rev;
  rev.id = 200;
  rev.text = "hello";
  second.revisions.push_back(rev);
  dump.pages.push_back(second);
  const std::string xml = WriteDump(dump);
  const size_t open = xml.find("<page>", xml.find("</page>"));
  const size_t close = xml.find("</page>", open);
  ASSERT_NE(close, std::string::npos);
  // Every cut from just past the second <page> to just before the end of
  // its </page>, including one inside the revision text ("hel").
  for (size_t cut = open + 6; cut < close + 7; ++cut) {
    auto parsed = ReadDump(std::string_view(xml).substr(0, cut));
    ASSERT_FALSE(parsed.ok()) << "cut at " << cut;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
    EXPECT_EQ(parsed.status().message(), "unterminated <page> element");
  }
  auto whole = ReadDump(std::string_view(xml).substr(0, close + 7));
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->pages.size(), 2u);
  EXPECT_EQ(whole->pages[1].revisions[0].text, "hello");
}

TEST(DumpTest, StreamingWriterMatchesWriteDump) {
  Dump dump = MakeSampleDump();
  std::ostringstream streamed;
  WriteDumpHeader(dump, streamed);
  for (const PageHistory& page : dump.pages) WritePage(page, streamed);
  WriteDumpFooter(streamed);
  EXPECT_EQ(streamed.str(), WriteDump(dump));
}

}  // namespace
}  // namespace somr::xmldump
