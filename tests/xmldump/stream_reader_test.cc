#include "xmldump/stream_reader.h"

#include <gtest/gtest.h>

#include <sstream>

namespace somr::xmldump {
namespace {

Dump ThreePageDump() {
  Dump dump;
  for (int p = 0; p < 3; ++p) {
    PageHistory page;
    page.title = "Page " + std::to_string(p);
    page.page_id = p + 1;
    for (int r = 0; r < 2; ++r) {
      Revision rev;
      rev.id = p * 10 + r;
      rev.text = "text of page " + std::to_string(p) + " revision " +
                 std::to_string(r);
      page.revisions.push_back(rev);
    }
    dump.pages.push_back(page);
  }
  return dump;
}

TEST(PageStreamReaderTest, ReadsAllPagesInOrder) {
  std::istringstream input(WriteDump(ThreePageDump()));
  PageStreamReader reader(input);
  int count = 0;
  while (auto page = reader.NextPage()) {
    EXPECT_EQ(page->title, "Page " + std::to_string(count));
    EXPECT_EQ(page->revisions.size(), 2u);
    ++count;
  }
  EXPECT_EQ(count, 3);
  EXPECT_EQ(reader.pages_read(), 3u);
  EXPECT_TRUE(reader.status().ok());
}

TEST(PageStreamReaderTest, AgreesWithInMemoryReader) {
  std::string xml = WriteDump(ThreePageDump());
  auto in_memory = ReadDump(xml);
  ASSERT_TRUE(in_memory.ok());
  std::istringstream input(xml);
  PageStreamReader reader(input);
  size_t index = 0;
  while (auto page = reader.NextPage()) {
    ASSERT_LT(index, in_memory->pages.size());
    EXPECT_EQ(page->title, in_memory->pages[index].title);
    EXPECT_EQ(page->revisions.size(),
              in_memory->pages[index].revisions.size());
    for (size_t r = 0; r < page->revisions.size(); ++r) {
      EXPECT_EQ(page->revisions[r].text,
                in_memory->pages[index].revisions[r].text);
    }
    ++index;
  }
  EXPECT_EQ(index, in_memory->pages.size());
}

TEST(PageStreamReaderTest, EmptyInput) {
  // Not a dump: the same error the in-memory reader gives.
  std::istringstream input("");
  PageStreamReader reader(input);
  EXPECT_FALSE(reader.NextPage().has_value());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
  EXPECT_EQ(reader.status().message(), ReadDump("").status().message());
  // Sticky after the error.
  EXPECT_FALSE(reader.NextPage().has_value());
}

TEST(PageStreamReaderTest, PagesWithoutRootAreError) {
  std::istringstream input("<page><title>X</title></page>");
  PageStreamReader reader(input);
  EXPECT_FALSE(reader.NextPage().has_value());
  EXPECT_EQ(reader.status().code(), StatusCode::kParseError);
}

TEST(PageStreamReaderTest, NoPagesIsCleanEof) {
  std::istringstream input("<mediawiki><siteinfo/></mediawiki>");
  PageStreamReader reader(input);
  EXPECT_FALSE(reader.NextPage().has_value());
  EXPECT_TRUE(reader.status().ok());
}

TEST(PageStreamReaderTest, UnterminatedPageIsError) {
  std::istringstream input("<mediawiki><page><title>X</title>");
  PageStreamReader reader(input);
  EXPECT_FALSE(reader.NextPage().has_value());
  EXPECT_FALSE(reader.status().ok());
}

TEST(PageStreamReaderTest, MarkerAcrossChunkBoundary) {
  // Pad so that "</page>" straddles the 64 KiB chunk boundary.
  Dump dump;
  PageHistory page;
  page.title = "Big";
  Revision rev;
  rev.text = std::string((1 << 16) - 40, 'x');
  page.revisions.push_back(rev);
  dump.pages.push_back(page);
  PageHistory second;
  second.title = "After";
  dump.pages.push_back(second);

  std::istringstream input(WriteDump(dump));
  PageStreamReader reader(input);
  auto first = reader.NextPage();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->title, "Big");
  EXPECT_EQ(first->revisions[0].text.size(), (1u << 16) - 40);
  auto next = reader.NextPage();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->title, "After");
}

}  // namespace
}  // namespace somr::xmldump
