// Failure-injection / robustness tests: all parsers must be total (never
// crash, never loop) on mutated and adversarial input, and their output
// must stay well-formed enough to re-serialize.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "extract/html_extractor.h"
#include "extract/wikitext_extractor.h"
#include "html/parser.h"
#include "matching/matcher.h"
#include "wikigen/evolver.h"
#include "wikitext/parser.h"
#include "wikitext/serializer.h"
#include "xmldump/dump.h"

namespace somr {
namespace {

/// Applies `n` random byte mutations (insert / delete / replace).
std::string Mutate(std::string input, Rng& rng, int n) {
  for (int i = 0; i < n; ++i) {
    if (input.empty()) {
      input.push_back(static_cast<char>(rng.UniformInt(32, 126)));
      continue;
    }
    size_t pos = rng.Index(input.size());
    switch (rng.UniformInt(0, 2)) {
      case 0:
        input[pos] = static_cast<char>(rng.UniformInt(1, 255));
        break;
      case 1:
        input.erase(pos, 1);
        break;
      default:
        input.insert(pos, 1, static_cast<char>(rng.UniformInt(1, 255)));
    }
  }
  return input;
}

std::string SampleWikitext(uint64_t seed) {
  wikigen::EvolverConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.max_focal_objects = 4;
  config.num_revisions = 5;
  config.seed = seed;
  wikigen::GeneratedPage page = wikigen::PageEvolver(config).Generate();
  return page.revisions.back().wikitext;
}

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, WikitextParserIsTotal) {
  Rng rng(GetParam());
  std::string source = SampleWikitext(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::string mutated = Mutate(source, rng, 1 + round);
    wikitext::Document doc = wikitext::ParseWikitext(mutated);
    // Whatever was parsed must re-serialize and re-parse without crash.
    std::string reserialized = wikitext::SerializeDocument(doc);
    wikitext::ParseWikitext(reserialized);
    extract::ExtractFromWikitextSource(mutated);
  }
}

TEST_P(ParserFuzz, HtmlParserIsTotal) {
  Rng rng(GetParam() + 1000);
  wikigen::EvolverConfig config;
  config.num_revisions = 3;
  config.seed = GetParam();
  wikigen::GeneratedPage page = wikigen::PageEvolver(config).Generate();
  std::string source = page.revisions.back().html;
  for (int round = 0; round < 20; ++round) {
    std::string mutated = Mutate(source, rng, 1 + round);
    const html::Document doc = html::ParseHtml(mutated);
    doc.root().OuterHtml();  // serialization must not crash either
    extract::ExtractFromHtmlSource(mutated);
  }
}

TEST_P(ParserFuzz, XmlDumpReaderIsTotal) {
  Rng rng(GetParam() + 2000);
  xmldump::Dump dump;
  xmldump::PageHistory history;
  history.title = "T";
  xmldump::Revision rev;
  rev.text = SampleWikitext(GetParam());
  history.revisions.push_back(rev);
  dump.pages.push_back(history);
  std::string xml = xmldump::WriteDump(dump);
  for (int round = 0; round < 20; ++round) {
    std::string mutated = Mutate(xml, rng, 1 + 2 * round);
    auto result = xmldump::ReadDump(mutated);  // ok or error, never crash
    (void)result;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<uint64_t>(0, 10));

TEST(RobustnessTest, PureGarbageInputs) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    std::string garbage;
    size_t length = rng.Index(500);
    for (size_t i = 0; i < length; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformInt(1, 255)));
    }
    wikitext::ParseWikitext(garbage);
    html::ParseHtml(garbage);
    (void)xmldump::ReadDump(garbage);
  }
}

std::string Repeat(std::string_view piece, int times) {
  std::string out;
  out.reserve(piece.size() * static_cast<size_t>(times));
  for (int i = 0; i < times; ++i) out.append(piece);
  return out;
}

TEST(RobustnessTest, PathologicalMarkup) {
  // Deeply "nested" and unbalanced constructs must not recurse or loop.
  std::string opens(20000, '{');
  wikitext::ParseWikitext(opens);
  std::string brackets(20000, '[');
  wikitext::ParseWikitext(brackets);
  std::string mixed = "{|\n";
  for (int i = 0; i < 5000; ++i) mixed += "|-\n| x\n";
  wikitext::Document doc = wikitext::ParseWikitext(mixed);
  EXPECT_EQ(doc.elements.size(), 1u);
  // HTML: every walk over a Document is a loop, so nesting depth costs
  // heap, not stack. Extraction, serialization, subtree size and teardown
  // all reach the innermost node of a million open elements.
  constexpr int kDepth = 1000000;
  {
    const std::string input =
        Repeat("<div>", kDepth) +
        "<table><tr><th>k</th><td>deep</td></tr></table>";
    extract::PageObjects objects = extract::ExtractFromHtmlSource(input);
    ASSERT_EQ(objects.tables.size(), 1u);
    EXPECT_EQ(objects.tables[0].rows,
              (std::vector<std::vector<std::string>>{{"k", "deep"}}));
    const html::Document dom = html::ParseHtml(input);
    EXPECT_EQ(dom.root().SubtreeSize(), 1u + kDepth + 6u);
    const std::string outer = dom.root().OuterHtml();
    EXPECT_EQ(outer.size(), input.size() + 6u * kDepth);  // + the </div>s
    EXPECT_EQ(outer.substr(outer.size() - 12), "</div></div>");
  }
  {
    const std::string input = Repeat("<ul><li>", kDepth) + "deepest";
    extract::PageObjects objects = extract::ExtractFromHtmlSource(input);
    ASSERT_EQ(objects.lists.size(), 1u);
    ASSERT_EQ(objects.lists[0].rows.size(), static_cast<size_t>(kDepth));
    EXPECT_EQ(objects.lists[0].rows.back(),
              (std::vector<std::string>{"deepest"}));
    const html::Document dom = html::ParseHtml(input);
    EXPECT_EQ(dom.root().SubtreeSize(), 2u + 2u * kDepth);
    EXPECT_EQ(dom.root().OuterHtml(), input + Repeat("</li></ul>", kDepth));
  }
  {
    const std::string input = Repeat("<table><tr><td>", kDepth) + "innermost";
    extract::PageObjects objects = extract::ExtractFromHtmlSource(input);
    ASSERT_EQ(objects.tables.size(), 1u);
    EXPECT_EQ(objects.tables[0].rows,
              (std::vector<std::vector<std::string>>{{"innermost"}}));
    const html::Document dom = html::ParseHtml(input);
    EXPECT_EQ(dom.root().SubtreeSize(), 2u + 3u * kDepth);
    EXPECT_EQ(dom.root().OuterHtml(),
              input + Repeat("</td></tr></table>", kDepth));
  }
}

TEST(RobustnessTest, MatcherToleratesAdversarialPositions) {
  // Positions are normally dense 0..n-1; a buggy caller might pass
  // duplicates or gaps. The matcher must not crash and must still
  // account for every instance.
  matching::TemporalMatcher matcher(extract::ObjectType::kTable);
  extract::ObjectInstance a;
  a.type = extract::ObjectType::kTable;
  a.position = 5;  // gap
  a.rows = {{"alpha"}};
  extract::ObjectInstance b = a;
  b.position = 5;  // duplicate position
  b.rows = {{"beta"}};
  matcher.ProcessRevision(0, {a, b});
  matcher.ProcessRevision(1, {a});
  EXPECT_GE(matcher.graph().ObjectCount(), 2u);
  EXPECT_EQ(matcher.graph().VersionCount(), 3u);
}

TEST(RobustnessTest, EmptyAndWhitespaceRevisions) {
  matching::TemporalMatcher matcher(extract::ObjectType::kList);
  for (int r = 0; r < 5; ++r) {
    matcher.ProcessRevision(r, {});
  }
  EXPECT_EQ(matcher.graph().ObjectCount(), 0u);
  extract::PageObjects objects = extract::ExtractFromWikitextSource("   \n\n  ");
  EXPECT_EQ(objects.TotalCount(), 0u);
}

}  // namespace
}  // namespace somr
