// WikitextHistory must extract every revision exactly as a fresh parse
// does, while parsing only the object elements that changed since the
// previous revision. The differential runs over the wikigen gold corpora
// the accuracy and equivalence suites use; the targeted cases pin the
// edits where reuse could go wrong, and check through the reuse counters
// that reuse really happened.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "extract/wikitext_extractor.h"
#include "obs/metrics.h"
#include "wikigen/corpus.h"
#include "wikitext/parser.h"

namespace somr::extract {
namespace {

struct Counts {
  uint64_t reused = 0;
  uint64_t parsed = 0;
};

Counts ReadCounts() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  return {reg.GetCounter("somr_extract_elements_reused_total", "")->Value(),
          reg.GetCounter("somr_extract_elements_parsed_total", "")->Value()};
}

/// Runs `text` through `history`, checks the result against a fresh
/// extraction of `text` alone (a new history, and the full parse), and
/// returns the element counts of the call.
Counts Feed(WikitextHistory& history, std::string_view text,
            PageObjects* out = nullptr) {
  const Counts before = ReadCounts();
  PageObjects objects = history.Next(text);
  const Counts after = ReadCounts();
  EXPECT_EQ(objects, ExtractFromWikitextSource(text)) << text;
  EXPECT_EQ(objects, ExtractFromWikitext(wikitext::ParseWikitext(text)))
      << text;
  if (out != nullptr) *out = std::move(objects);
  return {after.reused - before.reused, after.parsed - before.parsed};
}

void ExpectCounts(const Counts& counts, uint64_t reused, uint64_t parsed) {
  EXPECT_EQ(counts.reused, reused);
  EXPECT_EQ(counts.parsed, parsed);
}

wikigen::CorpusConfig GoldAccuracyConfig(ObjectType type) {
  wikigen::CorpusConfig config;  // as in gold_accuracy_test.cc
  config.focal_type = type;
  config.strata_caps = {1, 3, 7, 15, 31};
  config.pages_per_stratum = 4;
  config.min_revisions = 60;
  config.max_revisions = 120;
  config.seed = 17;
  return config;
}

wikigen::CorpusConfig EquivalenceConfig(ObjectType type) {
  wikigen::CorpusConfig config;  // as in equivalence_test.cc
  config.focal_type = type;
  config.strata_caps = {1, 3};
  config.pages_per_stratum = 1;
  config.min_revisions = 12;
  config.max_revisions = 18;
  config.seed = 91;
  return config;
}

class WikitextHistoryDifferential
    : public ::testing::TestWithParam<ObjectType> {};

TEST_P(WikitextHistoryDifferential, EveryRevisionMatchesFreshExtraction) {
  Counts total;
  for (const wikigen::CorpusConfig& config :
       {GoldAccuracyConfig(GetParam()), EquivalenceConfig(GetParam())}) {
    const wikigen::GoldCorpus corpus = wikigen::GenerateGoldCorpus(config);
    for (const wikigen::GeneratedPage& page : corpus.pages) {
      WikitextHistory history;
      for (size_t r = 0; r < page.revisions.size(); ++r) {
        SCOPED_TRACE(page.title + " revision " + std::to_string(r));
        const Counts counts = Feed(history, page.revisions[r].wikitext);
        total.reused += counts.reused;
        total.parsed += counts.parsed;
      }
    }
  }
  // Consecutive revisions differ by one edit, so most elements repeat.
  EXPECT_GT(total.reused, 4 * total.parsed);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, WikitextHistoryDifferential,
                         ::testing::Values(ObjectType::kTable,
                                           ObjectType::kInfobox,
                                           ObjectType::kList));

constexpr const char* kTable = "{|\n! Year !! Title\n|-\n| 2001 || A\n|}\n";
constexpr const char* kOther = "{|\n|-\n| x || y\n|}\n";

TEST(WikitextHistoryTest, WhitespaceEditReparsesOnlyThatTable) {
  WikitextHistory history;
  ExpectCounts(Feed(history, std::string(kTable) + "\n" + kOther), 0, 2);
  ExpectCounts(
      Feed(history, std::string("{|\n! Year !! Title \n|-\n| 2001 || A\n|}\n") +
                        "\n" + kOther),
      1, 1);
}

TEST(WikitextHistoryTest, MovedTableTakesItsNewSectionPath) {
  WikitextHistory history;
  PageObjects objects;
  Feed(history, std::string("== A ==\n") + kTable + "== B ==\n", &objects);
  EXPECT_EQ(objects.tables.at(0).section_path,
            (std::vector<std::string>{"A"}));
  ExpectCounts(Feed(history, std::string("== A ==\n== B ==\n") + kTable,
                    &objects),
               1, 0);
  EXPECT_EQ(objects.tables.at(0).section_path,
            (std::vector<std::string>{"B"}));
}

TEST(WikitextHistoryTest, IdenticalTablesInOneRevision) {
  WikitextHistory history;
  PageObjects objects;
  const std::string twice = std::string(kTable) + "\n" + kTable;
  ExpectCounts(Feed(history, twice, &objects), 1, 1);
  ASSERT_EQ(objects.tables.size(), 2u);
  EXPECT_EQ(objects.tables[1].position, 1);
  ExpectCounts(Feed(history, twice), 2, 0);
  ExpectCounts(Feed(history, std::string(kTable) + "\n" + kOther), 1, 1);
}

TEST(WikitextHistoryTest, EditedNestedTableReparsesTheOuterOne) {
  const std::string before =
      "{|\n|-\n| outer\n{|\n|-\n| inner\n|}\n|}\n\n" + std::string(kOther);
  const std::string after =
      "{|\n|-\n| outer\n{|\n|-\n| edited\n|}\n|}\n\n" + std::string(kOther);
  WikitextHistory history;
  ExpectCounts(Feed(history, before), 0, 2);
  ExpectCounts(Feed(history, after), 1, 1);
}

TEST(WikitextHistoryTest, CommentHidesAndRevealsATable) {
  const std::string list = "* one\n* two\n";
  WikitextHistory history;
  PageObjects objects;
  ExpectCounts(Feed(history, "<!--\n" + std::string(kTable) + "-->\n" + list,
                    &objects),
               0, 1);
  EXPECT_TRUE(objects.tables.empty());
  ExpectCounts(Feed(history, std::string(kTable) + list, &objects), 1, 1);
  EXPECT_EQ(objects.tables.size(), 1u);
  ExpectCounts(Feed(history, "<!--\n" + std::string(kTable) + "-->\n" + list,
                    &objects),
               1, 0);
  EXPECT_TRUE(objects.tables.empty());
}

TEST(WikitextHistoryTest, CrlfText) {
  const std::string crlf = "== H ==\r\n{|\r\n|-\r\n| a || b\r\n|}\r\n* i\r\n";
  WikitextHistory history;
  PageObjects objects;
  ExpectCounts(Feed(history, crlf, &objects), 0, 2);
  ASSERT_EQ(objects.tables.size(), 1u);
  EXPECT_EQ(objects.tables[0].rows.at(0),
            (std::vector<std::string>{"a", "b"}));
  ExpectCounts(Feed(history, crlf), 2, 0);
  // With \n line ends the table's bytes differ; the one-line list's,
  // without its line end, do not.
  ExpectCounts(Feed(history, "== H ==\n{|\n|-\n| a || b\n|}\n* i\n"), 1, 1);
}

TEST(WikitextHistoryTest, RevertReparsesWhatTheLastRevisionLacked) {
  const std::string old_page = std::string(kTable) + "\n" + kOther;
  WikitextHistory history;
  PageObjects first;
  Feed(history, old_page, &first);
  ExpectCounts(Feed(history, kOther), 1, 0);
  // Only the previous revision is kept: the reverted table parses again.
  PageObjects reverted;
  ExpectCounts(Feed(history, old_page, &reverted), 1, 1);
  EXPECT_EQ(reverted, first);
}

TEST(WikitextHistoryTest, UnbalancedBracesStayAParagraph) {
  WikitextHistory history;
  PageObjects objects;
  ExpectCounts(Feed(history, "{{Infobox x\n| a = 1\n\n" + std::string(kTable),
                    &objects),
               0, 1);
  EXPECT_TRUE(objects.infoboxes.empty());
  ExpectCounts(Feed(history,
                    "{{Infobox x\n| a = 1\n}}\n\n" + std::string(kTable),
                    &objects),
               1, 1);
  EXPECT_EQ(objects.infoboxes.size(), 1u);
}

}  // namespace
}  // namespace somr::extract
