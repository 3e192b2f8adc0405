#include "core/page_step.h"

#include <gtest/gtest.h>

#include <string>

#include "matching/graph_io.h"
#include "obs/metrics.h"
#include "wikigen/corpus.h"

namespace somr::core {
namespace {

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

// One generated page of exactly `revisions` wikitext revisions.
xmldump::PageHistory GeneratedPage(int revisions, uint64_t seed) {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3};
  config.pages_per_stratum = 1;
  config.min_revisions = revisions;
  config.max_revisions = revisions;
  config.seed = seed;
  xmldump::Dump dump =
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
  return dump.pages.at(0);
}

// The identity graphs and deterministic match counters of a result.
std::string Fingerprint(const PageResult& result) {
  std::string out;
  for (extract::ObjectType type : kAllTypes) {
    out += matching::SerializeIdentityGraph(result.GraphFor(type));
  }
  for (const matching::MatchStats* stats :
       {&result.table_stats, &result.infobox_stats, &result.list_stats}) {
    out += "stats " + std::to_string(stats->similarities_computed) + " " +
           std::to_string(stats->stage1_matches) + " " +
           std::to_string(stats->stage2_matches) + " " +
           std::to_string(stats->stage3_matches) + " " +
           std::to_string(stats->new_objects) + "\n";
  }
  return out;
}

uint64_t ElementsReused() {
  return obs::MetricsRegistry::Global()
      .GetCounter("somr_extract_elements_reused_total", "")
      ->Value();
}

// Serve posts one revision per call: the state keeps the last revision's
// elements, so the second call reuses them, and the result is batch's.
TEST(PageStepTest, OneRevisionCallsReuseTheLastRevisionsElements) {
  const xmldump::PageHistory page = GeneratedPage(2, 31);
  ASSERT_EQ(page.revisions.size(), 2u);
  ASSERT_LT(page.revisions[0].id, page.revisions[1].id);

  // What the second revision reuses on its own (twin elements within it).
  uint64_t before = ElementsReused();
  extract::WikitextHistory().Next(page.revisions[1].text);
  const uint64_t reused_alone = ElementsReused() - before;

  PageState state;
  uint64_t reused_by_second_call = 0;
  for (size_t r = 0; r < 2; ++r) {
    xmldump::PageHistory one = page;
    one.revisions = {page.revisions[r]};
    before = ElementsReused();
    const IngestReport report = ApplyPageToState(state, one, nullptr, nullptr);
    EXPECT_EQ(report.new_revisions, 1u);
    EXPECT_EQ(report.skipped_revisions, 0u);
    reused_by_second_call = ElementsReused() - before;
  }
  EXPECT_EQ(state.revisions_ingested, 2u);
  EXPECT_GT(reused_by_second_call, reused_alone);

  const PageResult batch = Pipeline().ProcessPage(page);
  const PageResult stepped = StateToResult(std::move(state));
  EXPECT_EQ(stepped.title, batch.title);
  EXPECT_EQ(stepped.timestamps, batch.timestamps);
  ASSERT_EQ(stepped.revisions.size(), batch.revisions.size());
  for (size_t r = 0; r < batch.revisions.size(); ++r) {
    for (extract::ObjectType type : kAllTypes) {
      EXPECT_EQ(stepped.revisions[r].OfType(type),
                batch.revisions[r].OfType(type));
    }
  }
  EXPECT_EQ(Fingerprint(stepped), Fingerprint(batch));
}

// The skip watermark is read once per call: ids that fall within one
// call do not hide each other, while a later call skips every id up to
// the highest one applied so far.
TEST(PageStepTest, WatermarkIsReadOncePerCall) {
  xmldump::PageHistory page = GeneratedPage(14, 7);
  ASSERT_EQ(page.revisions.size(), 14u);
  for (size_t r = 0; r < page.revisions.size(); ++r) {
    page.revisions[r].id = 1000 - static_cast<int64_t>(r);
  }

  PageState state;
  IngestReport first = ApplyPageToState(state, page, nullptr, nullptr);
  EXPECT_EQ(first.new_revisions, 14u);
  EXPECT_EQ(first.skipped_revisions, 0u);
  EXPECT_EQ(state.last_revision_id, 1000);

  IngestReport again = ApplyPageToState(state, page, nullptr, nullptr);
  EXPECT_EQ(again.new_revisions, 0u);
  EXPECT_EQ(again.skipped_revisions, 14u);

  EXPECT_EQ(Fingerprint(StateToResult(std::move(state))),
            Fingerprint(Pipeline().ProcessPage(page)));
}

}  // namespace
}  // namespace somr::core
