#include "state/incremental_pipeline.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/change_cube.h"
#include "core/pipeline.h"
#include "matching/graph_io.h"
#include "wikigen/corpus.h"

namespace somr::state {
namespace {

using core::IngestReport;

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

wikigen::GoldCorpus CorpusFor(extract::ObjectType focal, uint64_t seed) {
  wikigen::CorpusConfig config;
  config.focal_type = focal;
  config.strata_caps = {3};
  config.pages_per_stratum = 1;
  config.min_revisions = 12;
  config.max_revisions = 16;
  config.seed = seed;
  return wikigen::GenerateGoldCorpus(config);
}

class IncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-inc-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  // A fresh store subdirectory (distinct per call within one test).
  std::string FreshDir() {
    return dir_ + "/s" + std::to_string(next_store_++);
  }

  std::string dir_;
  int next_store_ = 0;
};

// Ingests `page` in chunks of `chunk` revisions, tearing down and
// reopening the store between chunks — every chunk boundary is a real
// checkpoint/resume cycle through the snapshot files on disk.
core::PageResult ChunkedIngest(const xmldump::PageHistory& page,
                               size_t chunk, const std::string& dir) {
  for (size_t done = 0; done < page.revisions.size(); done += chunk) {
    xmldump::PageHistory prefix = page;
    prefix.revisions.resize(
        std::min(page.revisions.size(), done + chunk));
    ContextStore store(dir);
    Status opened = store.Open(/*create=*/true);
    EXPECT_TRUE(opened.ok()) << opened.ToString();
    IncrementalPipeline pipeline(&store);
    StatusOr<IngestReport> report = pipeline.IngestPage(prefix);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->new_revisions, prefix.revisions.size() - done);
    EXPECT_EQ(report->skipped_revisions, done);
  }
  ContextStore store(dir);
  EXPECT_TRUE(store.Open(/*create=*/false).ok());
  IncrementalPipeline pipeline(&store);
  StatusOr<core::PageResult> result = pipeline.ResultFor(page.title);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

// The correctness contract: identical serialized graphs, identical change
// cubes, identical stats counters (timing excluded) vs the batch run.
void ExpectBatchEquivalent(const core::PageResult& incremental,
                           const core::PageResult& batch) {
  EXPECT_EQ(incremental.title, batch.title);
  ASSERT_EQ(incremental.revisions.size(), batch.revisions.size());
  EXPECT_EQ(incremental.timestamps, batch.timestamps);
  for (extract::ObjectType type : kAllTypes) {
    EXPECT_EQ(matching::SerializeIdentityGraph(incremental.GraphFor(type)),
              matching::SerializeIdentityGraph(batch.GraphFor(type)))
        << "graph mismatch for " << extract::ObjectTypeName(type);
    EXPECT_EQ(core::ChangeCubeToCsv(core::BuildChangeCube(
                  incremental, type, incremental.timestamps)),
              core::ChangeCubeToCsv(core::BuildChangeCube(
                  batch, type, batch.timestamps)))
        << "cube mismatch for " << extract::ObjectTypeName(type);
  }
  const matching::MatchStats* inc_stats[] = {
      &incremental.table_stats, &incremental.infobox_stats,
      &incremental.list_stats};
  const matching::MatchStats* batch_stats[] = {
      &batch.table_stats, &batch.infobox_stats, &batch.list_stats};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(inc_stats[i]->similarities_computed,
              batch_stats[i]->similarities_computed);
    EXPECT_EQ(inc_stats[i]->stage1_matches, batch_stats[i]->stage1_matches);
    EXPECT_EQ(inc_stats[i]->stage2_matches, batch_stats[i]->stage2_matches);
    EXPECT_EQ(inc_stats[i]->stage3_matches, batch_stats[i]->stage3_matches);
    EXPECT_EQ(inc_stats[i]->new_objects, batch_stats[i]->new_objects);
    EXPECT_EQ(inc_stats[i]->pairs_pruned, batch_stats[i]->pairs_pruned);
    EXPECT_EQ(inc_stats[i]->step_millis.size(),
              batch_stats[i]->step_millis.size());
  }
}

// The headline test: for each object type's gold corpus, split the
// revision stream at EVERY boundary, checkpoint the prefix, resume with
// the suffix, and demand byte-identical outputs vs the one-shot run.
TEST_F(IncrementalTest, SplitAtEveryBoundaryMatchesBatch) {
  uint64_t seed = 31;
  for (extract::ObjectType focal : kAllTypes) {
    wikigen::GoldCorpus corpus = CorpusFor(focal, seed++);
    xmldump::Dump dump = wikigen::CorpusToDump(corpus);
    const xmldump::PageHistory& page = dump.pages[0];
    core::PageResult batch = core::Pipeline().ProcessPage(page);

    for (size_t split = 1; split < page.revisions.size(); ++split) {
      std::string dir = FreshDir();
      xmldump::PageHistory prefix = page;
      prefix.revisions.resize(split);
      {
        ContextStore store(dir);
        ASSERT_TRUE(store.Open(/*create=*/true).ok());
        IncrementalPipeline pipeline(&store);
        StatusOr<IngestReport> report = pipeline.IngestPage(prefix);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        ASSERT_EQ(report->new_revisions, split);
      }
      // Fresh store object: the resume goes through disk, not memory.
      ContextStore store(dir);
      ASSERT_TRUE(store.Open(/*create=*/false).ok());
      IncrementalPipeline pipeline(&store);
      StatusOr<IngestReport> report = pipeline.IngestPage(page);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->skipped_revisions, split);
      EXPECT_EQ(report->new_revisions, page.revisions.size() - split);

      StatusOr<core::PageResult> result = pipeline.ResultFor(page.title);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectBatchEquivalent(*result, batch);
    }
  }
}

// Checkpoint/reload after every k revisions (k=1 reloads after every
// single revision — the worst case for serialization fidelity).
TEST_F(IncrementalTest, ChunkedIngestionMatchesBatch) {
  wikigen::GoldCorpus corpus =
      CorpusFor(extract::ObjectType::kTable, 47);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  const xmldump::PageHistory& page = dump.pages[0];
  core::PageResult batch = core::Pipeline().ProcessPage(page);
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}}) {
    core::PageResult incremental = ChunkedIngest(page, chunk, FreshDir());
    ExpectBatchEquivalent(incremental, batch);
  }
}

TEST_F(IncrementalTest, ReingestIsIdempotent) {
  wikigen::GoldCorpus corpus = CorpusFor(extract::ObjectType::kList, 5);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  ContextStore store(FreshDir());
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  IncrementalPipeline pipeline(&store);
  ASSERT_TRUE(pipeline.IngestPage(dump.pages[0]).ok());
  StatusOr<IngestReport> again = pipeline.IngestPage(dump.pages[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->new_revisions, 0u);
  EXPECT_EQ(again->skipped_revisions, dump.pages[0].revisions.size());
}

TEST_F(IncrementalTest, IngestDumpMatchesBatchPerPage) {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kInfobox;
  config.strata_caps = {2, 4};
  config.pages_per_stratum = 2;
  config.min_revisions = 8;
  config.max_revisions = 12;
  config.seed = 13;
  xmldump::Dump dump =
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
  std::string xml = xmldump::WriteDump(dump);

  auto batch = core::Pipeline().ProcessDumpXml(xml);
  ASSERT_TRUE(batch.ok());

  ContextStore store(FreshDir());
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  IncrementalPipeline pipeline(&store);
  std::istringstream in(xml);
  StatusOr<IngestReport> report = pipeline.IngestDump(in, /*threads=*/3);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages, batch->size());

  for (const core::PageResult& expected : *batch) {
    StatusOr<core::PageResult> result = pipeline.ResultFor(expected.title);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBatchEquivalent(*result, expected);
  }
}

TEST_F(IncrementalTest, IngestDumpMoreThreadsThanPages) {
  wikigen::GoldCorpus corpus = CorpusFor(extract::ObjectType::kTable, 3);
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  ContextStore store(FreshDir());
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  IncrementalPipeline pipeline(&store);
  std::istringstream in(xml);
  StatusOr<IngestReport> report = pipeline.IngestDump(in, /*threads=*/8);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages, corpus.pages.size());
}

TEST_F(IncrementalTest, IngestEmptyDump) {
  ContextStore store(FreshDir());
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  IncrementalPipeline pipeline(&store);
  std::istringstream in("<mediawiki>\n</mediawiki>\n");
  StatusOr<IngestReport> report = pipeline.IngestDump(in, /*threads=*/4);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages, 0u);
  EXPECT_TRUE(store.Pages().empty());
}

TEST_F(IncrementalTest, ResultForUnknownPageIsNotFound) {
  ContextStore store(FreshDir());
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  IncrementalPipeline pipeline(&store);
  EXPECT_EQ(pipeline.ResultFor("ghost").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace somr::state
