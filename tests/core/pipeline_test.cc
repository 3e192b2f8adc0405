#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <sstream>

#include "eval/metrics.h"
#include "wikigen/corpus.h"

namespace somr::core {
namespace {

wikigen::GoldCorpus TinyCorpus() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3};
  config.pages_per_stratum = 2;
  config.min_revisions = 15;
  config.max_revisions = 25;
  config.seed = 9;
  return wikigen::GenerateGoldCorpus(config);
}

TEST(PipelineTest, ProcessesDumpXml) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  Pipeline pipeline;
  auto results = pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  for (size_t p = 0; p < results->size(); ++p) {
    const PageResult& result = (*results)[p];
    EXPECT_EQ(result.title, corpus.pages[p].title);
    EXPECT_EQ(result.revisions.size(), corpus.pages[p].revisions.size());
    // Matched graphs cover every extracted instance.
    size_t extracted = 0;
    for (const auto& rev : result.revisions) {
      extracted += rev.tables.size();
    }
    EXPECT_EQ(result.tables.VersionCount(), extracted);
  }
}

TEST(PipelineTest, HighQualityAgainstTruth) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  Pipeline pipeline;
  for (size_t p = 0; p < corpus.pages.size(); ++p) {
    xmldump::Dump dump = wikigen::CorpusToDump(corpus);
    PageResult result = pipeline.ProcessPage(dump.pages[p]);
    eval::EdgeMetrics m =
        eval::CompareEdges(corpus.pages[p].truth_tables, result.tables);
    EXPECT_GT(m.F1(), 0.9) << corpus.pages[p].title;
  }
}

TEST(PipelineTest, BadXmlIsError) {
  Pipeline pipeline;
  auto results = pipeline.ProcessDumpXml("<garbage/>");
  EXPECT_FALSE(results.ok());
}

TEST(PipelineTest, BadXmlIsErrorWhenStreamed) {
  Pipeline pipeline;
  for (unsigned threads : {1u, 3u}) {
    std::istringstream in("<garbage/>");
    auto results = pipeline.ProcessDumpStream(in, threads);
    EXPECT_EQ(results.status().code(), StatusCode::kParseError) << threads;
  }
}

TEST(PipelineTest, GraphForSelectsType) {
  PageResult result;
  EXPECT_EQ(&result.GraphFor(extract::ObjectType::kTable),
            &result.tables);
  EXPECT_EQ(&result.GraphFor(extract::ObjectType::kInfobox),
            &result.infoboxes);
  EXPECT_EQ(&result.GraphFor(extract::ObjectType::kList), &result.lists);
}

TEST(PipelineTest, StatsRecordedPerStep) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  Pipeline pipeline;
  PageResult result = pipeline.ProcessPage(dump.pages[0]);
  EXPECT_EQ(result.table_stats.step_millis.size(),
            result.revisions.size());
}


TEST(PipelineTest, ParallelMatchesSequential) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  Pipeline pipeline;
  auto sequential = pipeline.ProcessDumpXml(xml);
  auto parallel = pipeline.ProcessDumpXml(xml, 4);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(sequential->size(), parallel->size());
  for (size_t p = 0; p < sequential->size(); ++p) {
    EXPECT_EQ((*sequential)[p].title, (*parallel)[p].title);
    EXPECT_EQ((*sequential)[p].tables.EdgeSet(),
              (*parallel)[p].tables.EdgeSet());
    EXPECT_EQ((*sequential)[p].lists.EdgeSet(),
              (*parallel)[p].lists.EdgeSet());
    EXPECT_EQ((*sequential)[p].infoboxes.EdgeSet(),
              (*parallel)[p].infoboxes.EdgeSet());
  }
}

TEST(PipelineTest, ParallelWithOneThreadIsSequential) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  Pipeline pipeline;
  auto result = pipeline.ProcessDumpXml(xml, 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), corpus.pages.size());
}


TEST(PipelineTest, ParallelMoreThreadsThanPages) {
  wikigen::GoldCorpus corpus = TinyCorpus();  // 2 pages
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  Pipeline pipeline;
  auto sequential = pipeline.ProcessDumpXml(xml);
  auto parallel = pipeline.ProcessDumpXml(xml, 16);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), corpus.pages.size());
  for (size_t p = 0; p < sequential->size(); ++p) {
    EXPECT_EQ((*sequential)[p].title, (*parallel)[p].title);
    EXPECT_EQ((*sequential)[p].tables.EdgeSet(),
              (*parallel)[p].tables.EdgeSet());
  }
}

TEST(PipelineTest, EmptyDumpYieldsNoPages) {
  Pipeline pipeline;
  const std::string xml = "<mediawiki><siteinfo/></mediawiki>";
  auto sequential = pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(sequential.ok());
  EXPECT_TRUE(sequential->empty());
  auto parallel = pipeline.ProcessDumpXml(xml, 4);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->empty());
}

TEST(PipelineTest, StreamMatchesInMemory) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  Pipeline pipeline;
  auto batch = pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(batch.ok());
  for (unsigned threads : {1u, 3u}) {
    std::istringstream in(xml);
    auto streamed = pipeline.ProcessDumpStream(in, threads);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_EQ(streamed->size(), batch->size());
    for (size_t p = 0; p < batch->size(); ++p) {
      EXPECT_EQ((*streamed)[p].title, (*batch)[p].title);
      EXPECT_EQ((*streamed)[p].tables.EdgeSet(),
                (*batch)[p].tables.EdgeSet());
      EXPECT_EQ((*streamed)[p].infoboxes.EdgeSet(),
                (*batch)[p].infoboxes.EdgeSet());
      EXPECT_EQ((*streamed)[p].lists.EdgeSet(),
                (*batch)[p].lists.EdgeSet());
    }
  }
}

TEST(PipelineTest, StreamEmptyDump) {
  Pipeline pipeline;
  std::istringstream in("<mediawiki><siteinfo/></mediawiki>");
  auto results = pipeline.ProcessDumpStream(in, 4);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_TRUE(results->empty());
}

TEST(PipelineTest, TimestampsCarriedThrough) {
  wikigen::GoldCorpus corpus = TinyCorpus();
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  Pipeline pipeline;
  PageResult result = pipeline.ProcessPage(dump.pages[0]);
  ASSERT_EQ(result.timestamps.size(), result.revisions.size());
  EXPECT_EQ(result.timestamps[0], dump.pages[0].revisions[0].timestamp);
}

}  // namespace
}  // namespace somr::core
