// Thread-count determinism: the parallel entry points and the intra-step
// matcher parallelism must produce byte-identical identity graphs and
// change cubes at any worker count (ISSUE: --threads 1/2/8 equivalence).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/change_cube.h"
#include "core/pipeline.h"
#include "matching/graph_io.h"
#include "parallel/executor.h"
#include "wikigen/corpus.h"

namespace somr::core {
namespace {

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

// Same shape as the somr_process demo corpus, slightly smaller.
std::string DemoXml() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3, 8};
  config.pages_per_stratum = 2;
  config.min_revisions = 20;
  config.max_revisions = 40;
  config.seed = 4;
  return xmldump::WriteDump(
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config)));
}

// Serializes everything that must be thread-count invariant: graphs,
// change cube, and the deterministic MatchStats counters.
std::string Fingerprint(const std::vector<PageResult>& results) {
  std::ostringstream out;
  for (const PageResult& page : results) {
    out << "## " << page.title << "\n";
    for (extract::ObjectType type : kAllTypes) {
      out << matching::SerializeIdentityGraph(page.GraphFor(type));
      out << ChangeCubeToCsv(
          BuildChangeCube(page, type, page.timestamps));
    }
    for (const matching::MatchStats* stats :
         {&page.table_stats, &page.infobox_stats, &page.list_stats}) {
      out << "stats " << stats->similarities_computed << " "
          << stats->pairs_pruned << " "
          << stats->stage1_matches << " " << stats->stage2_matches << " "
          << stats->stage3_matches << " " << stats->new_objects << "\n";
    }
  }
  return out.str();
}

TEST(DeterminismTest, GraphsAndCubesIdenticalAcrossThreadCounts) {
  const std::string xml = DemoXml();
  Pipeline pipeline;
  auto sequential = pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(sequential.ok());
  const std::string expected = Fingerprint(*sequential);

  for (unsigned threads : {2u, 8u}) {
    parallel::Executor pool(threads);
    Pipeline parallel_pipeline;
    parallel_pipeline.set_executor(&pool);

    auto in_memory = parallel_pipeline.ProcessDumpXml(xml, threads);
    ASSERT_TRUE(in_memory.ok());
    EXPECT_EQ(Fingerprint(*in_memory), expected) << threads << " threads";

    std::istringstream stream(xml);
    auto streamed = parallel_pipeline.ProcessDumpStream(stream, threads);
    ASSERT_TRUE(streamed.ok());
    EXPECT_EQ(Fingerprint(*streamed), expected) << threads << " threads";
  }
}

// Intra-step parallelism engaged on every stage (cutoff 1) must still be
// byte-identical to the fully sequential matcher — including the
// similarity and prune counters, which the parallel path accumulates in
// per-thread scratch.
TEST(DeterminismTest, IntraStepParallelismMatchesSequential) {
  const std::string xml = DemoXml();
  matching::MatcherConfig config;
  config.parallel_min_pairs = 1;

  Pipeline sequential_pipeline(config);
  auto sequential = sequential_pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(sequential.ok());

  for (unsigned threads : {2u, 8u}) {
    parallel::Executor pool(threads);
    Pipeline parallel_pipeline(config);
    parallel_pipeline.set_executor(&pool);
    auto parallel_results = parallel_pipeline.ProcessDumpXml(xml);
    ASSERT_TRUE(parallel_results.ok());
    EXPECT_EQ(Fingerprint(*parallel_results), Fingerprint(*sequential))
        << threads << " threads";
  }
}

// Per-page and intra-step parallelism nested (pages on the pool, each
// matcher stage fanning out on the same pool) stays deterministic too.
TEST(DeterminismTest, NestedPageAndStageParallelismIsDeterministic) {
  const std::string xml = DemoXml();
  matching::MatcherConfig config;
  config.parallel_min_pairs = 1;

  Pipeline sequential_pipeline(config);
  auto sequential = sequential_pipeline.ProcessDumpXml(xml);
  ASSERT_TRUE(sequential.ok());

  parallel::Executor pool(4);
  Pipeline parallel_pipeline(config);
  parallel_pipeline.set_executor(&pool);
  auto nested = parallel_pipeline.ProcessDumpXml(xml, 4);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(Fingerprint(*nested), Fingerprint(*sequential));
}

}  // namespace
}  // namespace somr::core
