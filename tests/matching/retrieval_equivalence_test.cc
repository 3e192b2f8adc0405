// Randomized differential test of the retrieval-index candidate
// generation (src/retrieval/) against the all-pairs sweep: on seeded
// wikigen corpora and a Socrata data lake the two paths must produce
// byte-identical identity graphs, outcome stats, and match provenance
// across every object type and config ablation, while the indexed path
// scores at most as many pairs as the sweep. Also covers snapshot restore
// (the index is rebuilt, the "retrieval_index" validator must pass) and
// the shape pre-filter.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/socrata.h"
#include "common/check.h"
#include "eval/harness.h"
#include "matching/graph_io.h"
#include "matching/matcher.h"
#include "obs/provenance.h"
#include "state/snapshot.h"
#include "wikigen/corpus.h"

namespace somr::matching {
namespace {

wikigen::GoldCorpus SmallCorpus(extract::ObjectType focal, uint64_t seed) {
  wikigen::CorpusConfig config;
  config.focal_type = focal;
  config.strata_caps = {1, 3};
  config.pages_per_stratum = 1;
  config.min_revisions = 12;
  config.max_revisions = 18;
  config.seed = seed;
  return wikigen::GenerateGoldCorpus(config);
}

/// Outcome provenance of one run: every decision that shapes the graph,
/// excluding the work-rate fields (similarities, prunes, candidate
/// counts) that legitimately differ between swept and indexed runs.
struct Outcome {
  std::string graph;
  MatchStats stats;
  std::vector<std::string> decisions;
};

class DecisionCollector : public obs::ProvenanceSink {
 public:
  void Record(const obs::MatchDecision& d) override {
    if (d.kind == obs::MatchDecision::Kind::kStep) return;  // work rates
    std::ostringstream line;
    line << obs::MatchDecisionKindName(d.kind) << " r" << d.revision
         << " s" << d.stage << " o" << d.object_id << " p" << d.position
         << " sim=" << d.similarity << " " << d.reason;
    decisions.push_back(line.str());
  }
  std::vector<std::string> decisions;
};

Outcome RunEngine(
    const std::vector<std::vector<extract::ObjectInstance>>& revisions,
    extract::ObjectType type, const MatcherConfig& config) {
  TemporalMatcher matcher(type, config);
  DecisionCollector collector;
  matcher.SetProvenanceSink(&collector);
  for (size_t r = 0; r < revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), revisions[r]);
  }
  Outcome outcome;
  outcome.stats = matcher.stats();
  outcome.graph = SerializeIdentityGraph(matcher.graph());
  outcome.decisions = std::move(collector.decisions);
  return outcome;
}

/// Swept and indexed runs must agree on everything the graph is built
/// from; only work-rate counters may differ (indexed never scores more).
void ExpectEquivalent(const Outcome& swept, const Outcome& indexed) {
  EXPECT_EQ(swept.graph, indexed.graph);
  EXPECT_EQ(swept.stats.stage1_matches, indexed.stats.stage1_matches);
  EXPECT_EQ(swept.stats.stage2_matches, indexed.stats.stage2_matches);
  EXPECT_EQ(swept.stats.stage3_matches, indexed.stats.stage3_matches);
  EXPECT_EQ(swept.stats.new_objects, indexed.stats.new_objects);
  EXPECT_EQ(swept.decisions, indexed.decisions);
  EXPECT_LE(indexed.stats.similarities_computed,
            swept.stats.similarities_computed);
}

void RunDifferential(extract::ObjectType focal, uint64_t seed,
                     MatcherConfig base) {
  wikigen::GoldCorpus corpus = SmallCorpus(focal, seed);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      auto slices = eval::SliceType(objects, type);
      MatcherConfig swept = base;
      swept.enable_retrieval_index = false;
      MatcherConfig indexed = base;
      indexed.enable_retrieval_index = true;
      ExpectEquivalent(RunEngine(slices, type, swept),
                       RunEngine(slices, type, indexed));
    }
  }
}

class RetrievalEquivalenceTest
    : public ::testing::TestWithParam<extract::ObjectType> {};

TEST_P(RetrievalEquivalenceTest, IndexedMatchesSweptOnGoldCorpora) {
  for (uint64_t seed : {101u, 102u, 103u}) {
    RunDifferential(GetParam(), seed, MatcherConfig{});
  }
}

TEST_P(RetrievalEquivalenceTest, StrictOnlyConfigUsesWandExit) {
  // With stage 3 off, retrieval runs the WAND early-termination walk;
  // the slack accounting must keep it exact.
  MatcherConfig config;
  config.enable_stage3 = false;
  RunDifferential(GetParam(), 104, config);
}

TEST_P(RetrievalEquivalenceTest, AblationsStayEquivalent) {
  {
    MatcherConfig config;  // no positional stage
    config.enable_stage1 = false;
    RunDifferential(GetParam(), 105, config);
  }
  {
    MatcherConfig config;  // uniform weights
    config.use_idf_weighting = false;
    RunDifferential(GetParam(), 106, config);
  }
  {
    MatcherConfig config;  // minimal rear-view window
    config.rear_view_window = 1;
    RunDifferential(GetParam(), 107, config);
  }
  {
    MatcherConfig config;  // theta <= 0 falls back to the sweep
    config.theta3 = 0.0;
    RunDifferential(GetParam(), 108, config);
  }
}

TEST_P(RetrievalEquivalenceTest, ShapePrefilterAgreesAcrossAllEngines) {
  // The shape pre-filter is approximate, but it must be the SAME
  // approximation on the swept, indexed, and legacy paths.
  MatcherConfig config;
  config.enable_shape_prefilter = true;
  RunDifferential(GetParam(), 109, config);

  wikigen::GoldCorpus corpus = SmallCorpus(GetParam(), 110);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    auto slices = eval::SliceType(objects, GetParam());
    MatcherConfig legacy = config;
    legacy.use_flat_kernels = false;
    EXPECT_EQ(RunEngine(slices, GetParam(), config).graph,
              RunEngine(slices, GetParam(), legacy).graph);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, RetrievalEquivalenceTest,
                         ::testing::Values(extract::ObjectType::kTable,
                                           extract::ObjectType::kInfobox,
                                           extract::ObjectType::kList));

TEST(RetrievalLakeTest, IndexedMatchesSweptOnSocrataLake) {
  // Full rear-view windows of large, unordered, token-heavy tables: the
  // regime where every retrieval walk meets long posting lists and every
  // object's window repeats most of its tokens across versions. Twelve
  // snapshots roll each window past the default k = 5 several times.
  archive::SocrataConfig lake;
  lake.subdomains = {"chicago", "utah"};
  lake.datasets_per_subdomain = 8;
  lake.num_snapshots = 12;
  lake.seed = 2026;
  MatcherConfig base;
  base.use_spatial_features = false;
  for (const archive::SocrataContext& context :
       archive::GenerateSocrata(lake)) {
    SCOPED_TRACE(context.subdomain);
    MatcherConfig swept = base;
    swept.enable_retrieval_index = false;
    MatcherConfig indexed = base;
    indexed.enable_retrieval_index = true;
    const Outcome indexed_outcome =
        RunEngine(context.snapshots, extract::ObjectType::kTable, indexed);
    ExpectEquivalent(
        RunEngine(context.snapshots, extract::ObjectType::kTable, swept),
        indexed_outcome);
    EXPECT_GT(indexed_outcome.stats.stage2_matches, 0u);
  }
}

TEST(RetrievalSnapshotTest, RestoredIndexValidatesAndContinuesIdentically) {
  wikigen::GoldCorpus corpus = SmallCorpus(extract::ObjectType::kTable, 111);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    if (objects.size() < 4) continue;
    const size_t split = objects.size() / 2;

    // Uninterrupted run.
    state::PageState full;
    for (size_t r = 0; r < objects.size(); ++r) {
      full.matcher.ProcessRevision(static_cast<int>(r), objects[r]);
    }

    // Run to the split, snapshot, restore, continue.
    state::PageState first;
    first.title = "retrieval snapshot fixture";
    for (size_t r = 0; r < split; ++r) {
      first.matcher.ProcessRevision(static_cast<int>(r), objects[r]);
      first.revisions.push_back(objects[r]);
      first.timestamps.push_back(static_cast<UnixSeconds>(r));
      ++first.revisions_ingested;
    }
    std::ostringstream out;
    ASSERT_TRUE(state::SavePageSnapshot(first, out).ok());
    std::istringstream in(out.str());
    state::PageState resumed;
    ASSERT_TRUE(
        state::LoadPageSnapshot(in, matching::MatcherConfig{}, &resumed)
            .ok());

    // The rebuilt index must agree with the restored windows.
    ValidationReport report;
    resumed.matcher.Validate(&report);
    EXPECT_TRUE(report.ok()) << report.ToString();

    for (size_t r = split; r < objects.size(); ++r) {
      resumed.matcher.ProcessRevision(static_cast<int>(r), objects[r]);
    }
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      EXPECT_EQ(SerializeIdentityGraph(resumed.matcher.GraphFor(type)),
                SerializeIdentityGraph(full.matcher.GraphFor(type)));
    }
  }
}

}  // namespace
}  // namespace somr::matching
