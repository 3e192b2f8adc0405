// Randomized differential test of the retrieval-index candidate
// generation (src/retrieval/): on seeded wikigen corpora, a Socrata data
// lake and a synthetic page built to defeat the totals bound, the
// production matcher must make exactly the decisions of the naive
// all-pairs reference (reference_matcher.h) across every object type and
// config ablation. Also covers snapshot restore (the index is rebuilt,
// the "retrieval_index" validator must pass).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "archive/socrata.h"
#include "common/check.h"
#include "common/rng.h"
#include "eval/harness.h"
#include "matching/graph_io.h"
#include "matching/matcher.h"
#include "state/snapshot.h"
#include "wikigen/corpus.h"

#include "reference_matcher.h"

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

void RunDifferential(extract::ObjectType focal, uint64_t seed,
                     const MatcherConfig& config) {
  wikigen::GoldCorpus corpus = SmallCorpus(focal, seed);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      SCOPED_TRACE(page.title + " / " + extract::ObjectTypeName(type));
      ExpectMatchesReference(eval::SliceType(objects, type), type, config);
    }
  }
}

class RetrievalEquivalenceTest
    : public ::testing::TestWithParam<extract::ObjectType> {};

TEST_P(RetrievalEquivalenceTest, MatchesReferenceOnGoldCorpora) {
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
    MatcherConfig config;  // theta <= 0 sweeps that stage
    config.theta3 = 0.0;
    RunDifferential(GetParam(), 108, config);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, RetrievalEquivalenceTest,
                         ::testing::Values(extract::ObjectType::kTable,
                                           extract::ObjectType::kInfobox,
                                           extract::ObjectType::kList));

TEST(RetrievalLakeTest, MatchesReferenceOnSocrataLake) {
  // Full rear-view windows of large, unordered, token-heavy tables: the
  // regime where every retrieval walk meets long posting lists and every
  // object's window repeats most of its tokens across versions. Twelve
  // snapshots roll each window past the default k = 5 several times.
  archive::SocrataConfig lake;
  lake.subdomains = {"chicago", "utah"};
  lake.datasets_per_subdomain = 8;
  lake.num_snapshots = 12;
  lake.seed = 2026;
  MatcherConfig config;
  config.use_spatial_features = false;
  for (const archive::SocrataContext& context :
       archive::GenerateSocrata(lake)) {
    SCOPED_TRACE(context.subdomain);
    const MatchStats stats = ExpectMatchesReference(
        context.snapshots, extract::ObjectType::kTable, config);
    EXPECT_GT(stats.stage2_matches, 0u);
  }
}

// The synthetic page of bench_retrieval_index at N = 1,000 tracked
// tables: every object has the same weighted total (40 unique tokens, 8
// from a 50-token shared pool, 4 universal), so the totals bound is ~1
// for every pair and only the index's overlap bound can prune. Each
// update rewrites 4 unique tokens of a random source object.
std::vector<std::vector<extract::ObjectInstance>> HostileCorpus(
    size_t objects) {
  Rng rng(20260809 + static_cast<uint64_t>(objects));
  auto make = [&](size_t object, int position) {
    extract::ObjectInstance obj;
    obj.type = extract::ObjectType::kTable;
    obj.position = position;
    obj.schema = {"key", "value"};
    std::vector<std::string> cells;
    for (int j = 0; j < 40; ++j) {
      cells.push_back("u" + std::to_string(object) + "w" + std::to_string(j));
    }
    for (int j = 0; j < 8; ++j) {
      cells.push_back("s" + std::to_string(rng.UniformInt(0, 49)));
    }
    for (int j = 0; j < 4; ++j) cells.push_back("c" + std::to_string(j));
    obj.rows.push_back(std::move(cells));
    return obj;
  };
  std::vector<std::vector<extract::ObjectInstance>> revisions(1);
  for (size_t o = 0; o < objects; ++o) {
    revisions[0].push_back(make(o, static_cast<int>(o)));
  }
  for (int r = 1; r <= 2; ++r) {
    std::vector<extract::ObjectInstance> incoming;
    for (int i = 0; i < 8; ++i) {
      extract::ObjectInstance obj = revisions[0][rng.Index(objects)];
      obj.position = i;
      for (int j = 0; j < 4; ++j) {
        obj.rows[0][static_cast<size_t>(j)] =
            "r" + std::to_string(r) + "n" + std::to_string(j);
      }
      incoming.push_back(std::move(obj));
    }
    revisions.push_back(std::move(incoming));
  }
  return revisions;
}

TEST(RetrievalSyntheticTest, MatchesReferenceOnHostileCorpus) {
  const auto revisions = HostileCorpus(1000);
  const MatchStats stats = ExpectMatchesReference(
      revisions, extract::ObjectType::kTable, MatcherConfig{});
  EXPECT_GT(stats.stage2_matches, 0u);
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
    core::PageState full;
    for (size_t r = 0; r < objects.size(); ++r) {
      full.matcher.ProcessRevision(static_cast<int>(r), objects[r]);
    }

    // Run to the split, snapshot, restore, continue.
    core::PageState first;
    first.title = "retrieval snapshot fixture";
    for (size_t r = 0; r < split; ++r) {
      first.matcher.ProcessRevision(static_cast<int>(r), objects[r]);
      first.revisions.push_back(objects[r]);
      first.timestamps.push_back(static_cast<UnixSeconds>(r));
      ++first.revisions_ingested;
    }
    StatusOr<std::string> record = state::EncodePageRecord(first, nullptr);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    StatusOr<core::PageState> decoded =
        state::DecodePageChain({*record}, matching::MatcherConfig{});
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    core::PageState& resumed = *decoded;

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
