// Golden equivalence of the interned-token (FlatBag) similarity kernels
// against the string-bag kernels, value for value, and of the production
// matcher against the naive Alg. 1 reference (reference_matcher.h) on
// gold corpora for every focal object type: same identity graph, same
// stage counts, same decisions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/harness.h"
#include "matching/matcher.h"
#include "sim/similarity.h"
#include "text/bag_of_words.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"
#include "wikigen/corpus.h"

#include "reference_matcher.h"

namespace somr::matching {
namespace {

BagOfWords RandomBag(Rng& rng, int tokens, int vocabulary) {
  BagOfWords bag;
  for (int i = 0; i < tokens; ++i) {
    bag.Add("tok" + std::to_string(rng.UniformInt(0, vocabulary - 1)));
  }
  return bag;
}

FlatBag Compile(const BagOfWords& bag, TokenPool& pool) {
  return FlatBag::FromBag(bag, pool);
}

/// The matcher's IOF weights for one step: `previous` registered as the
/// tracked objects' newest bags, `incoming` overlaid.
sim::DenseTokenWeights IofWeights(const std::vector<const FlatBag*>& previous,
                                  const std::vector<const FlatBag*>& incoming,
                                  uint32_t pool_size) {
  sim::DenseTokenWeights weights;
  weights.ResetIncremental(pool_size);
  for (const FlatBag* bag : previous) weights.AddPrevBag(*bag);
  weights.BeginIncrementalStep(incoming, pool_size);
  return weights;
}

TEST(KernelEquivalenceTest, UnweightedKernelsBitIdentical) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    int tokens = 1 + static_cast<int>(rng.UniformInt(0, 80));
    BagOfWords a = RandomBag(rng, tokens, 40);
    BagOfWords b = RandomBag(rng, tokens / 2 + 1, 40);
    TokenPool pool;
    FlatBag fa = Compile(a, pool);
    FlatBag fb = Compile(b, pool);
    // Unit-weight counts sum exactly in doubles, so the merge-join result
    // is bit-identical to the hash-lookup result.
    EXPECT_EQ(sim::Ruzicka(a, b), sim::Ruzicka(fa, fb));
    EXPECT_EQ(sim::Containment(a, b), sim::Containment(fa, fb));
  }
}

TEST(KernelEquivalenceTest, EmptyBagsAgree) {
  BagOfWords empty_bag;
  BagOfWords full_bag;
  full_bag.Add("x");
  TokenPool pool;
  FlatBag fe = Compile(empty_bag, pool);
  FlatBag ff = Compile(full_bag, pool);
  EXPECT_EQ(sim::Ruzicka(empty_bag, empty_bag), sim::Ruzicka(fe, fe));
  EXPECT_EQ(sim::Ruzicka(empty_bag, full_bag), sim::Ruzicka(fe, ff));
  EXPECT_EQ(sim::Containment(empty_bag, full_bag), sim::Containment(fe, ff));
  EXPECT_EQ(sim::Containment(full_bag, empty_bag), sim::Containment(ff, fe));
}

TEST(KernelEquivalenceTest, WeightedKernelsNearIdentical) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    BagOfWords a = RandomBag(rng, 60, 30);
    BagOfWords b = RandomBag(rng, 45, 30);
    BagOfWords c = RandomBag(rng, 30, 30);
    TokenPool pool;
    FlatBag fa = Compile(a, pool);
    FlatBag fb = Compile(b, pool);
    FlatBag fc = Compile(c, pool);
    sim::TokenWeighting weighting =
        sim::TokenWeighting::InverseObjectFrequency({&a, &b}, {&b, &c});
    sim::DenseTokenWeights weights =
        IofWeights({&fa, &fb}, {&fb, &fc}, pool.size());
    // Same weight values; only the summation order differs (id order vs
    // hash order), so allow for reassociation error.
    EXPECT_NEAR(sim::WeightedRuzicka(a, b, weighting),
                sim::WeightedRuzicka(fa, fb, weights), 1e-12);
    EXPECT_NEAR(sim::WeightedContainment(a, c, weighting),
                sim::WeightedContainment(fa, fc, weights), 1e-12);
  }
}

TEST(KernelEquivalenceTest, UpperBoundIsSound) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    BagOfWords a = RandomBag(rng, 1 + static_cast<int>(rng.UniformInt(0, 50)),
                             25);
    BagOfWords b = RandomBag(rng, 1 + static_cast<int>(rng.UniformInt(0, 50)),
                             25);
    TokenPool pool;
    FlatBag fa = Compile(a, pool);
    FlatBag fb = Compile(b, pool);
    sim::DenseTokenWeights weights = IofWeights({&fa}, {&fb}, pool.size());
    double ta = sim::WeightedTotal(fa, weights);
    double tb = sim::WeightedTotal(fb, weights);
    double bound = sim::SimilarityUpperBound(sim::SimilarityKind::kStrict,
                                             fa.empty(), fb.empty(), ta, tb);
    double exact = sim::SimilarityFromTotals(sim::SimilarityKind::kStrict, fa,
                                             fb, weights, ta, tb);
    EXPECT_LE(exact, bound + 1e-12);
  }
}

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

class MatcherEquivalenceTest
    : public ::testing::TestWithParam<extract::ObjectType> {};

TEST_P(MatcherEquivalenceTest, MatchesReferenceOnGoldCorpus) {
  extract::ObjectType focal = GetParam();
  wikigen::GoldCorpus corpus = SmallCorpus(focal, 91);
  xmldump::Dump dump = wikigen::CorpusToDump(corpus);
  for (const xmldump::PageHistory& page : dump.pages) {
    std::vector<extract::PageObjects> objects =
        eval::ExtractRevisionObjects(page);
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      SCOPED_TRACE(page.title + " / " + extract::ObjectTypeName(type));
      ExpectMatchesReference(eval::SliceType(objects, type), type,
                             MatcherConfig{});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, MatcherEquivalenceTest,
                         ::testing::Values(extract::ObjectType::kTable,
                                           extract::ObjectType::kInfobox,
                                           extract::ObjectType::kList));

}  // namespace
}  // namespace somr::matching
