// Tests for the incremental inverted index (src/retrieval/): bound
// soundness against a brute-force overlap oracle under randomized window
// churn, stale postings after eviction, per-token window maxima,
// compaction invisibility, WAND early-termination accounting, the window
// validator, and bit-equality of the SIMD galloping intersection backends.

#include "retrieval/candidate_index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/validate.h"
#include "sim/simd_intersect.h"
#include "sim/similarity.h"
#include "text/flat_bag.h"

namespace somr::retrieval {
namespace {

FlatBag MakeBag(std::vector<uint32_t> ids) {
  return FlatBag::FromTokenIds(std::move(ids));
}

// Exact weighted overlap sum_t w_t * min(count_a, count_b).
double Overlap(const FlatBag& a, const FlatBag& b,
               const sim::DenseTokenWeights& weights) {
  return sim::WeightedSumMin(a, b, weights);
}

// Rear-view windows kept the way the matcher keeps them: push the newest
// version, drop the oldest beyond `window`, hand the result to the index.
class Windows {
 public:
  Windows(CandidateIndex* index, size_t window, size_t objects = 0)
      : index_(index), window_(window), windows_(objects) {}

  void Push(uint32_t object, const FlatBag& bag) {
    if (object >= windows_.size()) windows_.resize(object + 1);
    std::deque<FlatBag>& w = windows_[object];
    w.push_back(bag);
    while (w.size() > window_) w.pop_front();
    index_->SetWindow(object, w);
  }

  const std::vector<std::deque<FlatBag>>& windows() const {
    return windows_;
  }

  std::vector<const std::deque<FlatBag>*> Pointers() const {
    std::vector<const std::deque<FlatBag>*> out;
    for (const std::deque<FlatBag>& w : windows_) out.push_back(&w);
    return out;
  }

 private:
  CandidateIndex* index_;
  size_t window_;
  std::vector<std::deque<FlatBag>> windows_;
};

RetrievalResult FullWalk(CandidateIndex& index, const FlatBag& query,
                         const sim::DenseTokenWeights& weights) {
  RetrievalResult result;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), /*theta=*/0.1,
                         /*allow_early_exit=*/false, &result);
  return result;
}

TEST(CandidateIndexTest, RetrievesSharedTokenObjects) {
  CandidateIndex index;
  Windows windows(&index, /*window=*/3);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  windows.Push(0, MakeBag({1, 2, 3}));
  windows.Push(1, MakeBag({7, 8}));
  windows.Push(2, MakeBag({3, 4}));

  RetrievalResult result = FullWalk(index, MakeBag({2, 3, 9}), weights);
  ASSERT_EQ(result.candidates.size(), 2u);
  EXPECT_EQ(result.slack, 0.0);
  EXPECT_EQ(result.candidates[0].object, 0u);
  EXPECT_EQ(result.candidates[1].object, 2u);
  // Object 0 shares {2, 3}, object 2 shares {3}.
  EXPECT_DOUBLE_EQ(result.candidates[0].overlap_bound, 2.0);
  EXPECT_DOUBLE_EQ(result.candidates[1].overlap_bound, 1.0);
}

TEST(CandidateIndexTest, EvictedVersionsStopMatching) {
  CandidateIndex index;
  Windows windows(&index, /*window=*/1);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  windows.Push(0, MakeBag({1, 2}));
  windows.Push(0, MakeBag({5, 6}));  // evicts {1, 2} (window 1)

  EXPECT_TRUE(FullWalk(index, MakeBag({1, 2}), weights).candidates.empty());
}

TEST(CandidateIndexTest, BoundDropsWhenHighCountVersionLeaves) {
  // A posting carries its token's max count over the live window; when
  // the only version holding the high count leaves, the bound falls to
  // the max of the versions that remain.
  CandidateIndex index;
  Windows windows(&index, /*window=*/2);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  const FlatBag query = MakeBag({1, 1, 1, 1});
  windows.Push(0, MakeBag({1, 1, 1, 2}));
  windows.Push(0, MakeBag({1, 3}));
  RetrievalResult result = FullWalk(index, query, weights);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(result.candidates[0].overlap_bound, 3.0);

  windows.Push(0, MakeBag({1, 1, 4}));  // evicts the count-3 version
  result = FullWalk(index, query, weights);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(result.candidates[0].overlap_bound, 2.0);

  ValidationReport report;
  ValidateCandidateIndex(index, windows.Pointers(), &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CandidateIndexTest, ValidEmptyObjectsTracksLiveEmptyVersions) {
  CandidateIndex index;
  Windows windows(&index, /*window=*/2);
  windows.Push(0, MakeBag({1}));
  windows.Push(1, MakeBag({}));  // empty version
  windows.Push(2, MakeBag({2}));
  windows.Push(2, MakeBag({}));

  std::vector<uint32_t> empties;
  index.ValidEmptyObjects(&empties);
  EXPECT_EQ(empties, (std::vector<uint32_t>{1, 2}));

  // Roll object 1's window until the empty version dies.
  windows.Push(1, MakeBag({3}));
  windows.Push(1, MakeBag({4}));
  index.ValidEmptyObjects(&empties);
  EXPECT_EQ(empties, (std::vector<uint32_t>{2}));
}

// Reference: per-object max overlap against every live window version,
// computed from the windows directly.
std::map<uint32_t, double> BruteOverlaps(
    const std::vector<std::deque<FlatBag>>& windows, const FlatBag& query,
    const sim::DenseTokenWeights& weights) {
  std::map<uint32_t, double> best;
  for (size_t o = 0; o < windows.size(); ++o) {
    for (const FlatBag& bag : windows[o]) {
      double ov = Overlap(bag, query, weights);
      if (ov > 0.0) {
        auto [it, inserted] =
            best.emplace(static_cast<uint32_t>(o), ov);
        if (!inserted) it->second = std::max(it->second, ov);
      }
    }
  }
  return best;
}

TEST(CandidateIndexTest, RandomizedBoundsAreSoundUnderChurn) {
  Rng rng(20260809);
  const size_t kObjects = 24;
  CandidateIndex index;
  Windows windows(&index, /*window=*/3, kObjects);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();

  auto random_bag = [&rng]() {
    std::vector<uint32_t> ids;
    const int len = static_cast<int>(rng.UniformInt(0, 18));
    for (int i = 0; i < len; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 60)));
    }
    return MakeBag(std::move(ids));
  };

  // Seed one version per object, then churn for a few hundred pushes.
  for (size_t o = 0; o < kObjects; ++o) {
    windows.Push(static_cast<uint32_t>(o), random_bag());
  }
  for (int step = 0; step < 300; ++step) {
    windows.Push(static_cast<uint32_t>(rng.Index(kObjects)), random_bag());

    if (step % 10 != 0) continue;
    FlatBag query = random_bag();
    if (query.empty()) continue;
    RetrievalResult result;
    index.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                           /*allow_early_exit=*/false, &result);
    EXPECT_EQ(result.slack, 0.0);
    std::map<uint32_t, double> brute =
        BruteOverlaps(windows.windows(), query, weights);
    // Every overlapping object is retrieved with a bound at or above its
    // true max overlap, and nothing else is.
    ASSERT_EQ(result.candidates.size(), brute.size());
    for (const Candidate& c : result.candidates) {
      auto it = brute.find(c.object);
      ASSERT_NE(it, brute.end()) << "phantom candidate " << c.object;
      EXPECT_GE(c.overlap_bound, it->second - 1e-12)
          << "bound below true overlap for object " << c.object;
    }
  }

  // The index still agrees with the windows after all the churn.
  ValidationReport report;
  ValidateCandidateIndex(index, windows.Pointers(), &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CandidateIndexTest, CompactionIsInvisibleToQueries) {
  // Churn one index hard enough to trigger compaction, then compare its
  // retrieval output against a fresh index holding only the live windows.
  CandidateIndex churned;
  Windows windows(&churned, /*window=*/2, /*objects=*/4);
  Rng rng(7);
  for (int step = 0; step < 4000; ++step) {
    std::vector<uint32_t> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 9)));
    }
    windows.Push(static_cast<uint32_t>(rng.Index(4)),
                 MakeBag(std::move(ids)));
  }
  EXPECT_GT(churned.stats().compactions, 0u);

  CandidateIndex fresh;
  for (size_t o = 0; o < windows.windows().size(); ++o) {
    fresh.SetWindow(static_cast<uint32_t>(o), windows.windows()[o]);
  }

  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  for (uint32_t t = 0; t < 10; ++t) {
    FlatBag query = MakeBag({t, t, 9 - t});
    RetrievalResult a, b;
    churned.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                             /*allow_early_exit=*/false, &a);
    fresh.RetrieveOverlaps(query, weights, query.TotalCount(), 0.0,
                           /*allow_early_exit=*/false, &b);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (size_t i = 0; i < a.candidates.size(); ++i) {
      EXPECT_EQ(a.candidates[i].object, b.candidates[i].object);
      // Bit-identical: both walks see the same live postings in the same
      // term order.
      EXPECT_EQ(a.candidates[i].overlap_bound, b.candidates[i].overlap_bound);
    }
  }
}

TEST(CandidateIndexTest, WandEarlyExitSkipsTailAndReportsSlack) {
  // One object overlaps the query only through a low-cap tail term; with
  // a high theta the walk may stop early, but then the skipped mass is
  // surfaced as slack, keeping the bound sound.
  CandidateIndex index;
  Windows windows(&index, /*window=*/2);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  windows.Push(0, MakeBag({1, 1, 1, 2}));
  windows.Push(1, MakeBag({3}));

  FlatBag query = MakeBag({1, 1, 1, 3});
  RetrievalResult eager;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), /*theta=*/0.9,
                         /*allow_early_exit=*/true, &eager);
  RetrievalResult full;
  index.RetrieveOverlaps(query, weights, query.TotalCount(), 0.9,
                         /*allow_early_exit=*/false, &full);
  EXPECT_EQ(full.slack, 0.0);
  // Soundness regardless of whether the exit fired: bound + slack covers
  // the exact overlap of every object the full walk found.
  for (const Candidate& f : full.candidates) {
    double covered = eager.slack;
    for (const Candidate& e : eager.candidates) {
      if (e.object == f.object) covered += e.overlap_bound;
    }
    EXPECT_GE(covered, f.overlap_bound - 1e-12);
  }
  EXPECT_GE(index.stats().wand_skips, 0u);
}

TEST(CandidateIndexTest, ValidatorCatchesWindowDisagreement) {
  CandidateIndex index;
  std::deque<FlatBag> good;
  good.push_back(MakeBag({1, 2}));
  index.SetWindow(0, good);

  // Matching window: clean.
  {
    ValidationReport report;
    std::vector<const std::deque<FlatBag>*> windows{&good};
    ValidateCandidateIndex(index, windows, &report);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
  // Window bag with a different count: flagged.
  std::deque<FlatBag> bad;
  bad.push_back(MakeBag({1, 2, 2}));
  {
    ValidationReport report;
    std::vector<const std::deque<FlatBag>*> windows{&bad};
    ValidateCandidateIndex(index, windows, &report);
    EXPECT_FALSE(report.ok());
  }
  // Missing window entry entirely: flagged.
  std::deque<FlatBag> empty_window;
  {
    ValidationReport report;
    std::vector<const std::deque<FlatBag>*> windows{&empty_window};
    ValidateCandidateIndex(index, windows, &report);
    EXPECT_FALSE(report.ok());
  }
  // Same tokens plus an empty version the index never saw: flagged.
  std::deque<FlatBag> with_empty = good;
  with_empty.push_front(MakeBag({}));
  {
    ValidationReport report;
    std::vector<const std::deque<FlatBag>*> windows{&with_empty};
    ValidateCandidateIndex(index, windows, &report);
    EXPECT_FALSE(report.ok());
  }
}

TEST(CandidateIndexTest, ValidatorIsRegistered) {
  bool found = false;
  for (const ValidatorInfo& info : RegisteredValidators()) {
    if (std::string_view(info.name) == "retrieval_index") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SimdIntersectTest, LowerBoundMatchesStdLowerBound) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint32_t> ids;
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    uint32_t v = 0;
    for (int i = 0; i < len; ++i) {
      v += static_cast<uint32_t>(rng.UniformInt(1, 5));
      ids.push_back(v);
    }
    const uint32_t needle = static_cast<uint32_t>(rng.UniformInt(0, 80));
    const size_t from = ids.empty() ? 0 : rng.Index(ids.size() + 1);
    const size_t expected = static_cast<size_t>(
        std::lower_bound(ids.begin() + static_cast<ptrdiff_t>(from),
                         ids.end(), needle) -
        ids.begin());
    EXPECT_EQ(sim::SimdLowerBound(ids.data(), from, ids.size(), needle),
              expected)
        << "len=" << len << " from=" << from << " needle=" << needle;
  }
}

TEST(SimdIntersectTest, BackendsAreBitIdentical) {
  const sim::SimdBackend active = sim::ActiveSimdBackend();
  Rng rng(4242);
  sim::DenseTokenWeights weights;
  weights.BuildUniform();
  for (int trial = 0; trial < 50; ++trial) {
    // Small vs large bag so the galloping path engages.
    std::vector<uint32_t> small_ids, large_ids;
    for (int i = 0; i < 5; ++i) {
      small_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 400)));
    }
    for (int i = 0; i < 200; ++i) {
      large_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 400)));
    }
    FlatBag small_bag = MakeBag(std::move(small_ids));
    FlatBag large_bag = MakeBag(std::move(large_ids));

    ASSERT_TRUE(sim::ForceSimdBackend(sim::SimdBackend::kScalar));
    const double scalar_sum = sim::SumMin(small_bag, large_bag);
    const double scalar_wsum =
        sim::WeightedSumMin(small_bag, large_bag, weights);
    ASSERT_TRUE(sim::ForceSimdBackend(active));
    EXPECT_EQ(sim::SumMin(small_bag, large_bag), scalar_sum);
    EXPECT_EQ(sim::WeightedSumMin(small_bag, large_bag, weights),
              scalar_wsum);
  }
}

TEST(SimdIntersectTest, GallopMatchesMergeJoin) {
  // The galloping path (asymmetric sizes) and the plain merge (similar
  // sizes) must agree bit for bit: compare SumMin of a pair against the
  // same multiset overlap computed through Ruzicka's identity.
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint32_t> a_ids, b_ids;
    for (int i = 0; i < 4; ++i) {
      a_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 100)));
    }
    for (int i = 0; i < 120; ++i) {
      b_ids.push_back(static_cast<uint32_t>(rng.UniformInt(0, 100)));
    }
    FlatBag a = MakeBag(a_ids);
    FlatBag b = MakeBag(b_ids);
    // Brute-force overlap over the union of ids.
    double expected = 0.0;
    for (const FlatEntry& e : a.entries()) {
      expected += std::min(e.count, b.Count(e.id));
    }
    EXPECT_DOUBLE_EQ(sim::SumMin(a, b), expected);
    EXPECT_EQ(sim::SumMin(a, b), sim::SumMin(b, a));  // symmetric
  }
}

}  // namespace
}  // namespace somr::retrieval
