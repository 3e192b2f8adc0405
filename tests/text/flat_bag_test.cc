#include "text/flat_bag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "text/bag_of_words.h"
#include "text/token_pool.h"
#include "text/tokenizer.h"

namespace somr {
namespace {

TEST(TokenPoolTest, InternAssignsSequentialIds) {
  TokenPool pool;
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.Intern("alpha"), 0u);
  EXPECT_EQ(pool.Intern("beta"), 1u);
  EXPECT_EQ(pool.Intern("alpha"), 0u);  // hit returns the same id
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.Spelling(0), "alpha");
  EXPECT_EQ(pool.Spelling(1), "beta");
}

TEST(TokenPoolTest, FindDoesNotIntern) {
  TokenPool pool;
  EXPECT_EQ(pool.Find("missing"), TokenPool::kInvalidId);
  EXPECT_EQ(pool.size(), 0u);
  pool.Intern("present");
  EXPECT_EQ(pool.Find("present"), 0u);
}

TEST(TokenPoolTest, SpellingsStableAcrossGrowth) {
  TokenPool pool;
  const std::string& first = pool.Spelling(pool.Intern("anchor"));
  const char* address = first.data();
  for (int i = 0; i < 1000; ++i) {
    pool.Intern("filler" + std::to_string(i));
  }
  EXPECT_EQ(pool.Spelling(0).data(), address);
  EXPECT_EQ(pool.Find("anchor"), 0u);
}

TEST(TokenPoolTest, MatchesHashMapReferenceAcrossGrowth) {
  // Thousands of distinct spellings push the table through several
  // doublings; every answer must match a plain hash map that assigns ids
  // in first-seen order.
  Rng rng(1511);
  TokenPool pool;
  std::unordered_map<std::string, uint32_t> reference;
  auto random_token = [&rng]() {
    std::string token = "t";
    const int len = static_cast<int>(rng.UniformInt(0, 12));
    for (int i = 0; i < len; ++i) {
      token.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
    }
    return token + std::to_string(rng.UniformInt(0, 6000));
  };
  for (int step = 0; step < 20000; ++step) {
    const std::string token = random_token();
    auto [it, inserted] = reference.emplace(
        token, static_cast<uint32_t>(reference.size()));
    if (inserted && step % 3 == 0) {
      EXPECT_EQ(pool.Find(token), TokenPool::kInvalidId) << token;
    }
    ASSERT_EQ(pool.Intern(token), it->second) << token;
    ASSERT_EQ(pool.size(), reference.size());
  }
  ASSERT_GT(reference.size(), 4096u);  // several table growths
  for (const auto& [token, id] : reference) {
    EXPECT_EQ(pool.Find(token), id) << token;
    EXPECT_EQ(pool.Spelling(id), token);
  }
  EXPECT_EQ(pool.Find("absent-token"), TokenPool::kInvalidId);
  EXPECT_EQ(pool.Find(""), TokenPool::kInvalidId);
  EXPECT_EQ(pool.Intern(""), reference.size());  // the empty spelling too
  EXPECT_EQ(pool.Find(""), reference.size());
}

// Reference compiler for FromTokenIds: std::sort, then run-length encode.
std::vector<FlatEntry> SortAndRunLength(std::vector<uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<FlatEntry> entries;
  for (const uint32_t id : ids) {
    if (!entries.empty() && entries.back().id == id) {
      entries.back().count += 1.0;
    } else {
      entries.push_back({id, 1.0});
    }
  }
  return entries;
}

void ExpectCompilesLikeReference(const std::vector<uint32_t>& ids) {
  const FlatBag flat = FlatBag::FromTokenIds(ids);
  const std::vector<FlatEntry> expected = SortAndRunLength(ids);
  ASSERT_EQ(flat.entries(), expected) << "n=" << ids.size();
  ASSERT_EQ(flat.ids().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(flat.ids()[i], expected[i].id);
  }
  EXPECT_EQ(flat.TotalCount(), static_cast<double>(ids.size()));
}

TEST(FlatBagTest, FromTokenIdsMatchesSortOnRandomMultisets) {
  // Sizes straddle the std::sort / radix cutoff; id ranges make the radix
  // sort run one to four byte passes, with repeats in every range.
  Rng rng(424242);
  const uint32_t max_ids[] = {200u, 60000u, 1u << 20, 1u << 28, 0xfffffffeu};
  const size_t sizes[] = {2, 7, 16, 31, 32, 33, 64, 100, 620, 3000};
  for (const uint32_t max_id : max_ids) {
    for (const size_t n : sizes) {
      for (int trial = 0; trial < 4; ++trial) {
        // A small alphabet forces long runs; a wide one mostly singletons.
        const uint32_t span = trial % 2 == 0 ? 64u : max_id;
        const uint32_t base =
            static_cast<uint32_t>(rng.UniformInt(0, max_id - span));
        std::vector<uint32_t> ids;
        for (size_t i = 0; i < n; ++i) {
          ids.push_back(base +
                        static_cast<uint32_t>(rng.UniformInt(0, span)));
        }
        ExpectCompilesLikeReference(ids);
      }
    }
  }
  // Ids at and just past the byte boundaries, above the cutoff.
  std::vector<uint32_t> boundaries;
  for (const uint32_t id :
       {0u, 255u, 256u, 65535u, 65536u, (1u << 24) - 1, 1u << 24,
        0xfffffffeu}) {
    boundaries.push_back(id);
    boundaries.push_back(id);
    boundaries.push_back(id ^ 1u);
    boundaries.push_back(id / 2);
    boundaries.push_back(id / 3);
  }
  rng.Shuffle(boundaries);
  ExpectCompilesLikeReference(boundaries);
}

TEST(FlatBagTest, FromTokenIdsEmptyAndSingleton) {
  EXPECT_EQ(FlatBag::FromTokenIds({}), FlatBag());
  for (const uint32_t id : {0u, 255u, 256u, 1u << 16, 1u << 24, 0xfffffffeu}) {
    const FlatBag flat = FlatBag::FromTokenIds({id});
    ASSERT_EQ(flat.entries(), (std::vector<FlatEntry>{{id, 1.0}}));
    EXPECT_EQ(flat.ids(), (std::vector<uint32_t>{id}));
    EXPECT_EQ(flat.TotalCount(), 1.0);
  }
  // One id repeated past the cutoff: a single run.
  const FlatBag run = FlatBag::FromTokenIds(std::vector<uint32_t>(100, 70000u));
  EXPECT_EQ(run.entries(), (std::vector<FlatEntry>{{70000u, 100.0}}));
}

TEST(FlatBagTest, FromBagMatchesCountsAndTotal) {
  BagOfWords bag;
  bag.Add("x");
  bag.Add("y");
  bag.Add("x");
  bag.Add("z");
  TokenPool pool;
  FlatBag flat = FlatBag::FromBag(bag, pool);
  EXPECT_EQ(flat.DistinctCount(), 3u);
  EXPECT_DOUBLE_EQ(flat.TotalCount(), 4.0);
  EXPECT_DOUBLE_EQ(flat.Count(pool.Find("x")), 2.0);
  EXPECT_DOUBLE_EQ(flat.Count(pool.Find("y")), 1.0);
  EXPECT_DOUBLE_EQ(flat.Count(pool.Find("z")), 1.0);
  EXPECT_DOUBLE_EQ(flat.Count(999), 0.0);
  // Entries sorted ascending by id.
  for (size_t i = 1; i < flat.entries().size(); ++i) {
    EXPECT_LT(flat.entries()[i - 1].id, flat.entries()[i].id);
  }
}

TEST(FlatBagTest, FromTokenIdsRunLengthEncodes) {
  FlatBag flat = FlatBag::FromTokenIds({5, 2, 5, 5, 2, 9});
  ASSERT_EQ(flat.DistinctCount(), 3u);
  EXPECT_DOUBLE_EQ(flat.Count(2), 2.0);
  EXPECT_DOUBLE_EQ(flat.Count(5), 3.0);
  EXPECT_DOUBLE_EQ(flat.Count(9), 1.0);
  EXPECT_DOUBLE_EQ(flat.TotalCount(), 6.0);
}

TEST(FlatBagTest, RoundTripThroughBag) {
  BagOfWords bag;
  bag.AddTokens({"a", "b", "b", "c", "c", "c"});
  TokenPool pool;
  FlatBag flat = FlatBag::FromBag(bag, pool);
  BagOfWords back = flat.ToBag(pool);
  EXPECT_EQ(back.counts().size(), bag.counts().size());
  for (const auto& [token, count] : bag.counts()) {
    auto it = back.counts().find(token);
    ASSERT_NE(it, back.counts().end()) << token;
    EXPECT_DOUBLE_EQ(it->second, count);
  }
}

TEST(FlatBagTest, EmptyBag) {
  FlatBag flat;
  EXPECT_TRUE(flat.empty());
  EXPECT_DOUBLE_EQ(flat.TotalCount(), 0.0);
  EXPECT_EQ(FlatBag::FromTokenIds({}), flat);
}

TEST(TokenizerSinkTest, MatchesTokenizeTruncated) {
  const std::string_view samples[] = {
      "Hello, World! 42 foo_bar",
      "  leading and trailing  ",
      "",
      "UPPER lower MiXeD 123abc",
      "one-two;three|four",
  };
  for (std::string_view s : samples) {
    for (size_t limit : {size_t{0}, size_t{1}, size_t{3}, size_t{100}}) {
      std::vector<std::string> expected = TokenizeTruncated(s, limit);
      std::vector<std::string> got;
      TokenizeTruncatedTo(s, limit, [&](std::string_view token) {
        got.emplace_back(token);
      });
      EXPECT_EQ(got, expected) << "input=\"" << s << "\" limit=" << limit;
    }
  }
}

}  // namespace
}  // namespace somr
