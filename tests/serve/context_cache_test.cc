#include "serve/context_cache.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "state/context_store.h"

namespace somr::serve {
namespace {

class ContextCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-cache-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    store_ = std::make_unique<state::ContextStore>(dir_);
    ASSERT_TRUE(store_->Open(/*create=*/true).ok());
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  std::string dir_;
  std::unique_ptr<state::ContextStore> store_;
};

TEST_F(ContextCacheTest, CreatesFreshContextOnDemand) {
  ContextCache cache(store_.get(), 4);
  StatusOr<core::PageState*> state = cache.GetOrLoad("A", /*create=*/true);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->title, "A");
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_EQ(cache.stats().created, 1u);
}

TEST_F(ContextCacheTest, MissWithoutCreateIsNotFound) {
  ContextCache cache(store_.get(), 4);
  StatusOr<core::PageState*> state =
      cache.GetOrLoad("nope", /*create=*/false);
  EXPECT_EQ(state.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.resident(), 0u);
}

TEST_F(ContextCacheTest, SecondLookupIsAHit) {
  ContextCache cache(store_.get(), 4);
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().created, 1u);
}

TEST_F(ContextCacheTest, EvictionSpillsDirtyStateAndFaultsItBack) {
  ContextCache cache(store_.get(), 1);
  StatusOr<core::PageState*> a = cache.GetOrLoad("A", true);
  ASSERT_TRUE(a.ok());
  (*a)->last_revision_id = 42;
  (*a)->revisions_ingested = 0;
  cache.MarkDirty("A");

  // Loading B evicts A (capacity 1); A is dirty so it must spill.
  ASSERT_TRUE(cache.GetOrLoad("B", true).ok());
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().spills, 1u);
  ASSERT_TRUE(store_->Lookup("A").has_value());

  // Touching A again faults the snapshot back with the mutation intact.
  StatusOr<core::PageState*> again = cache.GetOrLoad("A", false);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->last_revision_id, 42);
  EXPECT_EQ(cache.stats().faults, 1u);
}

// A spill is a committed save: the spilled context is durable before it
// leaves memory, with no checkpoint, so a second store opened on the same
// directory (as after a crash) loads it with its mutation.
TEST_F(ContextCacheTest, SpillIsDurableWithoutCheckpoint) {
  ContextCache cache(store_.get(), 1);
  StatusOr<core::PageState*> a = cache.GetOrLoad("A", true);
  ASSERT_TRUE(a.ok());
  (*a)->last_revision_id = 42;
  cache.MarkDirty("A");
  ASSERT_TRUE(cache.GetOrLoad("B", true).ok());  // spills A
  ASSERT_EQ(cache.stats().spills, 1u);

  state::ContextStore reopened(dir_);
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  StatusOr<core::PageState> loaded = reopened.Load("A");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->last_revision_id, 42);
  EXPECT_FALSE(reopened.Contains("B"));  // resident, never spilled
}

TEST_F(ContextCacheTest, FreshContextSurvivesEvictionWithoutMark) {
  ContextCache cache(store_.get(), 1);
  // Never marked dirty, but never snapshotted either: eviction must
  // still write it, or the context would vanish.
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  ASSERT_TRUE(cache.GetOrLoad("B", true).ok());
  EXPECT_TRUE(store_->Lookup("A").has_value());
  EXPECT_TRUE(cache.GetOrLoad("A", false).ok());
}

TEST_F(ContextCacheTest, LruOrderGovernsEviction) {
  ContextCache cache(store_.get(), 2);
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  ASSERT_TRUE(cache.GetOrLoad("B", true).ok());
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());  // A is now MRU
  ASSERT_TRUE(cache.GetOrLoad("C", true).ok());  // evicts B, not A
  EXPECT_TRUE(store_->Lookup("B").has_value());
  EXPECT_FALSE(store_->Lookup("A").has_value());  // still resident, unsaved
  EXPECT_EQ(cache.resident(), 2u);
}

TEST_F(ContextCacheTest, CheckpointAllSavesDirtyAndClearsFlag) {
  ContextCache cache(store_.get(), 4);
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  ASSERT_TRUE(cache.GetOrLoad("B", true).ok());
  cache.MarkDirty("A");
  cache.MarkDirty("B");
  ASSERT_TRUE(cache.CheckpointAll().ok());
  EXPECT_TRUE(store_->Lookup("A").has_value());
  EXPECT_TRUE(store_->Lookup("B").has_value());
  const uint64_t bytes = store_->Stats().size_bytes;
  // Clean entries are not rewritten by a second checkpoint.
  ASSERT_TRUE(cache.CheckpointAll().ok());
  EXPECT_EQ(store_->Stats().size_bytes, bytes);
}

// The somr_serve_contexts_dirty gauge source: dirty() must track the
// at-risk entry count exactly through a forced capacity-1 create /
// evict-spill / checkpoint / fault cycle.
TEST_F(ContextCacheTest, DirtyCountTracksEvictFaultCheckpointCycle) {
  ContextCache cache(store_.get(), 1);
  EXPECT_EQ(cache.dirty(), 0u);

  // A fresh context is born dirty (no snapshot exists yet); re-marking
  // it must not double count.
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  EXPECT_EQ(cache.dirty(), 1u);
  cache.MarkDirty("A");
  EXPECT_EQ(cache.dirty(), 1u);

  // Loading B evicts A: the spill writes A's snapshot, so only B (fresh,
  // dirty) remains at risk.
  ASSERT_TRUE(cache.GetOrLoad("B", true).ok());
  EXPECT_EQ(cache.stats().spills, 1u);
  EXPECT_EQ(cache.dirty(), 1u);

  // Checkpointing cleans B in place.
  ASSERT_TRUE(cache.CheckpointAll().ok());
  EXPECT_EQ(cache.dirty(), 0u);
  EXPECT_EQ(cache.resident(), 1u);

  // Faulting A back in loads a snapshot: clean on arrival, and evicting
  // the clean B costs no spill.
  ASSERT_TRUE(cache.GetOrLoad("A", false).ok());
  EXPECT_EQ(cache.stats().faults, 1u);
  EXPECT_EQ(cache.stats().spills, 1u);
  EXPECT_EQ(cache.dirty(), 0u);

  // A mutation re-dirties it.
  cache.MarkDirty("A");
  EXPECT_EQ(cache.dirty(), 1u);
}

TEST_F(ContextCacheTest, CapacityClampsToOne) {
  ContextCache cache(store_.get(), 0);
  EXPECT_EQ(cache.capacity(), 1u);
  ASSERT_TRUE(cache.GetOrLoad("A", true).ok());
  EXPECT_EQ(cache.resident(), 1u);
}

}  // namespace
}  // namespace somr::serve
