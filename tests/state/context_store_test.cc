#include "state/context_store.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "extract/wikitext_extractor.h"
#include "obs/metrics.h"
#include "state/file_io.h"
#include "wikigen/corpus.h"
#include "xmldump/dump.h"

namespace somr::state {
namespace {

using core::PageState;

// Fresh store directory per test, removed on teardown.
class ContextStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-store-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  PageState MakeState(const std::string& title, int64_t last_rev) {
    PageState state;
    state.title = title;
    state.page_id = 7;
    state.last_revision_id = last_rev;
    state.last_timestamp = 1600000000 + last_rev;
    state.revisions_ingested = static_cast<uint32_t>(last_rev);
    for (int64_t r = 0; r < last_rev; ++r) {
      state.revisions.emplace_back();
      state.timestamps.push_back(1600000000 + r);
    }
    return state;
  }

  // A state with live matcher content, grown revision by revision — what
  // the delta path actually has to reproduce byte-for-byte.
  static xmldump::PageHistory SamplePage() {
    wikigen::CorpusConfig config;
    config.focal_type = extract::ObjectType::kTable;
    config.strata_caps = {3};
    config.pages_per_stratum = 1;
    config.min_revisions = 12;
    config.max_revisions = 18;
    config.seed = 33;
    return wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config))
        .pages[0];
  }

  static void ApplyRevision(PageState& state,
                            const xmldump::Revision& rev) {
    extract::PageObjects objects =
        extract::ExtractFromWikitextSource(rev.text);
    state.matcher.ProcessRevision(
        static_cast<int>(state.revisions_ingested), objects);
    state.revisions.push_back(std::move(objects));
    state.timestamps.push_back(rev.timestamp);
    state.last_revision_id = rev.id;
    state.last_timestamp = rev.timestamp;
    ++state.revisions_ingested;
  }

  static std::string SnapshotBytes(const PageState& state) {
    StatusOr<std::string> record = EncodePageRecord(state, nullptr);
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    return record.ok() ? *record : std::string();
  }

  // The one nonempty record shard file (single-page tests).
  std::string OnlyShardFile() {
    namespace fs = std::filesystem;
    std::string found;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("records-", 0) != 0) continue;
      if (fs::file_size(entry.path()) == 0) continue;
      EXPECT_TRUE(found.empty());
      found = entry.path().string();
    }
    EXPECT_FALSE(found.empty());
    return found;
  }

  std::string dir_;
};

TEST_F(ContextStoreTest, OpenWithoutCreateIsNotFound) {
  ContextStore store(dir_ + "/missing");
  EXPECT_EQ(store.Open(/*create=*/false).code(), StatusCode::kNotFound);
}

TEST_F(ContextStoreTest, CreateThenReopen) {
  {
    ContextStore store(dir_);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    ASSERT_TRUE(store.Save(MakeState("Alpha", 3)).ok());
    ASSERT_TRUE(store.Save(MakeState("Beta", 5)).ok());
  }
  ContextStore reopened(dir_);
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  EXPECT_TRUE(reopened.Contains("Alpha"));
  EXPECT_TRUE(reopened.Contains("Beta"));
  EXPECT_FALSE(reopened.Contains("Gamma"));

  std::vector<ContextStore::PageInfo> pages = reopened.Pages();
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].title, "Alpha");  // sorted by title
  EXPECT_EQ(pages[0].last_revision_id, 3);
  EXPECT_EQ(pages[1].title, "Beta");
  EXPECT_EQ(pages[1].revisions_ingested, 5u);
}

TEST_F(ContextStoreTest, LookupIsIndexProbe) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  EXPECT_FALSE(store.Lookup("Alpha").has_value());

  ASSERT_TRUE(store.Save(MakeState("Alpha", 3)).ok());
  std::optional<ContextStore::PageInfo> info = store.Lookup("Alpha");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->title, "Alpha");
  EXPECT_EQ(info->last_revision_id, 3);
  EXPECT_EQ(info->revisions_ingested, 3u);
  EXPECT_GT(info->chain_bytes, 0u);
  EXPECT_EQ(info->delta_depth, 0u);  // first save is the chain anchor
  EXPECT_FALSE(store.Lookup("Beta").has_value());
}

TEST_F(ContextStoreTest, LoadRestoresSavedState) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  ASSERT_TRUE(store.Save(MakeState("Alpha", 4)).ok());

  StatusOr<PageState> loaded = store.Load("Alpha");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->title, "Alpha");
  EXPECT_EQ(loaded->page_id, 7);
  EXPECT_EQ(loaded->last_revision_id, 4);
  EXPECT_EQ(loaded->revisions.size(), 4u);
}

TEST_F(ContextStoreTest, LoadUnknownPageIsNotFound) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  EXPECT_EQ(store.Load("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(ContextStoreTest, SaveOverwritesAtomically) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  ASSERT_TRUE(store.Save(MakeState("Alpha", 2)).ok());
  ASSERT_TRUE(store.Save(MakeState("Alpha", 9)).ok());
  StatusOr<PageState> loaded = store.Load("Alpha");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->last_revision_id, 9);
  ASSERT_EQ(store.Pages().size(), 1u);
  EXPECT_EQ(store.Pages()[0].last_revision_id, 9);
}

TEST_F(ContextStoreTest, AwkwardTitlesSurviveTheIndex) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  const std::string awkward = "A/B\\C\td\ne \"quoted\" \xc3\xa9";
  ASSERT_TRUE(store.Save(MakeState(awkward, 1)).ok());

  ContextStore reopened(dir_);
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  ASSERT_TRUE(reopened.Contains(awkward));
  StatusOr<PageState> loaded = reopened.Load(awkward);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->title, awkward);
}

TEST_F(ContextStoreTest, RefusesDifferentConfigFingerprint) {
  {
    ContextStore store(dir_);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    ASSERT_TRUE(store.Save(MakeState("Alpha", 1)).ok());
  }
  matching::MatcherConfig other;
  other.theta1 = 0.75;
  ContextStore mismatched(dir_, other);
  EXPECT_EQ(mismatched.Open(/*create=*/false).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ContextStoreTest, CorruptRecordIsCleanError) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  ASSERT_TRUE(store.Save(MakeState("Alpha", 2)).ok());
  // Flip a byte of Alpha's committed record behind the store's back.
  const std::string shard_file = OnlyShardFile();
  const auto size =
      static_cast<std::streamoff>(std::filesystem::file_size(shard_file));
  {
    std::fstream f(shard_file,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(size / 2);
    char byte = 0;
    f.get(byte);
    f.seekp(size / 2);
    f.put(static_cast<char>(byte ^ 0x41));
  }
  StatusOr<PageState> loaded = store.Load("Alpha");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST_F(ContextStoreTest, GarbageIndexIsCleanError) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  std::ofstream(dir_ + "/records.idx", std::ios::trunc) << "not an index\n";
  ContextStore reopened(dir_);
  EXPECT_EQ(reopened.Open(/*create=*/false).code(), StatusCode::kParseError);
}

TEST_F(ContextStoreTest, NoTempFilesLeftBehind) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  ASSERT_TRUE(store.Save(MakeState("Alpha", 3)).ok());
  std::string cmd = "ls '" + dir_ + "' | grep -c '\\.tmp$' > /dev/null";
  EXPECT_NE(std::system(cmd.c_str()), 0);  // grep -c finds none -> exit 1
}

TEST_F(ContextStoreTest, RefusesV1StoreWithMigrationMessage) {
  // v1: one file per page; v2 and v3: record logs of format-v3 and
  // format-v4 snapshots; v4: page rows in manifest.tsv beside
  // records.idx. All must point at the migration, not at a config
  // mismatch or a missing index.
  for (const char* header :
       {"# somr-context-store v1 config=0123456789abcdef\n",
        "# somr-context-store v2 config=0123456789abcdef\n",
        "# somr-context-store v3 config=0123456789abcdef\n",
        "# somr-context-store v4 config=0123456789abcdef base=0\n"}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ + "/manifest.tsv") << header;
    ContextStore store(dir_);
    Status status = store.Open(/*create=*/false);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << header;
    EXPECT_NE(status.ToString().find("re-ingest"), std::string::npos)
        << status.ToString();
  }
}

TEST_F(ContextStoreTest, DeltaChainCadenceReanchors) {
  StoreOptions options;
  options.full_snapshot_every = 3;
  ContextStore store(dir_, {}, options);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());

  xmldump::PageHistory page = SamplePage();
  PageState state;
  state.title = page.title;
  state.page_id = page.page_id;
  // Save after every revision: depths must cycle 0,1,2,0,1,2,...
  const uint32_t expected_cycle[] = {0, 1, 2};
  for (size_t r = 0; r < 7 && r < page.revisions.size(); ++r) {
    ApplyRevision(state, page.revisions[r]);
    ASSERT_TRUE(store.Save(state).ok());
    EXPECT_EQ(store.Lookup(page.title)->delta_depth, expected_cycle[r % 3])
        << "save " << r;
    // Every checkpoint, replayed, is byte-identical to the live state.
    StatusOr<PageState> loaded = store.Load(page.title);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(SnapshotBytes(*loaded), SnapshotBytes(state))
        << "replay diverged at save " << r;
  }
}

TEST_F(ContextStoreTest, DeltaChainSurvivesReopen) {
  StoreOptions options;
  options.full_snapshot_every = 8;
  xmldump::PageHistory page = SamplePage();
  PageState state;
  state.title = page.title;
  state.page_id = page.page_id;
  {
    ContextStore store(dir_, {}, options);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    for (size_t r = 0; r < 5 && r < page.revisions.size(); ++r) {
      ApplyRevision(state, page.revisions[r]);
      ASSERT_TRUE(store.Save(state).ok());
    }
    ASSERT_EQ(store.Lookup(page.title)->delta_depth, 4u);
  }
  ContextStore reopened(dir_, {}, options);
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  EXPECT_EQ(reopened.Lookup(page.title)->delta_depth, 4u);
  StatusOr<PageState> loaded = reopened.Load(page.title);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SnapshotBytes(*loaded), SnapshotBytes(state));

  // A reopened store keeps extending the chain via deltas — the replayed
  // state is a valid delta base. Step timings are wall-clock and differ
  // between the two fresh ProcessRevision calls, so drain the stats from
  // both sides before comparing bytes.
  if (page.revisions.size() > 5) {
    PageState resumed = std::move(*loaded);
    ApplyRevision(resumed, page.revisions[5]);
    ApplyRevision(state, page.revisions[5]);
    ASSERT_TRUE(reopened.Save(resumed).ok());
    EXPECT_EQ(reopened.Lookup(page.title)->delta_depth, 5u);
    StatusOr<PageState> again = reopened.Load(page.title);
    ASSERT_TRUE(again.ok());
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      again->matcher.TakeStats(type);
      state.matcher.TakeStats(type);
    }
    EXPECT_EQ(SnapshotBytes(*again), SnapshotBytes(state));
  }
}

TEST_F(ContextStoreTest, FullSnapshotEveryOneDisablesDeltas) {
  StoreOptions options;
  options.full_snapshot_every = 1;
  ContextStore store(dir_, {}, options);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  for (int64_t rev = 1; rev <= 4; ++rev) {
    ASSERT_TRUE(store.Save(MakeState("Alpha", rev)).ok());
    EXPECT_EQ(store.Lookup("Alpha")->delta_depth, 0u);
  }
}

TEST_F(ContextStoreTest, UncommittedSavesDroppedOnReopen) {
  {
    ContextStore store(dir_);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    ASSERT_TRUE(store.Save(MakeState("Durable", 1)).ok());
    // Appended but never committed — lost in the "crash", like a torn
    // checkpoint.
    ASSERT_TRUE(store.SaveUncommitted(MakeState("Lost", 1)).ok());
  }
  ContextStore reopened(dir_);
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  EXPECT_TRUE(reopened.Contains("Durable"));
  EXPECT_FALSE(reopened.Contains("Lost"));
}

TEST_F(ContextStoreTest, TornShardTailRecoveredOnOpen) {
  {
    ContextStore store(dir_);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    ASSERT_TRUE(store.Save(MakeState("Alpha", 3)).ok());
  }
  {
    // Garbage after the committed prefix: a write torn by power loss.
    std::ofstream out(OnlyShardFile(), std::ios::binary | std::ios::app);
    out << "SRLF partial frame that never finished";
  }
  ContextStore reopened(dir_);
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  StatusOr<PageState> loaded = reopened.Load("Alpha");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->last_revision_id, 3);
  uint64_t recovered = 0;
  for (const ShardStats& s : reopened.Stats().shards) {
    recovered += s.tail_recovered_bytes;
  }
  EXPECT_GT(recovered, 0u);
}

TEST_F(ContextStoreTest, CompactionKeepsStoreBounded) {
  StoreOptions options;
  options.full_snapshot_every = 1;  // every save supersedes the previous
  options.compact_min_bytes = 256;
  options.compact_ratio = 0.5;
  ContextStore store(dir_, {}, options);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());

  // Saves run compaction inline (no executor attached), so after any
  // Save every shard must already be back under the configured ratio.
  for (int round = 0; round < 12; ++round) {
    for (const char* title : {"Alpha", "Beta", "Gamma"}) {
      ASSERT_TRUE(store.Save(MakeState(title, round + 1)).ok());
    }
  }
  ContextStore::StoreStats stats = store.Stats();
  for (const ShardStats& shard : stats.shards) {
    if (shard.size_bytes == 0) continue;
    const bool under_floor =
        shard.superseded_bytes < options.compact_min_bytes;
    const bool under_ratio =
        static_cast<double>(shard.superseded_bytes) <=
        options.compact_ratio * static_cast<double>(shard.size_bytes);
    EXPECT_TRUE(under_floor || under_ratio)
        << "shard " << shard.shard << ": " << shard.superseded_bytes
        << " superseded of " << shard.size_bytes;
  }
  // Data is intact after however many compactions ran.
  for (const char* title : {"Alpha", "Beta", "Gamma"}) {
    StatusOr<PageState> loaded = store.Load(title);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->last_revision_id, 12);
  }
}

TEST_F(ContextStoreTest, StatsJsonHasStoreShape) {
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  ASSERT_TRUE(store.Save(MakeState("Alpha", 2)).ok());
  const std::string json = store.StatsJson();
  EXPECT_NE(json.find("\"shard_count\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"live_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"superseded_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"pending_compactions\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
}

// A one-page commit appends a block to the index instead of rewriting it,
// in four storage calls: the record's pwrite, the shard's fdatasync, the
// block's pwrite and its fdatasync. The store reports the index's base
// and block bytes.
TEST_F(ContextStoreTest, CommitAppendsBlocksAndStatsReportThem) {
  namespace fs = std::filesystem;
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        store.SaveUncommitted(MakeState("Page " + std::to_string(i), 1)).ok());
  }
  ASSERT_TRUE(store.Commit().ok());
  const obs::Counter* rewrites = obs::MetricsRegistry::Global().GetCounter(
      "somr_recordlog_index_rewrites_total", "");
  const uint64_t rewrites_before = rewrites->Value();
  const uint64_t index_before = fs::file_size(dir_ + "/records.idx");
  ArmIoFaults(0);
  const Status saved = store.Save(MakeState("Page 3", 2));
  const uint64_t calls = DisarmIoFaults();
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(rewrites->Value(), rewrites_before);
  EXPECT_GT(fs::file_size(dir_ + "/records.idx"), index_before);

  const ContextStore::StoreStats stats = store.Stats();
  EXPECT_GT(stats.index.block_bytes, 0u);
  EXPECT_EQ(stats.index.base_bytes + stats.index.block_bytes,
            fs::file_size(dir_ + "/records.idx"));
  const std::string json = store.StatsJson();
  EXPECT_NE(json.find("\"index\": {\"base_bytes\": " +
                      std::to_string(stats.index.base_bytes) +
                      ", \"block_bytes\": " +
                      std::to_string(stats.index.block_bytes) + "}"),
            std::string::npos)
      << json;
}

// Satellite of the concurrency story: one thread faulting contexts in
// (serve-style) while compactions rewrite and swap the shard files they
// are reading from. Every fault must see a consistent record chain.
TEST_F(ContextStoreTest, CompactionUnderConcurrentFault) {
  StoreOptions options;
  options.full_snapshot_every = 1;
  options.compact_min_bytes = 256;
  options.shard_count = 2;
  ContextStore store(dir_, {}, options);
  ASSERT_TRUE(store.Open(/*create=*/true).ok());

  const std::vector<std::string> titles = {"P0", "P1", "P2", "P3",
                                           "P4", "P5", "P6", "P7"};
  for (const std::string& title : titles) {
    ASSERT_TRUE(store.Save(MakeState(title, 1)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& title = titles[i++ % titles.size()];
        StatusOr<PageState> loaded = store.Load(title);
        if (!loaded.ok() || loaded->title != title ||
            loaded->last_revision_id < 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Writer: keeps superseding records so Save()'s commit path has to
  // compact (inline — no executor) while the readers fault.
  for (int round = 2; round < 30; ++round) {
    for (const std::string& title : titles) {
      ASSERT_TRUE(store.Save(MakeState(title, round)).ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace somr::state
