#include "state/record_log.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "state/file_io.h"

namespace somr::state {
namespace {

namespace fs = std::filesystem;

class RecordLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-reclog-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    DisarmIoFaults();
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  RecordLog::Options SmallOptions() {
    RecordLog::Options options;
    options.shard_count = 2;
    options.compact_min_bytes = 64;  // let tiny tests trigger compaction
    return options;
  }

  // The single nonempty shard file for single-key tests.
  std::string OnlyShardFile() {
    std::string found;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("records-", 0) != 0) continue;
      if (fs::file_size(entry.path()) == 0) continue;
      EXPECT_TRUE(found.empty()) << "two nonempty shards: " << found
                                 << " and " << name;
      found = entry.path().string();
    }
    EXPECT_FALSE(found.empty());
    return found;
  }

  std::string dir_;
};

TEST_F(RecordLogTest, OpenWithoutCreateIsNotFound) {
  RecordLog log(dir_ + "/missing", SmallOptions());
  EXPECT_EQ(log.Open(/*create=*/false).code(), StatusCode::kNotFound);
}

TEST_F(RecordLogTest, AppendAndReadChain) {
  RecordLog log(dir_, SmallOptions());
  ASSERT_TRUE(log.Open(/*create=*/true).ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kFull, "base", "").ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kDelta, "d1", "").ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kDelta, "d2", "").ok());

  StatusOr<std::vector<ChainRecord>> chain = log.ReadChain("k");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 3u);
  EXPECT_EQ((*chain)[0].kind, RecordKind::kFull);
  EXPECT_EQ((*chain)[0].payload, "base");
  EXPECT_EQ((*chain)[1].payload, "d1");
  EXPECT_EQ((*chain)[2].kind, RecordKind::kDelta);
  EXPECT_EQ((*chain)[2].payload, "d2");
  std::optional<ChainEntry> entry = log.Entry("k");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->depth, 3u);
  EXPECT_GT(entry->bytes, 0u);
  EXPECT_FALSE(log.Entry("other").has_value());
  EXPECT_EQ(log.ReadChain("other").status().code(), StatusCode::kNotFound);
}

TEST_F(RecordLogTest, StartChainSupersedesOldRecords) {
  RecordLog log(dir_, SmallOptions());
  ASSERT_TRUE(log.Open(/*create=*/true).ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kFull, "old", "").ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kDelta, "old-delta", "").ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kFull, "new", "").ok());

  StatusOr<std::vector<ChainRecord>> chain = log.ReadChain("k");
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 1u);
  EXPECT_EQ((*chain)[0].payload, "new");

  // Old frames are still on disk but no longer live.
  std::vector<ShardStats> shards = log.Shards();
  uint64_t superseded = 0;
  for (const ShardStats& s : shards) superseded += s.superseded_bytes;
  EXPECT_GT(superseded, 0u);
}

TEST_F(RecordLogTest, ChainShapeIsEnforced) {
  RecordLog log(dir_, SmallOptions());
  ASSERT_TRUE(log.Open(/*create=*/true).ok());
  // Delta without a chain.
  EXPECT_FALSE(log.Append("k", RecordKind::kDelta, "d", "").ok());
  EXPECT_FALSE(log.Contains("k"));
}

TEST_F(RecordLogTest, CommitThenReopenKeepsChains) {
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    ASSERT_TRUE(log.Append("alpha", RecordKind::kFull, "a-payload", "a 1")
                    .ok());
    ASSERT_TRUE(log.Append("alpha", RecordKind::kDelta, "a-delta", "a 2")
                    .ok());
    ASSERT_TRUE(log.Append("beta", RecordKind::kFull, "b-payload", "b 1")
                    .ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  RecordLog reopened(dir_, SmallOptions());
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  // Each key's row is the one its last append carried.
  const std::vector<ChainEntry> entries = reopened.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "alpha");
  EXPECT_EQ(entries[0].row, "a 2");
  EXPECT_EQ(entries[0].depth, 2u);
  EXPECT_EQ(entries[1].key, "beta");
  EXPECT_EQ(entries[1].row, "b 1");
  StatusOr<std::vector<ChainRecord>> chain = reopened.ReadChain("alpha");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ((*chain)[0].payload, "a-payload");
  EXPECT_EQ((*chain)[1].payload, "a-delta");
  chain = reopened.ReadChain("beta");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ((*chain)[0].payload, "b-payload");
}

TEST_F(RecordLogTest, UncommittedAppendsDroppedOnReopen) {
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    ASSERT_TRUE(log.Append("durable", RecordKind::kFull, "yes", "").ok());
    ASSERT_TRUE(log.Commit().ok());
    // Appended but never committed: must not survive the "crash".
    ASSERT_TRUE(log.Append("lost", RecordKind::kFull, "no", "").ok());
  }
  RecordLog reopened(dir_, SmallOptions());
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  EXPECT_TRUE(reopened.Contains("durable"));
  EXPECT_FALSE(reopened.Contains("lost"));
  uint64_t recovered = 0;
  for (const ShardStats& s : reopened.Shards()) {
    recovered += s.tail_recovered_bytes;
  }
  EXPECT_GT(recovered, 0u);
}

TEST_F(RecordLogTest, TornFinalRecordIsSkippedNotFatal) {
  uint64_t committed_size = 0;
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    ASSERT_TRUE(
        log.Append("k", RecordKind::kFull, "committed payload", "").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  const std::string shard_file = OnlyShardFile();
  committed_size = fs::file_size(shard_file);
  {
    // A torn write: half a frame's worth of garbage at the tail, as if
    // the process died mid-pwrite.
    std::ofstream out(shard_file, std::ios::binary | std::ios::app);
    out << "SRLF\x02torn-partial-garbage";
  }
  RecordLog reopened(dir_, SmallOptions());
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  EXPECT_EQ(fs::file_size(shard_file), committed_size);  // tail truncated
  StatusOr<std::vector<ChainRecord>> chain = reopened.ReadChain("k");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ((*chain)[0].payload, "committed payload");
}

TEST_F(RecordLogTest, CorruptCommittedRecordIsCleanParseError) {
  RecordLog log(dir_, SmallOptions());
  ASSERT_TRUE(log.Open(/*create=*/true).ok());
  ASSERT_TRUE(log.Append("k", RecordKind::kFull,
                         "payload long enough to flip a byte inside", "").ok());
  ASSERT_TRUE(log.Commit().ok());

  const std::string shard_file = OnlyShardFile();
  const uint64_t size = fs::file_size(shard_file);
  {
    std::fstream f(shard_file, std::ios::binary | std::ios::in |
                                   std::ios::out);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.put(static_cast<char>(byte ^ 0x41));
  }
  StatusOr<std::vector<ChainRecord>> chain = log.ReadChain("k");
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kParseError);
}

TEST_F(RecordLogTest, AwkwardKeysSurviveTheIndex) {
  const std::string awkward = "A/B\\C\td\ne \"quoted\" \xc3\xa9";
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    ASSERT_TRUE(
        log.Append(awkward, RecordKind::kFull, "payload", awkward).ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  RecordLog reopened(dir_, SmallOptions());
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  ASSERT_TRUE(reopened.Contains(awkward));
  EXPECT_EQ(reopened.Entry(awkward)->row, awkward);
  StatusOr<std::vector<ChainRecord>> chain = reopened.ReadChain(awkward);
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  EXPECT_EQ((*chain)[0].payload, "payload");
}

TEST_F(RecordLogTest, CompactionReclaimsSupersededBytes) {
  RecordLog log(dir_, SmallOptions());
  ASSERT_TRUE(log.Open(/*create=*/true).ok());
  const std::string big(512, 'x');
  // Rewrite the same keys over and over: all but the last generation of
  // each is superseded.
  for (int round = 0; round < 8; ++round) {
    for (const char* key : {"a", "b", "c", "d"}) {
      ASSERT_TRUE(log.Append(key, RecordKind::kFull,
                             big + key + std::to_string(round), "").ok());
    }
  }
  ASSERT_TRUE(log.Commit().ok());

  std::vector<uint32_t> due = log.ShardsNeedingCompaction();
  ASSERT_FALSE(due.empty());
  for (uint32_t shard : due) {
    StatusOr<bool> ran = log.Compact(shard);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_TRUE(*ran);
  }
  EXPECT_TRUE(log.ShardsNeedingCompaction().empty());

  for (const ShardStats& s : log.Shards()) {
    EXPECT_EQ(s.superseded_bytes, 0u) << "shard " << s.shard;
  }
  // Every live chain still reads back, post-swap.
  for (const char* key : {"a", "b", "c", "d"}) {
    StatusOr<std::vector<ChainRecord>> chain = log.ReadChain(key);
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    ASSERT_EQ(chain->size(), 1u);
    EXPECT_EQ((*chain)[0].payload, big + key + "7");
  }
}

TEST_F(RecordLogTest, CompactionSurvivesReopen) {
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    const std::string big(512, 'y');
    for (int round = 0; round < 6; ++round) {
      for (const char* key : {"a", "b", "c", "d"}) {
        ASSERT_TRUE(log.Append(key, RecordKind::kFull,
                               big + key + std::to_string(round),
                               "round " + std::to_string(round))
                        .ok());
      }
    }
    ASSERT_TRUE(log.Commit().ok());
    for (uint32_t shard : log.ShardsNeedingCompaction()) {
      ASSERT_TRUE(log.Compact(shard).ok());
    }
  }
  RecordLog reopened(dir_, SmallOptions());
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  const std::string big(512, 'y');
  for (const char* key : {"a", "b", "c", "d"}) {
    StatusOr<std::vector<ChainRecord>> chain = reopened.ReadChain(key);
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    EXPECT_EQ((*chain)[0].payload, big + key + "5");
    // The compaction's whole rewrite of the index keeps each key's row.
    EXPECT_EQ(reopened.Entry(key)->row, "round 5");
  }
  // Exactly one generation file per shard: old generations are gone.
  size_t rec_files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("records-", 0) == 0 &&
        name.find(".tmp") == std::string::npos) {
      ++rec_files;
    }
  }
  EXPECT_EQ(rec_files, 2u);
}

TEST_F(RecordLogTest, StaleGenerationFromCrashedCompactionIsRemoved) {
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    ASSERT_TRUE(log.Append("k", RecordKind::kFull, "payload", "").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  // Simulate a crash between writing generation 2 and committing the
  // index that references it.
  const std::string orphan =
      (fs::path(dir_) / "records-0000-g000002.rec").string();
  std::ofstream(orphan, std::ios::binary) << "half-written generation";
  ASSERT_TRUE(fs::exists(orphan));

  RecordLog reopened(dir_, SmallOptions());
  ASSERT_TRUE(reopened.Open(/*create=*/false).ok());
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(reopened.Contains("k"));
}

TEST_F(RecordLogTest, ConcurrentReadsDuringCompaction) {
  RecordLog log(dir_, SmallOptions());
  ASSERT_TRUE(log.Open(/*create=*/true).ok());
  const std::string big(256, 'z');
  const std::vector<std::string> keys = {"r0", "r1", "r2", "r3",
                                         "r4", "r5", "r6", "r7"};
  for (const std::string& key : keys) {
    ASSERT_TRUE(log.Append(key, RecordKind::kFull, big + key, "").ok());
  }
  ASSERT_TRUE(log.Commit().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& key = keys[i++ % keys.size()];
        StatusOr<std::vector<ChainRecord>> chain = log.ReadChain(key);
        if (!chain.ok() || chain->size() != 1 ||
            (*chain)[0].payload != big + key) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Writer churn + repeated compaction swaps while readers hammer.
  for (int round = 0; round < 20; ++round) {
    for (const std::string& key : keys) {
      ASSERT_TRUE(log.Append(key, RecordKind::kFull, big + key, "").ok());
    }
    ASSERT_TRUE(log.Commit().ok());
    for (uint32_t shard : log.ShardsNeedingCompaction()) {
      StatusOr<bool> ran = log.Compact(shard);
      ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Fails each storage call of one compaction in turn: the new generation's
// pwrites, its fdatasync and the index rewrite. Whichever failed, every
// chain still reads its latest record, and after one more delta per key
// and a commit, the reopened log holds that record and the delta.
TEST_F(RecordLogTest, FailedCompactionKeepsEveryChainOnItsLatestRecords) {
  RecordLog::Options options = SmallOptions();
  options.shard_count = 1;
  const std::vector<std::string> keys = {"a", "b", "c", "d"};
  auto full = [](const std::string& key, int round) {
    return std::string(200, 'p') + key + std::to_string(round);
  };
  // A fresh log whose one shard holds three full records per key, the
  // first two superseded.
  const std::string dir = dir_ + "/compact";
  auto populate = [&] {
    fs::remove_all(dir);
    auto log = std::make_unique<RecordLog>(dir, options);
    EXPECT_TRUE(log->Open(/*create=*/true).ok());
    for (int round = 0; round < 3; ++round) {
      for (const std::string& key : keys) {
        EXPECT_TRUE(
            log->Append(key, RecordKind::kFull, full(key, round), "").ok());
      }
    }
    EXPECT_TRUE(log->Commit().ok());
    return log;
  };
  auto expect_latest = [&](const RecordLog& log, bool with_delta,
                           const std::string& where) {
    for (const std::string& key : keys) {
      StatusOr<std::vector<ChainRecord>> chain = log.ReadChain(key);
      ASSERT_TRUE(chain.ok()) << where << ": " << chain.status().ToString();
      ASSERT_EQ(chain->size(), with_delta ? 2u : 1u) << where << ": " << key;
      EXPECT_EQ((*chain)[0].payload, full(key, 2)) << where << ": " << key;
      if (with_delta) {
        EXPECT_EQ((*chain)[1].payload, "delta " + key) << where;
      }
    }
  };

  uint64_t calls = 0;
  {
    std::unique_ptr<RecordLog> log = populate();
    ArmIoFaults(0);
    ASSERT_TRUE(log->Compact(0).ok());
    calls = DisarmIoFaults();
  }
  ASSERT_GT(calls, keys.size());
  for (IoFault fault : {IoFault::kError, IoFault::kShortWrite}) {
    for (uint64_t n = 1; n <= calls; ++n) {
      const std::string where =
          "call " + std::to_string(n) + " of " + std::to_string(calls) +
          (fault == IoFault::kError ? " (error)" : " (short write)");
      {
        std::unique_ptr<RecordLog> log = populate();
        ArmIoFaults(n, fault);
        const bool compacted = log->Compact(0).ok();
        DisarmIoFaults();
        EXPECT_FALSE(compacted) << where;
        expect_latest(*log, /*with_delta=*/false, where);
        for (const std::string& key : keys) {
          ASSERT_TRUE(
              log->Append(key, RecordKind::kDelta, "delta " + key, "").ok())
              << where;
        }
        ASSERT_TRUE(log->Commit().ok()) << where;
        expect_latest(*log, /*with_delta=*/true, where);
      }
      RecordLog reopened(dir, options);
      ASSERT_TRUE(reopened.Open(/*create=*/false).ok()) << where;
      expect_latest(reopened, /*with_delta=*/true, where);
    }
  }
}

// Every number in records.idx is a plain digit run: a sign, a blank or a
// value past its type in any field of a shard row or of a chain ref is a
// ParseError at Open, never a wrapped or trimmed number.
TEST_F(RecordLogTest, IndexNumbersParseStrictly) {
  {
    RecordLog log(dir_, SmallOptions());
    ASSERT_TRUE(log.Open(/*create=*/true).ok());
    ASSERT_TRUE(log.Append("alpha", RecordKind::kFull, "full", "owner").ok());
    ASSERT_TRUE(log.Append("alpha", RecordKind::kDelta, "delta", "owner").ok());
    ASSERT_TRUE(log.Commit().ok());
  }
  // The committed index folded into a base alone: the last shard row of
  // each shard and the chain row.
  const std::string path = dir_ + "/records.idx";
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  header.resize(header.find(" base="));
  std::map<std::string, std::string> last;  // "S\t<shard>" or "C\t<shard>"
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') {
      last[line.substr(0, line.find('\t', 2))] = line;
    }
  }
  std::vector<std::string> rows;
  for (const auto& entry : last) rows.push_back(entry.second);
  const auto open_with = [&](const std::vector<std::string>& index_rows) {
    std::string body;
    for (const std::string& row : index_rows) body += row + "\n";
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << header << " base=" << body.size() << "\n"
        << body;
    RecordLog log(dir_, SmallOptions());
    return log.Open(/*create=*/false);
  };
  ASSERT_TRUE(open_with(rows).ok());

  // Key and owner row carry no digits, so every digit run of a row is one
  // numeric field. The shard field (the first) is a u32; the rest are
  // u64 fields, or the i64 time of the last compaction.
  int mutants = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t b = 0; b < rows[r].size(); ++b) {
      if (!std::isdigit(static_cast<unsigned char>(rows[r][b]))) continue;
      size_t e = b;
      while (e < rows[r].size() &&
             std::isdigit(static_cast<unsigned char>(rows[r][e]))) {
        ++e;
      }
      const std::string digits = rows[r].substr(b, e - b);
      const std::string out_of_range =
          b == 2 ? std::to_string(std::stoull(digits) + (1ull << 32))
                 : "1" + std::string(20, '0');
      for (const std::string& bad :
           {"+" + digits, "-" + digits, " " + digits, digits + " ",
            out_of_range}) {
        std::vector<std::string> mutated = rows;
        mutated[r].replace(b, e - b, bad);
        EXPECT_EQ(open_with(mutated).code(), StatusCode::kParseError)
            << mutated[r];
        ++mutants;
      }
      b = e;
    }
  }
  // Two shard rows of five numbers, a chain row of a shard and two refs.
  EXPECT_EQ(mutants, 5 * (2 * 5 + 1 + 2 * 3));
}

TEST_F(RecordLogTest, EscapeKeyRoundTrips) {
  for (const std::string key :
       {std::string("plain"), std::string("tab\there"),
        std::string("nl\nthere"), std::string("back\\slash"),
        std::string("\t\n\\"), std::string()}) {
    EXPECT_EQ(UnescapeKey(EscapeKey(key)), key);
  }
  // Escaped forms are single-line and tab-free (index file safety).
  EXPECT_EQ(EscapeKey("a\tb\nc").find('\t'), std::string::npos);
  EXPECT_EQ(EscapeKey("a\tb\nc").find('\n'), std::string::npos);
}

}  // namespace
}  // namespace somr::state
