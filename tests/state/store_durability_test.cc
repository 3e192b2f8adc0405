// Crash and syscall-failure recovery of a ContextStore: a torn or
// corrupt final commit block in either index file, a store written before
// index files had blocks, and a sweep that fails every storage syscall of
// a fixed save/commit/compact sequence in turn.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "state/context_store.h"
#include "state/file_io.h"

namespace somr::state {
namespace {

namespace fs = std::filesystem;
using core::PageState;

// The last revision id each page loads with after a commit; absent
// pages are left out.
using Expected = std::map<std::string, int64_t>;

class StoreDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-durable-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    DisarmIoFaults();
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  static PageState MakeState(const std::string& title, int64_t last_rev) {
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

  static std::string Read(const std::string& path) {
    StatusOr<std::string> content = ReadFileToString(path);
    EXPECT_TRUE(content.ok()) << path;
    return content.ok() ? *content : std::string();
  }

  static void Write(const std::string& path, const std::string& content) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
  }

  // What Load() returns for each page of `names`, by last revision id.
  static Expected Loaded(const ContextStore& store,
                         const std::vector<std::string>& names) {
    Expected out;
    for (const std::string& name : names) {
      if (!store.Contains(name)) continue;
      StatusOr<PageState> state = store.Load(name);
      EXPECT_TRUE(state.ok()) << name << ": " << state.status().ToString();
      out[name] = state.ok() ? state->last_revision_id : -1;
    }
    return out;
  }

  // What the manifest says for each page of `names`.
  static Expected Listed(const ContextStore& store,
                         const std::vector<std::string>& names) {
    Expected out;
    for (const std::string& name : names) {
      std::optional<ContextStore::PageInfo> info = store.Lookup(name);
      if (info.has_value()) out[name] = info->last_revision_id;
    }
    return out;
  }

  std::string dir_;
};

// Truncating either index file anywhere inside its last block, or
// flipping any one byte there, reopens on the previous commit. The index
// is cut as a crash during its append would leave it: the manifest block
// of that commit was never written.
TEST_F(StoreDurabilityTest, LastBlockTornOrFlippedLandsOnPreviousCommit) {
  const std::string pristine = dir_ + "/pristine";
  StoreOptions options;
  options.shard_count = 2;
  std::vector<std::string> names;
  uint64_t index_before = 0, manifest_before = 0;
  {
    ContextStore store(pristine, {}, options);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    for (int i = 0; i < 12; ++i) {
      names.push_back("Page " + std::to_string(i));
      ASSERT_TRUE(store.SaveUncommitted(MakeState(names.back(), 1)).ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    index_before = fs::file_size(pristine + "/records.idx");
    manifest_before = fs::file_size(pristine + "/manifest.tsv");
    names.push_back("New page");
    ASSERT_TRUE(store.SaveUncommitted(MakeState("Page 0", 2)).ok());
    ASSERT_TRUE(store.SaveUncommitted(MakeState("New page", 1)).ok());
    ASSERT_TRUE(store.Commit().ok());
    // The last commit appended a block to each file.
    ContextStore::StoreStats stats = store.Stats();
    ASSERT_EQ(stats.index.base_bytes + stats.index.block_bytes,
              fs::file_size(pristine + "/records.idx"));
    ASSERT_GT(stats.index.block_bytes, 0u);
    ASSERT_GT(stats.manifest.block_bytes, 0u);
  }
  Expected previous;
  for (int i = 0; i < 12; ++i) previous["Page " + std::to_string(i)] = 1;
  const std::string index = Read(pristine + "/records.idx");
  const std::string manifest = Read(pristine + "/manifest.tsv");
  ASSERT_GT(index.size(), index_before);
  ASSERT_GT(manifest.size(), manifest_before);

  struct Case {
    std::string file;        // the file whose last block is damaged
    std::string content;     // its bytes at the last commit
    uint64_t before = 0;     // its size at the previous commit
  };
  const Case cases[] = {{"records.idx", index, index_before},
                        {"manifest.tsv", manifest, manifest_before}};
  int reopened = 0;
  for (const Case& c : cases) {
    for (int flip = 0; flip < 2; ++flip) {
      for (uint64_t at = c.before; at < c.content.size(); ++at) {
        const std::string work = dir_ + "/work";
        fs::remove_all(work);
        fs::copy(pristine, work);
        std::string damaged = c.content;
        if (flip == 1) {
          damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
        } else {
          damaged.resize(at);
        }
        Write(work + "/" + c.file, damaged);
        if (c.file == "records.idx") {
          Write(work + "/manifest.tsv", manifest.substr(0, manifest_before));
        }
        const std::string where =
            c.file + (flip == 1 ? " flip at " : " cut at ") +
            std::to_string(at);

        ContextStore store(work, {}, options);
        Status open = store.Open(/*create=*/false);
        ASSERT_TRUE(open.ok()) << where << ": " << open.ToString();
        EXPECT_EQ(fs::file_size(work + "/" + c.file), c.before) << where;
        EXPECT_EQ(Listed(store, names), previous) << where;
        if (c.file == "records.idx") {
          EXPECT_EQ(Loaded(store, names), previous) << where;
        }
        // Every so often: the recovered store takes the next commit.
        if ((at - c.before) % 16 == 0) {
          ASSERT_TRUE(store.Save(MakeState("Page 3", 5)).ok()) << where;
          ContextStore again(work, {}, options);
          ASSERT_TRUE(again.Open(/*create=*/false).ok()) << where;
          Expected next = previous;
          next["Page 3"] = 5;
          EXPECT_EQ(Listed(again, names), next) << where;
          EXPECT_EQ(Loaded(again, {"Page 3"}).at("Page 3"), 5) << where;
        }
        ++reopened;
      }
    }
  }
  EXPECT_GT(reopened, 100);
}

// A store whose index files hold no blocks, as stores were written before
// commit blocks existed, opens, loads, and takes saves and commits.
TEST_F(StoreDurabilityTest, StoreWithoutBlocksOpensAndCommits) {
  {
    ContextStore store(dir_);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    ASSERT_TRUE(store.SaveUncommitted(MakeState("Alpha", 2)).ok());
    ASSERT_TRUE(store.SaveUncommitted(MakeState("Beta", 3)).ok());
    // Enough pages that the commit's blocks would outgrow the fresh
    // bases, so both files are rewritten whole.
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          store.SaveUncommitted(MakeState("Filler " + std::to_string(i), 1))
              .ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    ContextStore::StoreStats stats = store.Stats();
    ASSERT_EQ(stats.index.block_bytes, 0u);
    ASSERT_EQ(stats.manifest.block_bytes, 0u);
  }
  // Drop the base= field from both headers: the older format.
  for (const char* name : {"/records.idx", "/manifest.tsv"}) {
    std::string content = Read(dir_ + name);
    const size_t eol = content.find('\n');
    const size_t field = content.rfind(" base=", eol);
    ASSERT_NE(field, std::string::npos) << name;
    content.erase(field, eol - field);
    Write(dir_ + name, content);
  }
  {
    ContextStore store(dir_);
    ASSERT_TRUE(store.Open(/*create=*/false).ok());
    EXPECT_EQ(Loaded(store, {"Alpha", "Beta"}),
              (Expected{{"Alpha", 2}, {"Beta", 3}}));
    ASSERT_TRUE(store.Save(MakeState("Alpha", 4)).ok());
    ASSERT_TRUE(store.SaveUncommitted(MakeState("Gamma", 1)).ok());
    ASSERT_TRUE(store.Commit().ok());
  }
  ContextStore store(dir_);
  ASSERT_TRUE(store.Open(/*create=*/false).ok());
  const Expected expected = {{"Alpha", 4}, {"Beta", 3}, {"Gamma", 1}};
  EXPECT_EQ(Loaded(store, {"Alpha", "Beta", "Gamma"}), expected);
  EXPECT_EQ(Listed(store, {"Alpha", "Beta", "Gamma"}), expected);
  EXPECT_NE(Read(dir_ + "/records.idx").find(" base="), std::string::npos);
}

// Fails the Nth storage syscall (pwrite, fdatasync, fsync, rename,
// ftruncate) of save, commit, save, commit + compaction, for every N, then
// reopens from disk: every page must load as of the last commit that
// returned OK or as of the commit that failed, and nothing else.
TEST_F(StoreDurabilityTest, EveryFailedSyscallRecoversToACommit) {
  StoreOptions options;
  options.shard_count = 1;
  options.full_snapshot_every = 1;  // the second save supersedes Alpha 1
  options.compact_ratio = 0.1;
  options.compact_min_bytes = 1;  // so commit 2 compacts the shard
  const std::vector<std::string> names = {"Alpha", "Beta", "Gamma"};
  const Expected commits[] = {
      {},
      {{"Alpha", 1}, {"Beta", 1}},
      {{"Alpha", 2}, {"Beta", 1}, {"Gamma", 1}},
  };
  for (IoFault fault : {IoFault::kError, IoFault::kShortWrite}) {
    uint64_t swept = 0;
    for (uint64_t n = 1;; ++n) {
      const std::string dir = dir_ + "/sweep";
      fs::remove_all(dir);
      int committed = 0;
      bool failed = false;
      uint64_t calls = 0, compactions = 0;
      {
        ContextStore store(dir, {}, options);
        ASSERT_TRUE(store.Open(/*create=*/true).ok());
        ArmIoFaults(n, fault);
        auto ok = [&failed](const Status& status) {
          if (!status.ok()) failed = true;
          return status.ok();
        };
        if (ok(store.SaveUncommitted(MakeState("Alpha", 1))) &&
            ok(store.SaveUncommitted(MakeState("Beta", 1))) &&
            ok(store.Commit())) {
          committed = 1;
          if (ok(store.SaveUncommitted(MakeState("Alpha", 2))) &&
              ok(store.SaveUncommitted(MakeState("Gamma", 1))) &&
              ok(store.Commit())) {
            committed = 2;
            ok(store.CompactNow());
          }
        }
        calls = DisarmIoFaults();
        compactions = store.Stats().shards[0].compactions;
      }
      if (n > calls) {
        ASSERT_FALSE(failed) << "a run with no fault failed";
        EXPECT_GT(compactions, 0u) << "the sequence must compact";
        break;
      }
      ++swept;
      const std::string where = "call " + std::to_string(n) + " of " +
                                std::to_string(calls) +
                                (fault == IoFault::kError ? " (error)"
                                                          : " (short write)");
      ContextStore store(dir, {}, options);
      Status open = store.Open(/*create=*/false);
      ASSERT_TRUE(open.ok()) << where << ": " << open.ToString();
      const Expected loaded = Loaded(store, names);
      const Expected listed = Listed(store, names);
      for (const std::string& name : names) {
        // 0 stands for "absent".
        auto at = [&name](const Expected& pages) {
          auto it = pages.find(name);
          return it == pages.end() ? int64_t{0} : it->second;
        };
        std::set<int64_t> allowed = {at(commits[committed])};
        if (failed && committed < 2) allowed.insert(at(commits[committed + 1]));
        EXPECT_TRUE(allowed.count(at(loaded)))
            << where << ": " << name << " loads as " << at(loaded);
        EXPECT_TRUE(allowed.count(at(listed)))
            << where << ": " << name << " is listed as " << at(listed);
      }
      // The recovered store is writable.
      ASSERT_TRUE(store.Save(MakeState("Delta", 1)).ok()) << where;
    }
    EXPECT_GT(swept, 20u);
  }
}

}  // namespace
}  // namespace somr::state
