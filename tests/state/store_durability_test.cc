// Crash, syscall-failure and corruption recovery of a ContextStore: a
// torn or corrupt final commit block of the index, a sweep that fails
// every storage syscall of a fixed save/commit/compact sequence in turn,
// and seeded mutants of the whole index.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
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

  // What the index lists for each page of `names`.
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

// Truncating the index anywhere inside its last block, or flipping any
// one byte there, reopens on the previous commit.
TEST_F(StoreDurabilityTest, LastBlockTornOrFlippedLandsOnPreviousCommit) {
  const std::string pristine = dir_ + "/pristine";
  StoreOptions options;
  options.shard_count = 2;
  std::vector<std::string> names;
  uint64_t before = 0;
  {
    ContextStore store(pristine, {}, options);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    for (int i = 0; i < 12; ++i) {
      names.push_back("Page " + std::to_string(i));
      ASSERT_TRUE(store.SaveUncommitted(MakeState(names.back(), 1)).ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    before = fs::file_size(pristine + "/records.idx");
    names.push_back("New page");
    ASSERT_TRUE(store.SaveUncommitted(MakeState("Page 0", 2)).ok());
    ASSERT_TRUE(store.SaveUncommitted(MakeState("New page", 1)).ok());
    ASSERT_TRUE(store.Commit().ok());
    // The last commit appended a block.
    ContextStore::StoreStats stats = store.Stats();
    ASSERT_EQ(stats.index.base_bytes + stats.index.block_bytes,
              fs::file_size(pristine + "/records.idx"));
    ASSERT_GT(stats.index.block_bytes, 0u);
  }
  Expected previous;
  for (int i = 0; i < 12; ++i) previous["Page " + std::to_string(i)] = 1;
  const std::string index = Read(pristine + "/records.idx");
  ASSERT_GT(index.size(), before);

  int reopened = 0;
  for (int flip = 0; flip < 2; ++flip) {
    for (uint64_t at = before; at < index.size(); ++at) {
      const std::string work = dir_ + "/work";
      fs::remove_all(work);
      fs::copy(pristine, work);
      std::string damaged = index;
      if (flip == 1) {
        damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
      } else {
        damaged.resize(at);
      }
      Write(work + "/records.idx", damaged);
      const std::string where =
          (flip == 1 ? "flip at " : "cut at ") + std::to_string(at);

      ContextStore store(work, {}, options);
      Status open = store.Open(/*create=*/false);
      ASSERT_TRUE(open.ok()) << where << ": " << open.ToString();
      EXPECT_EQ(fs::file_size(work + "/records.idx"), before) << where;
      EXPECT_EQ(Listed(store, names), previous) << where;
      EXPECT_EQ(Loaded(store, names), previous) << where;
      // Every so often: the recovered store takes the next commit.
      if ((at - before) % 16 == 0) {
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
  EXPECT_GT(reopened, 100);
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
      // A page's listing and its chain come from one index row.
      EXPECT_EQ(listed, loaded) << where;
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
    // Every call of the sequence: two record pwrites, the shard's
    // fdatasync and an index rewrite (pwrite, fsync, rename, directory
    // fsync); two record pwrites, the fdatasync and an index block
    // (pwrite, fdatasync); then the compaction's three record pwrites,
    // the new generation's one fdatasync and an index rewrite.
    EXPECT_EQ(swept, 20u);
  }
}

// records.idx split into its parts: the header line without its base=
// field, the base rows, and each block's rows.
struct IndexParts {
  std::string header;
  std::vector<std::string> rows;  // [0] is the base, then each block
};

IndexParts SplitIndex(const std::string& data) {
  IndexParts parts;
  size_t eol = data.find('\n');
  const std::string header = data.substr(0, eol);
  const size_t field = header.rfind(" base=");
  parts.header = header.substr(0, field);
  size_t at = eol + 1;
  const size_t base = std::stoul(header.substr(field + 6));
  parts.rows.push_back(data.substr(at, base));
  at += base;
  while (at < data.size()) {
    eol = data.find('\n', at);
    const std::string tag = data.substr(at, eol - at);  // "#block L sum"
    const size_t length = std::stoul(tag.substr(7, tag.rfind(' ') - 7));
    parts.rows.push_back(data.substr(eol + 1, length));
    at = eol + 1 + length;
  }
  return parts;
}

// The file for `parts`, with each part's length and checksum recomputed.
std::string JoinIndex(const IndexParts& parts) {
  std::string out = parts.header + " base=" +
                    std::to_string(parts.rows[0].size()) + "\n" +
                    parts.rows[0];
  for (size_t i = 1; i < parts.rows.size(); ++i) {
    char checksum[17];
    std::snprintf(checksum, sizeof checksum, "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(parts.rows[i])));
    out += "#block " + std::to_string(parts.rows[i].size()) + " " +
           checksum + "\n" + parts.rows[i];
  }
  return out;
}

// One seeded mutation of `text`: a bit flip, a truncation, a splice of
// another stretch of it, or a digit run inflated past any plausible
// count, offset or id.
void Mutate(std::string& text, Rng& rng) {
  if (text.empty()) return;
  switch (rng.Index(4)) {
    case 0: {
      const size_t at = rng.Index(text.size());
      text[at] = static_cast<char>(text[at] ^ (1 << rng.Index(8)));
      break;
    }
    case 1:
      text.resize(rng.Index(text.size()));
      break;
    case 2: {
      const size_t from = rng.Index(text.size());
      const size_t len =
          1 + rng.Index(std::min<size_t>(32, text.size() - from));
      const std::string stretch = text.substr(from, len);
      text.replace(rng.Index(text.size()), rng.Index(33), stretch);
      break;
    }
    default: {
      std::vector<std::pair<size_t, size_t>> runs;  // (begin, length)
      for (size_t i = 0; i < text.size();) {
        size_t j = i;
        while (j < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[j]))) {
          ++j;
        }
        if (j > i) runs.emplace_back(i, j - i);
        i = j + 1;
      }
      if (runs.empty()) return;
      const auto [begin, length] = runs[rng.Index(runs.size())];
      const char* inflated[] = {"4294967296", "9223372036854775807",
                                "18446744073709551615",
                                "99999999999999999999999999"};
      text.replace(begin, length, inflated[rng.Index(4)]);
      break;
    }
  }
}

// A chain row copied under another title points at the same records as
// the original. Open refuses the index and names both keys, instead of
// counting those bytes as live twice.
TEST_F(StoreDurabilityTest, CopiedChainRowIsRefused) {
  const std::string dir = dir_ + "/store";
  StoreOptions options;
  options.shard_count = 2;
  {
    ContextStore store(dir, {}, options);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          store.SaveUncommitted(MakeState("Page " + std::to_string(i), 1))
              .ok());
    }
    ASSERT_TRUE(store.Commit().ok());
  }
  // The chain row of "Page 1" (the key is its last field) appended again
  // under a new key, in a resealed block.
  IndexParts parts = SplitIndex(Read(dir + "/records.idx"));
  std::string& block = parts.rows.back();
  const size_t key_at = block.find("\tPage 1\n") + 1;
  const size_t row_at = block.rfind('\n', key_at) + 1;
  ASSERT_EQ(block.compare(row_at, 2, "C\t"), 0) << block;
  block += block.substr(row_at, key_at - row_at) + "Copied page\n";
  Write(dir + "/records.idx", JoinIndex(parts));

  ContextStore store(dir, {}, options);
  const Status status = store.Open(/*create=*/false);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.ToString().find("\"Page 1\""), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("\"Copied page\""), std::string::npos)
      << status.ToString();
}

// Seeded mutants of a 30-page store's index, in its base and in its
// blocks: resealed ones (lengths and checksums recomputed, so only the
// row parsers stand between a mutant and an open store) and raw ones
// (the framing is left to catch them). Each mutant either fails to open,
// or opens a store where every listed page loads or returns an error.
TEST_F(StoreDurabilityTest, IndexMutantsFailToOpenOrLoadOrError) {
  constexpr int kMutants = 900;
  const std::string pristine = dir_ + "/pristine";
  StoreOptions options;
  options.shard_count = 3;
  {
    ContextStore store(pristine, {}, options);
    ASSERT_TRUE(store.Open(/*create=*/true).ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          store.SaveUncommitted(MakeState("Page " + std::to_string(i), 1))
              .ok());
    }
    ASSERT_TRUE(store.Commit().ok());
    // Three blocks: saves of a few pages, the last re-saved twice, so
    // deltas ride along.
    for (int commit = 0; commit < 3; ++commit) {
      for (int i = commit; i < 30; i += 7) {
        ASSERT_TRUE(store.SaveUncommitted(
                             MakeState("Page " + std::to_string(i),
                                       2 + commit))
                        .ok());
      }
      ASSERT_TRUE(store.Commit().ok());
    }
  }
  const std::string index = Read(pristine + "/records.idx");
  const IndexParts parts = SplitIndex(index);
  ASSERT_EQ(JoinIndex(parts), index);
  ASSERT_EQ(parts.rows.size(), 4u);
  // Where each part ends in the file, framing line included: the header
  // line and the base rows, then each block's tag line and rows.
  std::vector<size_t> bounds = {0};
  size_t end = index.find('\n') + 1 + parts.rows[0].size();
  bounds.push_back(end);
  for (size_t p = 1; p < parts.rows.size(); ++p) {
    end = index.find('\n', end) + 1 + parts.rows[p].size();
    bounds.push_back(end);
  }
  ASSERT_EQ(bounds.back(), index.size());

  Rng rng(20261020);
  const auto started = std::chrono::steady_clock::now();
  int opened = 0, refused = 0, loaded = 0, load_errors = 0;
  for (int i = 0; i < kMutants; ++i) {
    const size_t part = rng.Index(parts.rows.size());
    std::string mutant;
    if (rng.Bernoulli(0.75)) {
      IndexParts mutated = parts;
      Mutate(mutated.rows[part], rng);
      mutant = JoinIndex(mutated);
    } else {
      std::string text =
          index.substr(bounds[part], bounds[part + 1] - bounds[part]);
      Mutate(text, rng);
      mutant = index.substr(0, bounds[part]) + text +
               index.substr(bounds[part + 1]);
    }
    const std::string work = dir_ + "/work";
    fs::remove_all(work);
    fs::copy(pristine, work);
    Write(work + "/records.idx", mutant);

    ContextStore store(work, {}, options);
    if (!store.Open(/*create=*/false).ok()) {
      ++refused;
      continue;
    }
    ++opened;
    for (const ShardStats& shard : store.Stats().shards) {
      EXPECT_LE(shard.live_bytes, shard.size_bytes)
          << "mutant " << i << ", shard " << shard.shard;
    }
    for (const ContextStore::PageInfo& page : store.Pages()) {
      ASSERT_TRUE(store.Lookup(page.title).has_value()) << "mutant " << i;
      StatusOr<PageState> state = store.Load(page.title);
      if (state.ok()) {
        ++loaded;
        EXPECT_EQ(state->title, page.title) << "mutant " << i;
      } else {
        ++load_errors;
      }
    }
  }
  EXPECT_GT(opened, 0);
  EXPECT_GT(refused, 0);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  std::printf("%d mutants: %d refused, %d opened (%d loads, %d load errors), "
              "%.2f s\n",
              kMutants, refused, opened, loaded, load_errors, seconds);
}

}  // namespace
}  // namespace somr::state
