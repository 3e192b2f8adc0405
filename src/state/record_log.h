#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "state/index_file.h"

namespace somr::state {

/// What a record holds: a complete serialized context or a delta over
/// the previous record in its chain. The log itself never interprets
/// payloads; the kind decides whether an append starts a chain or
/// extends one, so no chain can begin with a delta.
enum class RecordKind : uint8_t {
  kFull = 1,
  kDelta = 2,
};

/// Location of one record's frame inside a shard file.
struct RecordRef {
  uint32_t shard = 0;
  uint64_t offset = 0;
  uint64_t length = 0;  // whole frame: header + key + payload
  RecordKind kind = RecordKind::kFull;
};

/// One decoded chain entry handed back by ReadChain.
struct ChainRecord {
  RecordKind kind = RecordKind::kFull;
  std::string payload;
};

/// What the log holds for one key without reading its records: the
/// owner's row from the key's last Append, and the chain's shape.
struct ChainEntry {
  std::string key;
  std::string row;
  uint32_t shard = 0;
  uint32_t depth = 0;  // records in the chain; 1 is a lone full record
  uint64_t bytes = 0;  // frame bytes across the chain
};

/// Point-in-time shape of one shard, for status/debug reporting.
struct ShardStats {
  uint32_t shard = 0;
  uint64_t generation = 0;
  uint64_t size_bytes = 0;        // current file size (incl. uncommitted)
  uint64_t live_bytes = 0;        // bytes referenced by some chain
  uint64_t superseded_bytes = 0;  // size - live: reclaimable by compaction
  uint64_t chains = 0;            // keys whose chain lives here
  uint64_t records = 0;           // live records (chain entries)
  uint64_t max_delta_depth = 0;   // most delta records behind one full
  uint64_t compactions = 0;       // completed compaction passes
  int64_t last_compaction_unix = 0;  // 0 = never compacted
  uint64_t tail_recovered_bytes = 0;  // torn/orphan tail dropped at Open
};

/// Sharded append-only record log: the byte store under ContextStore.
///
/// Records are length-prefixed, FNV-1a64-checksummed frames appended
/// sequentially to one of N shard files (a key hashes to a fixed
/// shard). An in-memory chain index maps key -> ordered record refs
/// (one full record, then deltas) plus the owner's one-line row for the
/// key, so a cold fault is O(chain) preads with no directory scan and a
/// key's row and chain always come from the same commit. The index is
/// made durable by Commit(), which fdatasyncs every dirty shard and then
/// appends one block to `records.idx` (an IndexFile): the sizes of the
/// shards that moved and the whole chain row (refs and owner row) of
/// every key appended since the last commit, so a commit costs what
/// changed, not what the store holds. Open() replays the index's base
/// and blocks (a later chain row for a key replaces an earlier one) and
/// recomputes each shard's live bytes from the final chains. The index
/// header carries the owner's config tag; Open() refuses an index
/// written under another. The index is rewritten whole at creation,
/// after a compaction swap, and when its blocks outgrow its base. Bytes
/// appended after the last Commit are recovered or dropped at Open() by
/// a checksum scan of each shard's tail (torn final records are skipped,
/// never fatal).
///
/// Shard files are generation-named (`records-SSSS-gGGGGGG.rec`):
/// compaction writes live records into generation g+1, commits an
/// index referencing it, then unlinks generation g — a crash between
/// any two steps leaves a fully consistent store plus at most one
/// orphan file, which Open() removes.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Reads hold a shared lock across index lookup and frame pread, so a
/// compaction swap (unique lock) can never yank a file out from under
/// a reader. Appends to the same key must be externally serialized
/// (ContextStore guarantees one writer per page).
class RecordLog {
 public:
  struct Options {
    /// Shard files, 1 to kMaxShards (values outside are clamped).
    uint32_t shard_count = 8;
    /// Compaction trigger: superseded bytes must exceed this fraction
    /// of the shard file...
    double compact_ratio = 0.5;
    /// ...and this floor, so small shards are never churned.
    uint64_t compact_min_bytes = 1 << 20;
  };

  /// The most shards an index may declare: each is an open file.
  static constexpr uint32_t kMaxShards = 4096;

  /// `config` is the owner's configuration tag: written into the index
  /// header, and an index that carries another is refused by Open().
  RecordLog(std::string dir, Options options, uint64_t config = 0);
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens (or with `create`, initializes) the log in `dir`. Recovers
  /// each shard's uncommitted tail: complete, checksum-valid frames
  /// past the durable offset are dropped along with torn bytes (they
  /// were never committed, so no chain references them), and stale
  /// generation files from interrupted compactions are removed.
  /// NotFound without `create` when there is no index; InvalidArgument
  /// when the index carries another config tag.
  Status Open(bool create);

  /// Appends one record frame for `key` to its shard and updates the
  /// in-memory chain: a full record starts a new chain (superseding the
  /// key's old records), a delta extends the existing one — Internal
  /// when there is none. `row` is the owner's row for the key, kept
  /// beside the chain and committed with it. Not durable until Commit().
  StatusOr<RecordRef> Append(const std::string& key, RecordKind kind,
                             std::string_view payload, std::string row);

  /// Reads and checksum-verifies every record in `key`'s chain, in
  /// order (full record first). NotFound for unknown keys.
  StatusOr<std::vector<ChainRecord>> ReadChain(const std::string& key) const;

  bool Contains(const std::string& key) const;
  /// The key's row and chain shape, or nullopt for an unknown key.
  std::optional<ChainEntry> Entry(const std::string& key) const;
  /// Every key's entry, sorted by key.
  std::vector<ChainEntry> Entries() const;

  /// Makes every append so far durable: fdatasync dirty shard files,
  /// then append one index block (or rewrite the index, per the
  /// IndexFile rule) and fdatasync it.
  Status Commit();

  /// Shards whose superseded bytes exceed both the ratio and the floor.
  std::vector<uint32_t> ShardsNeedingCompaction() const;

  /// Rewrites `shard`'s live records into a fresh generation file and
  /// atomically swaps it in (commit included). Concurrent readers are
  /// unaffected; concurrent appends land in the new generation via a
  /// catch-up copy. An error before the swap leaves the shard on its old
  /// file; an error in the commit after it leaves the shard reading the
  /// new file and the index rewrite due for the next commit. Returns
  /// false without compacting when another compaction of the same shard
  /// is already running.
  StatusOr<bool> Compact(uint32_t shard);

  std::vector<ShardStats> Shards() const;
  /// Base and block bytes of `records.idx`.
  IndexFileStats IndexStats() const;
  uint32_t shard_count() const;
  const std::string& dir() const { return dir_; }
  const Options& options() const { return options_; }

 private:
  struct Shard {
    int fd = -1;
    uint64_t generation = 1;
    uint64_t size = 0;          // current append offset
    uint64_t durable_size = 0;  // committed (index-covered) prefix
    uint64_t live_bytes = 0;
    uint64_t compactions = 0;
    int64_t last_compaction_unix = 0;
    uint64_t tail_recovered = 0;
    std::atomic_flag compacting = ATOMIC_FLAG_INIT;
  };

  /// A key's record refs, in order, and the owner's row for it.
  struct Chain {
    std::vector<RecordRef> refs;
    std::string row;
  };

  static ChainEntry MakeEntry(const std::string& key, const Chain& chain);
  std::string ShardPath(uint32_t shard, uint64_t generation) const;
  Status OpenShardFile(uint32_t shard, bool truncate) SOMR_REQUIRES(mu_);
  Status RecoverTailLocked(uint32_t shard) SOMR_REQUIRES(mu_);
  Status ApplyIndexRowLocked(const IndexFile::Row& row) SOMR_REQUIRES(mu_);
  Status LoadIndexLocked(const IndexFile::Contents& contents)
      SOMR_REQUIRES(mu_);
  std::string IndexHeaderLocked() const SOMR_REQUIRES(mu_);
  void RenderShardRowLocked(size_t shard, std::string* out) const
      SOMR_REQUIRES(mu_);
  std::string RenderIndexLocked() const SOMR_REQUIRES(mu_);
  Status CommitLocked() SOMR_REQUIRES(mu_);
  void RemoveStaleGenerationsLocked() SOMR_REQUIRES(mu_);

  // Set in the constructor, immutable afterwards (dir()/options() read
  // them without the lock).
  std::string dir_ SOMR_NOT_GUARDED;
  Options options_ SOMR_NOT_GUARDED;
  uint64_t config_ SOMR_NOT_GUARDED;
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ SOMR_GUARDED_BY(mu_);
  std::unordered_map<std::string, Chain> chains_ SOMR_GUARDED_BY(mu_);
  /// Keys appended since the last commit: the chain rows of the next
  /// index block.
  std::unordered_set<std::string> pending_keys_ SOMR_GUARDED_BY(mu_);
  IndexFile index_ SOMR_GUARDED_BY(mu_);
  bool open_ SOMR_GUARDED_BY(mu_) = false;
};

}  // namespace somr::state
