#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/time_util.h"
#include "matching/matcher.h"
#include "state/index_file.h"
#include "state/record_log.h"
#include "state/snapshot.h"

namespace somr::parallel {
class Executor;
}  // namespace somr::parallel

namespace somr::state {

/// Durable directory of per-page matching contexts, backed by a sharded
/// append-only RecordLog. Each page's state lives as a *chain* of
/// records in its shard: one full snapshot followed by delta records
/// (only what changed since the previous record), re-anchored by a
/// fresh full snapshot every `full_snapshot_every` saves. A fault
/// (Load) replays the chain — full snapshot, then each delta — and
/// reconstructs the exact state that was saved, byte-for-byte.
///
/// The log's index, `records.idx`, is the store's only index: each
/// page's chain row carries the page's own row (page id, last revision
/// id and timestamp, revisions ingested) beside its record refs, and its
/// header carries the store-wide config fingerprint. A page's listing
/// and its chain therefore come from one row and one commit. The index
/// is an IndexFile: a base plus one appended, checksummed block per
/// commit, holding only the rows that changed, and rewritten whole when
/// its blocks outgrow its base (see IndexFile).
///
/// Durability: Save() commits immediately, at a cost of O(what changed):
/// the record append, the shard's fdatasync, then one block to the index,
/// fdatasynced. Batch writers (checkpoint fan-outs, dump ingest) should
/// call SaveUncommitted() per page and one Commit() at the end, which
/// pays the fsyncs once per checkpoint instead of once per page. Appends
/// that were never committed are dropped by crash recovery (the
/// previous committed chain stays loadable).
///
/// Compaction: when a shard accumulates superseded bytes past the
/// configured ratio and floor, Commit() schedules a compaction — on
/// the executor from set_executor() when present, inline otherwise —
/// which rewrites live records into a fresh shard generation and swaps
/// it without disturbing concurrent readers.
///
/// Thread safety: all methods are safe to call concurrently, except
/// that saves of the *same* page must be externally serialized (serve
/// shards and the ingest pipeline both guarantee a single writer per
/// page).
struct StoreOptions {
  /// Record-log shards (fixed at store creation; reopening adopts
  /// the on-disk count).
  uint32_t shard_count = 8;
  /// Chain length cap: every Nth save of a page re-anchors its chain
  /// with a full snapshot. 1 disables deltas entirely.
  uint32_t full_snapshot_every = 8;
  /// Compaction triggers, forwarded to the RecordLog: superseded
  /// bytes must exceed `compact_ratio` of the shard file and the
  /// `compact_min_bytes` floor.
  double compact_ratio = 0.5;
  uint64_t compact_min_bytes = 1 << 20;
};

class ContextStore {
 public:
  using StoreOptions = somr::state::StoreOptions;

  struct PageInfo {
    std::string title;
    int64_t page_id = 0;
    int64_t last_revision_id = 0;
    UnixSeconds last_timestamp = 0;
    uint32_t revisions_ingested = 0;
    /// Record-log placement: the shard the chain lives in, how many
    /// delta records follow the full snapshot, and the chain's total
    /// frame bytes (what a fault must read).
    uint32_t shard = 0;
    uint32_t delta_depth = 0;
    uint64_t chain_bytes = 0;
  };

  /// Aggregate store shape for status/debug/flight-recorder reporting.
  struct StoreStats {
    std::vector<ShardStats> shards;
    IndexFileStats index;  // records.idx
    uint64_t contexts = 0;
    uint64_t size_bytes = 0;
    uint64_t live_bytes = 0;
    uint64_t superseded_bytes = 0;
    uint64_t max_delta_depth = 0;
    uint64_t pending_compactions = 0;
  };

  ContextStore(std::string dir, matching::MatcherConfig config = {},
               StoreOptions options = {});
  /// Blocks until in-flight background compactions finish.
  ~ContextStore();

  /// Opens the store and checks every page row once. `create` makes the
  /// directory and an empty record log when absent; without it a missing
  /// `records.idx` is NotFound. An index whose config fingerprint
  /// differs from this store's config is refused with InvalidArgument,
  /// as is a directory holding a `manifest.tsv`: a store written before
  /// the index carried the page rows, refused with its format and a
  /// re-ingest hint.
  Status Open(bool create);

  bool Contains(const std::string& title) const;

  /// O(1) index probe: the page's metadata and record-chain placement
  /// without touching the filesystem, or nullopt when the page has never
  /// been saved.
  std::optional<PageInfo> Lookup(const std::string& title) const;

  /// Every page, sorted by title.
  std::vector<PageInfo> Pages() const;

  /// Replays the page's record chain (full snapshot + deltas) into a
  /// fresh state; NotFound when the page has never been saved,
  /// ParseError/InvalidArgument per DecodePageChain.
  StatusOr<core::PageState> Load(const std::string& title) const;

  /// Persists `state` (as a delta when the chain allows it) and makes
  /// it durable: equivalent to SaveUncommitted() + Commit().
  Status Save(const core::PageState& state);

  /// Appends the page's record without committing the index. Cheap
  /// (sequential write, no fsync); not durable until Commit().
  Status SaveUncommitted(const core::PageState& state);

  /// The durability point: fdatasyncs dirty record shards, then appends
  /// one fdatasynced block to the index (the chain rows of the pages
  /// saved since the last commit); then kicks off any due shard
  /// compactions. Returns only when every save before it is durable.
  Status Commit();

  /// Runs every due compaction inline and returns when the store is
  /// back under its superseded-bytes bounds.
  Status CompactNow();

  /// Background compactions run on `executor` when set. Passing
  /// nullptr detaches: blocks until in-flight jobs finish, after which
  /// compactions run inline on the committing thread.
  void set_executor(parallel::Executor* executor);

  StoreStats Stats() const;
  /// Stats rendered as a JSON object (for /debug/vars and the flight
  /// recorder's storage dump).
  std::string StatsJson() const;

  const matching::MatcherConfig& config() const { return config_; }
  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }

 private:
  Status SaveInternal(const core::PageState& state, bool commit);
  void ScheduleCompactions();
  void WaitForCompactions();

  // Set in the constructor, immutable afterwards (the const accessors
  // above read them without the lock).
  std::string dir_ SOMR_NOT_GUARDED;
  matching::MatcherConfig config_ SOMR_NOT_GUARDED;
  StoreOptions options_ SOMR_NOT_GUARDED;
  // Internally synchronized (every RecordLog method takes its own lock);
  // the only index of the store's pages.
  RecordLog log_ SOMR_NOT_GUARDED;

  mutable std::mutex mu_;
  /// Last-persisted watermark per page: the base the next delta save
  /// is encoded against. Populated by Save() and Load(); a page
  /// without one (cold since Open) gets a full snapshot first.
  mutable std::unordered_map<std::string, SnapshotWatermark> watermarks_
      SOMR_GUARDED_BY(mu_);
  bool open_ SOMR_GUARDED_BY(mu_) = false;

  mutable std::mutex compaction_mu_;
  std::condition_variable compaction_cv_;
  size_t pending_compactions_ SOMR_GUARDED_BY(compaction_mu_) = 0;
  parallel::Executor* executor_ SOMR_GUARDED_BY(compaction_mu_) = nullptr;
};

}  // namespace somr::state
