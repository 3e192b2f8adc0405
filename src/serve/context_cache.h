#pragma once

#include <cstddef>
#include <list>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "state/context_store.h"

namespace somr::serve {

/// Bounded set of resident matcher contexts for one serve shard. Each
/// entry is a live core::PageState (matcher, rear-view windows, graphs,
/// extracted history) keyed by context id (= page title). A context that
/// falls out of the LRU is spilled: saved to the ContextStore when dirty
/// (a committed Save, so it is durable before it leaves memory), then
/// dropped from memory; the next request for it faults the snapshot back
/// in. Capacity therefore bounds resident memory regardless of how many
/// contexts the store holds.
///
/// Not thread-safe by design: every shard worker owns one cache and is
/// the only thread touching it (the server serializes a context's
/// requests onto its shard), which is also what keeps per-context
/// ingestion deterministic.
class ContextCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t faults = 0;     // loaded from a stored snapshot
    uint64_t created = 0;    // fresh contexts never seen before
    uint64_t evictions = 0;  // dropped to stay within capacity
    uint64_t spills = 0;     // evictions that had to write a snapshot
  };

  /// `store` must be Open()ed and outlive the cache. `capacity` is
  /// clamped to >= 1.
  ContextCache(state::ContextStore* store, size_t capacity);

  /// Returns the resident state for `id`, faulting it in from the store
  /// or creating a fresh one (when `create` and the store has never seen
  /// it). Marks the entry most-recently-used and evicts past capacity —
  /// so any returned pointer is only valid until the next GetOrLoad /
  /// Checkpoint call on this cache. NotFound when absent and !create.
  StatusOr<core::PageState*> GetOrLoad(const std::string& id, bool create);

  /// Marks `id`'s resident entry as needing a snapshot write before it
  /// can be dropped. No-op when not resident.
  void MarkDirty(const std::string& id);

  /// Saves every dirty resident context (they stay resident and become
  /// clean). Appends all records first and commits the store once, so a
  /// checkpoint pays one commit's fsyncs regardless of how many contexts
  /// are dirty. The graceful-shutdown and /admin/checkpoint path; on
  /// failure every entry stays dirty for the next attempt.
  Status CheckpointAll();

  size_t resident() const { return entries_.size(); }
  /// Resident contexts holding un-checkpointed changes — the data at
  /// risk in a crash, exported as somr_serve_contexts_dirty.
  size_t dirty() const { return dirty_; }
  size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string id;
    core::PageState state;
    bool dirty = false;

    explicit Entry(std::string id_in, core::PageState state_in)
        : id(std::move(id_in)), state(std::move(state_in)) {}
  };

  /// Drops least-recently-used entries until size <= capacity, spilling
  /// dirty ones. A failed spill aborts the eviction (the entry stays
  /// resident and dirty) so state is never silently lost.
  Status EvictToCapacity();

  state::ContextStore* store_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> entries_;
  Stats stats_;
  size_t dirty_ = 0;  // resident entries with dirty == true
};

}  // namespace somr::serve
