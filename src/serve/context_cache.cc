#include "serve/context_cache.h"

#include <utility>

namespace somr::serve {

ContextCache::ContextCache(state::ContextStore* store, size_t capacity)
    : store_(store), capacity_(capacity < 1 ? 1 : capacity) {}

StatusOr<core::PageState*> ContextCache::GetOrLoad(const std::string& id,
                                                   bool create) {
  auto it = entries_.find(id);
  if (it != entries_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->state;
  }

  core::PageState state(store_->config());
  if (store_->Lookup(id).has_value()) {
    StatusOr<core::PageState> loaded = store_->Load(id);
    if (!loaded.ok()) return loaded.status();
    state = std::move(*loaded);
    ++stats_.faults;
  } else if (create) {
    state.title = id;
    ++stats_.created;
  } else {
    return Status::NotFound("no context \"" + id + "\"");
  }

  lru_.emplace_front(id, std::move(state));
  entries_[id] = lru_.begin();
  // A freshly created context has no snapshot yet; it must survive
  // eviction even if no revision ever arrives.
  lru_.front().dirty = !store_->Lookup(id).has_value();
  if (lru_.front().dirty) ++dirty_;
  SOMR_RETURN_IF_ERROR(EvictToCapacity());
  // Eviction never removes the most-recently-used entry (capacity >= 1).
  return &lru_.front().state;
}

void ContextCache::MarkDirty(const std::string& id) {
  auto it = entries_.find(id);
  if (it != entries_.end() && !it->second->dirty) {
    it->second->dirty = true;
    ++dirty_;
  }
}

Status ContextCache::EvictToCapacity() {
  while (entries_.size() > capacity_) {
    Entry& victim = lru_.back();
    if (victim.dirty) {
      SOMR_RETURN_IF_ERROR(store_->Save(victim.state));
      ++stats_.spills;
      --dirty_;
    }
    ++stats_.evictions;
    entries_.erase(victim.id);
    lru_.pop_back();
  }
  return Status::OK();
}

Status ContextCache::CheckpointAll() {
  // Batch commit: append every dirty context's record first (cheap
  // sequential writes), then pay the commit's fsyncs once. Entries stay
  // dirty until the Commit lands — a failure at any point leaves them
  // flagged for the next checkpoint.
  bool appended = false;
  for (Entry& entry : lru_) {
    if (!entry.dirty) continue;
    SOMR_RETURN_IF_ERROR(store_->SaveUncommitted(entry.state));
    appended = true;
  }
  if (appended) SOMR_RETURN_IF_ERROR(store_->Commit());
  for (Entry& entry : lru_) {
    if (!entry.dirty) continue;
    entry.dirty = false;
    --dirty_;
  }
  return Status::OK();
}

}  // namespace somr::serve
