#include "text/token_pool.h"

#include <functional>

namespace somr {

uint32_t TokenPool::Tag(std::string_view token) {
  const uint64_t hash = std::hash<std::string_view>{}(token);
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

size_t TokenPool::Probe(std::string_view token, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidId ||
        (slot.tag == tag && spellings_[slot.id] == token)) {
      return i;
    }
  }
}

void TokenPool::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidId) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].id != kInvalidId) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

uint32_t TokenPool::Intern(std::string_view token) {
  if ((spellings_.size() + 1) * 2 > slots_.size()) Grow();
  const uint32_t tag = Tag(token);
  Slot& slot = slots_[Probe(token, tag)];
  if (slot.id == kInvalidId) {
    slot = {static_cast<uint32_t>(spellings_.size()), tag};
    spellings_.emplace_back(token);
  }
  return slot.id;
}

uint32_t TokenPool::Find(std::string_view token) const {
  if (slots_.empty()) return kInvalidId;
  return slots_[Probe(token, Tag(token))].id;
}

}  // namespace somr
