#include "text/flat_bag.h"

#include <algorithm>

namespace somr {
namespace {

/// Below this many ids std::sort beats the radix passes, whose 256-bucket
/// histograms cost the same however few ids they count.
constexpr size_t kRadixSortMinIds = 32;

/// LSD radix sort over the bytes the largest id uses: one stable counting
/// pass per byte, ping-ponging between `ids` and a scratch buffer.
void RadixSort(std::vector<uint32_t>& ids) {
  uint32_t max_id = 0;
  for (const uint32_t id : ids) max_id = std::max(max_id, id);
  std::vector<uint32_t> scratch(ids.size());
  for (uint32_t shift = 0; shift < 32 && (max_id >> shift) != 0;
       shift += 8) {
    size_t offsets[256] = {};
    for (const uint32_t id : ids) ++offsets[(id >> shift) & 0xffu];
    size_t next = 0;
    for (size_t& offset : offsets) {
      const size_t count = offset;
      offset = next;
      next += count;
    }
    for (const uint32_t id : ids) {
      scratch[offsets[(id >> shift) & 0xffu]++] = id;
    }
    ids.swap(scratch);
  }
}

}  // namespace

FlatBag FlatBag::FromBag(const BagOfWords& bag, TokenPool& pool) {
  FlatBag flat;
  flat.entries_.reserve(bag.DistinctCount());
  for (const auto& [token, count] : bag.counts()) {
    flat.entries_.push_back({pool.Intern(token), count});
  }
  std::sort(flat.entries_.begin(), flat.entries_.end(),
            [](const FlatEntry& a, const FlatEntry& b) { return a.id < b.id; });
  // Sum in sorted-id order so every FlatBag with the same content has the
  // same total bit-for-bit, regardless of the source map's hash order.
  for (const FlatEntry& e : flat.entries_) flat.total_ += e.count;
  flat.BuildIdColumn();
  return flat;
}

FlatBag FlatBag::FromTokenIds(std::vector<uint32_t> ids) {
  FlatBag flat;
  if (ids.empty()) return flat;
  if (ids.size() < kRadixSortMinIds) {
    std::sort(ids.begin(), ids.end());
  } else {
    RadixSort(ids);
  }
  flat.entries_.reserve(ids.size());
  size_t run_start = 0;
  for (size_t i = 1; i <= ids.size(); ++i) {
    if (i == ids.size() || ids[i] != ids[run_start]) {
      flat.entries_.push_back(
          {ids[run_start], static_cast<double>(i - run_start)});
      run_start = i;
    }
  }
  flat.total_ = static_cast<double>(ids.size());
  flat.BuildIdColumn();
  return flat;
}

FlatBag FlatBag::FromEntries(std::vector<FlatEntry> entries) {
  FlatBag flat;
  flat.entries_ = std::move(entries);
  // Sum in entry order, matching FromBag/FromTokenIds, so a restored bag
  // equals the saved one bit-for-bit (the totals feed similarity math).
  for (const FlatEntry& e : flat.entries_) flat.total_ += e.count;
  flat.BuildIdColumn();
  return flat;
}

void FlatBag::BuildIdColumn() {
  ids_.reserve(entries_.size());
  for (const FlatEntry& e : entries_) ids_.push_back(e.id);
}

double FlatBag::Count(uint32_t id) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const FlatEntry& e, uint32_t key) { return e.id < key; });
  return it != entries_.end() && it->id == id ? it->count : 0.0;
}

BagOfWords FlatBag::ToBag(const TokenPool& pool) const {
  BagOfWords bag;
  for (const FlatEntry& e : entries_) bag.Add(pool.Spelling(e.id), e.count);
  return bag;
}

}  // namespace somr
