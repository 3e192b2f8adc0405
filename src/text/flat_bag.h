#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/bag_of_words.h"
#include "text/token_pool.h"

namespace somr {

/// One (token id, count) entry of a FlatBag.
struct FlatEntry {
  uint32_t id = 0;
  double count = 0.0;

  bool operator==(const FlatEntry&) const = default;
};

/// The compiled form of a BagOfWords: entries sorted ascending by
/// interned token id, with the total cached. Intersection-style kernels
/// (SumMin and friends) become branch-predictable merge-joins over two
/// sorted arrays instead of per-token string hash lookups, and per-id
/// side tables (IDF weights) are plain vector indexing.
///
/// A FlatBag is immutable after construction; counts are > 0 and totals
/// match the sum of entry counts exactly (counts come from unit-weight
/// token adds, so sums are exact integer arithmetic in doubles).
class FlatBag {
 public:
  FlatBag() = default;

  /// Compiles `bag`, interning every token into `pool`.
  static FlatBag FromBag(const BagOfWords& bag, TokenPool& pool);

  /// Builds a bag from unit-weight token occurrences (repeats allowed,
  /// any order): sorts (LSD radix over the bytes the largest id uses,
  /// std::sort for short inputs) and run-length encodes. This is the fast
  /// path used by extract::BuildFlatBag.
  static FlatBag FromTokenIds(std::vector<uint32_t> ids);

  /// Rebuilds a bag from previously compiled entries (snapshot restore).
  /// Entries must be strictly ascending by id with positive counts —
  /// exactly what entries() returned when the bag was saved; violations
  /// are rejected as ParseError by the snapshot loader before this runs.
  static FlatBag FromEntries(std::vector<FlatEntry> entries);

  /// Entries in ascending id order.
  const std::vector<FlatEntry>& entries() const { return entries_; }

  /// The token ids alone, ascending, in a contiguous array — the layout
  /// the SIMD galloping intersection kernels (sim/simd_intersect.h) scan
  /// four lanes at a time. Always entries().size() long and equal to the
  /// id column of entries().
  const std::vector<uint32_t>& ids() const { return ids_; }

  /// Sum of all counts (the multiset cardinality).
  double TotalCount() const { return total_; }

  /// Number of distinct tokens.
  size_t DistinctCount() const { return entries_.size(); }

  bool empty() const { return entries_.empty(); }

  /// Count for `id`, 0 if absent (binary search; kernels should
  /// merge-join instead).
  double Count(uint32_t id) const;

  /// Reconstructs the equivalent BagOfWords (tests / debugging).
  BagOfWords ToBag(const TokenPool& pool) const;

  bool operator==(const FlatBag&) const = default;

 private:
  void BuildIdColumn();

  std::vector<FlatEntry> entries_;  // ascending by id
  std::vector<uint32_t> ids_;       // id column of entries_, contiguous
  double total_ = 0.0;
};

}  // namespace somr
