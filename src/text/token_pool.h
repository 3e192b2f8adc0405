#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace somr {

/// Interns token spellings into dense uint32 ids so the similarity
/// kernels can operate on integer-keyed flat vectors instead of hashing
/// strings per lookup. Ids are assigned sequentially from 0 in first-seen
/// order, so a pool that has interned the whole corpus so far is exactly
/// `size()` ids wide — dense per-id side tables (weights, document
/// frequencies) are just vectors indexed by id.
///
/// Lookups go through an open-addressing table of (id, hash tag) slots:
/// power-of-two sized, linear probing, at most half full. The tag filters
/// probe collisions before any spelling is compared, and lets growth
/// rehash without touching the spellings.
///
/// A pool is owned by one matcher (one page's revision stream); it is not
/// thread-safe and ids from different pools are unrelated.
class TokenPool {
 public:
  static constexpr uint32_t kInvalidId = 0xffffffffu;

  TokenPool() = default;
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;
  TokenPool(TokenPool&&) = default;
  TokenPool& operator=(TokenPool&&) = default;

  /// Id of `token`, interning it if new. No allocation on the hit path.
  uint32_t Intern(std::string_view token);

  /// Id of `token` if already interned, kInvalidId otherwise.
  uint32_t Find(std::string_view token) const;

  /// The spelling of an interned id. `id` must be < size().
  const std::string& Spelling(uint32_t id) const { return spellings_[id]; }

  /// Number of distinct tokens interned so far (== smallest unused id).
  uint32_t size() const { return static_cast<uint32_t>(spellings_.size()); }

  bool empty() const { return spellings_.empty(); }

 private:
  struct Slot {
    uint32_t id = kInvalidId;  // kInvalidId marks an empty slot
    uint32_t tag = 0;          // hash of the spelling; low bits pick the slot
  };

  static uint32_t Tag(std::string_view token);
  /// Index of the slot holding `token`, or of the empty slot where it
  /// belongs. `slots_` must be non-empty.
  size_t Probe(std::string_view token, uint32_t tag) const;
  void Grow();

  // A deque keeps spelling addresses stable across growth, so Spelling()
  // references stay valid while the pool keeps interning.
  std::deque<std::string> spellings_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
};

}  // namespace somr
