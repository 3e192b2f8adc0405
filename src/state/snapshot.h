#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/page_step.h"
#include "matching/matcher.h"

namespace somr::state {

/// Container constants shared by the snapshot codec and the offline
/// validator (src/state/validate.h). Full records and delta records use
/// the same framing, version and section layouts; only the magic differs.
inline constexpr char kMagic[8] = {'S', 'O', 'M', 'R', 'S', 'N', 'A', 'P'};
inline constexpr char kDeltaMagic[8] = {'S', 'O', 'M', 'R',
                                        'D', 'E', 'L', 'T'};
/// v2: tracked objects carried a shape signature, stats a shape-filter
/// counter. v3: record-log era — a "SOMRDELT" delta can follow a full
/// record in a context chain. v4: tracked objects carry only their
/// interned rear-view window (no string bags, MinHash signature or shape
/// signature) and stats drop the blocked and shape-filtered counters.
/// v5: a full record is the delta from the empty state — both kinds
/// share one MATCHER layout and META carries the base revision count.
/// Older stores migrate by re-ingesting (see DESIGN.md §15).
inline constexpr uint32_t kFormatVersion = 5;

/// Stable 64-bit fingerprint of every matching-relevant config field.
/// Records written under one fingerprint refuse to load under another:
/// resuming a stream with different thresholds/windows would silently
/// produce graphs that match neither run.
uint64_t ConfigFingerprint(const matching::MatcherConfig& config);

/// Per-object-type high-water marks of the monotone matcher structures.
/// Everything a delta needs to know about its base is three counters:
/// the token pool, the identity graph's object list, and the per-step
/// timing vector only ever grow, and a Tracked entry mutates only when
/// its object matches (which stamps `last_revision` past the mark).
struct TypeWatermark {
  uint64_t pool_size = 0;
  uint64_t object_count = 0;
  uint64_t step_count = 0;
};

/// Position of a persisted record in the page's monotone history: the
/// base the next delta is encoded against. The default (all zero) is
/// the empty state, the base of every full record.
struct SnapshotWatermark {
  uint32_t revisions_ingested = 0;
  /// Indexed by extract::ObjectType order: table, infobox, list.
  TypeWatermark types[3];
};

/// Reads the watermark off a live state (what a record of this state
/// would become the base of).
SnapshotWatermark CaptureWatermark(const core::PageState& state);

/// Serializes what changed in `state` since `base` as one record of the
/// page's chain:
///
///   magic | u32 format version | u64 config fingerprint |
///   u32 section count | sections
///
/// where each section is `u32 tag | u64 payload size | u64 FNV-1a64
/// checksum | payload`. The sections hold the appended token-pool
/// spellings, the touched and new tracked objects with their
/// version-chain tails and rear-view window entries, the match-stat
/// scalars plus the step-timing tail, and the new history entries.
/// With a null `base` the record is a full "SOMRSNAP" snapshot — the
/// delta from the empty state — otherwise a "SOMRDELT" delta. Returns
/// InvalidArgument when the state's history length disagrees with its
/// ingested count or `state` is not a descendant of `base` (counts ran
/// backwards); the caller should then write a full record instead.
StatusOr<std::string> EncodePageRecord(const core::PageState& state,
                                       const SnapshotWatermark* base);

/// Rebuilds a page state from its record chain: the full record applied
/// to a fresh state constructed with `config`, then each delta in order,
/// decoded straight from `records`. The derived matcher structures
/// (retrieval index, IOF frequencies) are rebuilt once after the last
/// record, and the result must satisfy the matcher's invariants
/// (PageMatcher::Validate, and every identity graph against the
/// decoded history). Returns ParseError for a corrupt, truncated,
/// misordered or internally inconsistent chain and InvalidArgument when
/// a record's config fingerprint does not match `config` — never
/// crashes. The decoded state re-encodes to the bytes a full record of
/// the saved state has.
StatusOr<core::PageState> DecodePageChain(
    const std::vector<std::string_view>& records,
    const matching::MatcherConfig& config);

}  // namespace somr::state
