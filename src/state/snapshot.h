#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "extract/object.h"
#include "matching/matcher.h"

namespace somr::state {

/// The durable per-page matching context: everything needed to resume
/// Algorithm 1 mid-stream and to regenerate every derived output (identity
/// graphs, change cube, classification) without reprocessing history.
///
/// `matcher` carries the live online state (token pool, rear-view FlatBag
/// windows, decay/tie-break bookkeeping, identity graphs, match stats);
/// `revisions`/`timestamps` carry the extracted instance history the
/// change-cube diff needs. Revision bookkeeping identifies what has been
/// ingested so appends can skip already-seen revisions.
struct PageState {
  explicit PageState(matching::MatcherConfig config = {})
      : matcher(config) {}

  std::string title;
  int64_t page_id = 0;
  /// Highest MediaWiki revision id ingested (0 when the feed carries no
  /// ids — then `revisions_ingested` ordinals drive the skip logic).
  int64_t last_revision_id = 0;
  UnixSeconds last_timestamp = 0;
  /// Number of revisions applied to the matcher == the next revision
  /// index (revision indices are global over the page's lifetime).
  uint32_t revisions_ingested = 0;

  matching::PageMatcher matcher;
  std::vector<extract::PageObjects> revisions;
  std::vector<UnixSeconds> timestamps;
};

/// Container constants shared by the snapshot codec and the offline
/// validator (src/state/validate.h). Full snapshots and delta records use
/// the same framing and version; only the magic differs.
inline constexpr char kMagic[8] = {'S', 'O', 'M', 'R', 'S', 'N', 'A', 'P'};
inline constexpr char kDeltaMagic[8] = {'S', 'O', 'M', 'R',
                                        'D', 'E', 'L', 'T'};
/// v2: tracked objects carried a shape signature, stats a shape-filter
/// counter. v3: record-log era — a "SOMRDELT" delta can follow a full
/// record in a context chain. v4: tracked objects carry only their
/// interned rear-view window (no string bags, MinHash signature or shape
/// signature) and stats drop the blocked and shape-filtered counters.
/// Older stores migrate by re-ingesting (see DESIGN.md §15).
inline constexpr uint32_t kFormatVersion = 4;

/// Stable 64-bit fingerprint of every matching-relevant config field.
/// Snapshots written under one fingerprint refuse to load under another:
/// resuming a stream with different thresholds/windows would silently
/// produce graphs that match neither run.
uint64_t ConfigFingerprint(const matching::MatcherConfig& config);

/// Serializes `state` in the versioned binary snapshot format:
///
///   magic "SOMRSNAP" | u32 format version | u64 config fingerprint |
///   u32 section count | sections
///
/// where each section is `u32 tag | u64 payload size | u64 FNV-1a64
/// checksum | payload`. Returns Internal when the stream write fails.
Status SavePageSnapshot(const PageState& state, std::ostream& out);

/// Parses a snapshot written by SavePageSnapshot into `*state`, which
/// must have been constructed with `config`. Returns ParseError for
/// corrupt/truncated input (bad magic, unknown version, checksum or
/// bounds violations) and InvalidArgument when the snapshot's config
/// fingerprint does not match `config` — never crashes, never loads a
/// partial state.
Status LoadPageSnapshot(std::istream& in,
                        const matching::MatcherConfig& config,
                        PageState* state);

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

/// Position of a persisted snapshot in the page's monotone history:
/// the base every subsequent delta is encoded against.
struct SnapshotWatermark {
  uint32_t revisions_ingested = 0;
  /// Indexed by extract::ObjectType order: table, infobox, list.
  TypeWatermark types[3];
};

/// Reads the watermark off a live state (what SavePageSnapshot or
/// SavePageDelta of this state would become the base of).
SnapshotWatermark CaptureWatermark(const PageState& state);

/// Serializes only what changed in `state` since `base`: new token-pool
/// spellings, touched/new tracked objects with their version-chain
/// tails and full rear-view windows, match-stat scalars plus the
/// step-timing tail, and the new history entries. Same container
/// framing as SavePageSnapshot under magic "SOMRDELT". Returns
/// InvalidArgument when `state` is not a descendant of `base` (counts
/// ran backwards) — the caller should write a full snapshot instead.
Status SavePageDelta(const PageState& state, const SnapshotWatermark& base,
                     std::ostream& out);

/// Replays a delta written by SavePageDelta onto `*state`, which must
/// be exactly the base the delta was encoded against (enforced via the
/// encoded base counts; mismatch is ParseError). After a successful
/// apply, `*state` is byte-identical — SavePageSnapshot-equal — to the
/// state the delta was saved from. On error `*state` may be partially
/// mutated and must be discarded.
Status ApplyPageDelta(std::istream& in,
                      const matching::MatcherConfig& config,
                      PageState* state);

}  // namespace somr::state
