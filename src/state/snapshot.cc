#include "state/snapshot.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "matching/validate.h"
#include "obs/trace.h"
#include "state/serde.h"

namespace somr::state {

namespace {

// Section tags. Unknown tags are skipped on load (additive evolution
// within one format version); missing required sections are an error.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionMatcher = 2;
constexpr uint32_t kSectionHistory = 3;

// u32 tag | u64 payload size | u64 checksum.
constexpr size_t kSectionHeaderBytes = 4 + 8 + 8;

constexpr extract::ObjectType kObjectTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

void AppendStringVec(const std::vector<std::string>& values, ByteWriter& w) {
  w.U64(values.size());
  for (const std::string& v : values) w.Str(v);
}

Status ReadStringVec(ByteReader& r, std::vector<std::string>* out) {
  uint64_t count = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&count, 8));  // 8 = length prefix
  out->clear();
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string s;
    SOMR_RETURN_IF_ERROR(r.Str(&s));
    out->push_back(std::move(s));
  }
  return Status::OK();
}

void AppendInstance(const extract::ObjectInstance& obj, ByteWriter& w) {
  w.U8(static_cast<uint8_t>(obj.type));
  w.U32(static_cast<uint32_t>(obj.position));
  AppendStringVec(obj.section_path, w);
  w.Str(obj.caption);
  w.U64(obj.rows.size());
  for (const std::vector<std::string>& row : obj.rows) {
    AppendStringVec(row, w);
  }
  AppendStringVec(obj.schema, w);
}

Status ReadInstance(ByteReader& r, extract::ObjectInstance* obj) {
  uint8_t type = 0;
  SOMR_RETURN_IF_ERROR(r.U8(&type));
  if (type > static_cast<uint8_t>(extract::ObjectType::kList)) {
    return Status::ParseError("snapshot corrupt: bad object type " +
                              std::to_string(type));
  }
  obj->type = static_cast<extract::ObjectType>(type);
  uint32_t position = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&position));
  obj->position = static_cast<int>(position);
  SOMR_RETURN_IF_ERROR(ReadStringVec(r, &obj->section_path));
  SOMR_RETURN_IF_ERROR(r.Str(&obj->caption));
  uint64_t row_count = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&row_count, 8));
  obj->rows.clear();
  obj->rows.resize(static_cast<size_t>(row_count));
  for (uint64_t i = 0; i < row_count; ++i) {
    SOMR_RETURN_IF_ERROR(ReadStringVec(r, &obj->rows[i]));
  }
  return ReadStringVec(r, &obj->schema);
}

void AppendFlatBag(const FlatBag& bag, ByteWriter& w) {
  w.U64(bag.entries().size());
  for (const FlatEntry& e : bag.entries()) {
    w.U32(e.id);
    w.F64(e.count);
  }
}

/// Reads one rear-view window bag; its token ids must name spellings of
/// a pool that holds `pool_size` of them.
Status ReadFlatBag(ByteReader& r, uint64_t pool_size, FlatBag* bag) {
  uint64_t count = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&count, 12));
  std::vector<FlatEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    FlatEntry e;
    SOMR_RETURN_IF_ERROR(r.U32(&e.id));
    SOMR_RETURN_IF_ERROR(r.F64(&e.count));
    if (i > 0 && e.id <= entries.back().id) {
      return Status::ParseError(
          "snapshot corrupt: flat bag ids not strictly ascending");
    }
    if (e.id >= pool_size) {
      return Status::ParseError(
          "snapshot corrupt: flat bag id outside token pool");
    }
    // Window bags count token occurrences: whole numbers from 1 up,
    // small enough that weighted totals stay finite and exact.
    if (!(e.count >= 1.0 && e.count <= 0x1p53) ||
        e.count != std::floor(e.count)) {
      return Status::ParseError(
          "snapshot corrupt: flat bag count is not an occurrence count");
    }
    entries.push_back(e);
  }
  *bag = FlatBag::FromEntries(std::move(entries));
  return Status::OK();
}

}  // namespace

/// Friend of TemporalMatcher/PageMatcher: encodes what changed in the
/// online matching state since a watermark — everything, from the empty
/// watermark — and replays such records bit-for-bit.
class MatcherSerde {
 public:
  static void Capture(const matching::PageMatcher& matcher,
                      SnapshotWatermark* mark) {
    mark->types[0] = CaptureOne(matcher.tables_);
    mark->types[1] = CaptureOne(matcher.infoboxes_);
    mark->types[2] = CaptureOne(matcher.lists_);
  }

  static Status AppendDelta(const matching::PageMatcher& matcher,
                            const SnapshotWatermark& base, ByteWriter& w) {
    SOMR_RETURN_IF_ERROR(
        AppendOneDelta(matcher.tables_, base.types[0],
                       base.revisions_ingested, w));
    SOMR_RETURN_IF_ERROR(
        AppendOneDelta(matcher.infoboxes_, base.types[1],
                       base.revisions_ingested, w));
    return AppendOneDelta(matcher.lists_, base.types[2],
                          base.revisions_ingested, w);
  }

  static Status RestoreDelta(ByteReader& r,
                             matching::PageMatcher& matcher) {
    SOMR_RETURN_IF_ERROR(RestoreOneDelta(r, matcher.tables_));
    SOMR_RETURN_IF_ERROR(RestoreOneDelta(r, matcher.infoboxes_));
    return RestoreOneDelta(r, matcher.lists_);
  }

  /// Derived structures (retrieval index, incremental IOF document
  /// frequencies) are never serialized: rebuild them once the whole
  /// chain is restored — the rebuilt index retrieves identically by
  /// construction.
  static void RebuildDerivedState(matching::PageMatcher& matcher) {
    matcher.tables_.RebuildDerivedState();
    matcher.infoboxes_.RebuildDerivedState();
    matcher.lists_.RebuildDerivedState();
  }

 private:
  static TypeWatermark CaptureOne(const matching::TemporalMatcher& m) {
    TypeWatermark mark;
    mark.pool_size = m.pool_.size();
    mark.object_count = m.tracked_.size();
    mark.step_count = m.stats_.step_millis.size();
    return mark;
  }

  /// Whole payload of a *new* object: tie-break bookkeeping and its
  /// entire rear-view window.
  static void AppendTrackedPayload(
      const matching::TemporalMatcher::Tracked& t, ByteWriter& w) {
    w.U32(static_cast<uint32_t>(t.last_position));
    w.U32(static_cast<uint32_t>(t.first_revision));
    w.U32(static_cast<uint32_t>(t.last_revision));
    w.U64(t.recent_flat.size());
    for (const FlatBag& bag : t.recent_flat) AppendFlatBag(bag, w);
  }

  static Status ReadTrackedPayload(ByteReader& r, uint64_t pool_size,
                                   matching::TemporalMatcher::Tracked* t) {
    uint32_t last_position = 0, first_revision = 0, last_revision = 0;
    SOMR_RETURN_IF_ERROR(r.U32(&last_position));
    SOMR_RETURN_IF_ERROR(r.U32(&first_revision));
    SOMR_RETURN_IF_ERROR(r.U32(&last_revision));
    t->last_position = static_cast<int>(last_position);
    t->first_revision = static_cast<int>(first_revision);
    t->last_revision = static_cast<int>(last_revision);

    uint64_t flat_count = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&flat_count, 8));
    t->recent_flat.clear();
    for (uint64_t b = 0; b < flat_count; ++b) {
      FlatBag bag;
      SOMR_RETURN_IF_ERROR(ReadFlatBag(r, pool_size, &bag));
      t->recent_flat.push_back(std::move(bag));
    }
    return Status::OK();
  }

  /// Payload tail for an *existing* touched object. The rear-view
  /// windows are append-one-per-matched-version then trim-front (see
  /// TemporalMatcher::ProcessRevision), so only the entries appended
  /// since the base — exactly `tail_count`, the object's version-chain
  /// tail — plus the final window length need to travel; the applier
  /// replays the append/evict against the base window it already holds.
  static void AppendTrackedPayloadTail(
      const matching::TemporalMatcher::Tracked& t, uint64_t tail_count,
      ByteWriter& w) {
    w.U32(static_cast<uint32_t>(t.last_position));
    w.U32(static_cast<uint32_t>(t.first_revision));
    w.U32(static_cast<uint32_t>(t.last_revision));

    const uint64_t flat_sent =
        std::min<uint64_t>(tail_count, t.recent_flat.size());
    w.U64(t.recent_flat.size());
    w.U64(flat_sent);
    for (size_t i = t.recent_flat.size() - static_cast<size_t>(flat_sent);
         i < t.recent_flat.size(); ++i) {
      AppendFlatBag(t.recent_flat[i], w);
    }
  }

  static Status ReadTrackedPayloadTail(
      ByteReader& r, uint64_t pool_size, uint64_t tail_count,
      matching::TemporalMatcher::Tracked* t) {
    uint32_t last_position = 0, first_revision = 0, last_revision = 0;
    SOMR_RETURN_IF_ERROR(r.U32(&last_position));
    SOMR_RETURN_IF_ERROR(r.U32(&first_revision));
    SOMR_RETURN_IF_ERROR(r.U32(&last_revision));
    t->last_position = static_cast<int>(last_position);
    t->first_revision = static_cast<int>(first_revision);
    t->last_revision = static_cast<int>(last_revision);

    uint64_t flat_final = 0, flat_sent = 0;
    SOMR_RETURN_IF_ERROR(r.U64(&flat_final));
    SOMR_RETURN_IF_ERROR(r.Count(&flat_sent, 8));
    if (flat_sent != std::min(tail_count, flat_final)) {
      return Status::ParseError("delta corrupt: flat window tail count");
    }
    if (t->recent_flat.size() + flat_sent < flat_final) {
      return Status::ParseError(
          "delta corrupt: flat window longer than base plus its tail");
    }
    for (uint64_t b = 0; b < flat_sent; ++b) {
      FlatBag bag;
      SOMR_RETURN_IF_ERROR(ReadFlatBag(r, pool_size, &bag));
      t->recent_flat.push_back(std::move(bag));
    }
    while (t->recent_flat.size() > flat_final) t->recent_flat.pop_front();
    return Status::OK();
  }

  /// Everything in a TemporalMatcher that changed since `base`: the
  /// watermark counters make the touched set derivable — a Tracked
  /// entry mutates only when its object matches a revision, which
  /// stamps `last_revision` at or past the base revision count, and
  /// pool/objects/steps only grow. From the empty watermark every
  /// object is new, which makes this the full encoding too.
  static Status AppendOneDelta(const matching::TemporalMatcher& m,
                               const TypeWatermark& base,
                               uint32_t base_revisions, ByteWriter& w) {
    if (m.pool_.size() < base.pool_size ||
        m.tracked_.size() < base.object_count ||
        m.stats_.step_millis.size() < base.step_count) {
      return Status::InvalidArgument(
          "delta base is not an ancestor of this state");
    }
    w.U8(static_cast<uint8_t>(m.type_));

    w.U64(base.pool_size);
    w.U64(m.pool_.size() - base.pool_size);
    for (uint32_t id = static_cast<uint32_t>(base.pool_size);
         id < m.pool_.size(); ++id) {
      w.Str(m.pool_.Spelling(id));
    }

    w.U64(base.object_count);
    w.U64(base.step_count);

    auto touched = [&](size_t i) {
      return i >= base.object_count ||
             m.tracked_[i].last_revision >= static_cast<int>(base_revisions);
    };
    uint64_t touched_count = 0;
    for (size_t i = 0; i < m.tracked_.size(); ++i) {
      if (touched(i)) ++touched_count;
    }
    const auto& objects = m.graph_.objects();
    w.U64(touched_count);
    for (size_t i = 0; i < m.tracked_.size(); ++i) {
      if (!touched(i)) continue;
      const auto& t = m.tracked_[i];
      const bool is_new = i >= base.object_count;
      w.I64(t.id);
      w.U8(is_new ? 1 : 0);
      // Version-chain tail: a new object ships its whole chain, an
      // existing one only the refs appended since the base revision —
      // a suffix, since chains are revision-ascending.
      const std::vector<matching::VersionRef>& versions =
          objects[i].versions;
      size_t first = is_new ? 0 : versions.size();
      while (first > 0 && versions[first - 1].revision >=
                              static_cast<int>(base_revisions)) {
        --first;
      }
      w.U64(versions.size() - first);
      for (size_t v = first; v < versions.size(); ++v) {
        w.U32(static_cast<uint32_t>(versions[v].revision));
        w.U32(static_cast<uint32_t>(versions[v].position));
      }
      // A new object ships its whole payload; an existing one only the
      // window entries its version tail appended.
      if (is_new) {
        AppendTrackedPayload(t, w);
      } else {
        AppendTrackedPayloadTail(t, versions.size() - first, w);
      }
    }

    // Stat scalars are cheap and mutate every step: always replaced.
    w.U64(m.stats_.similarities_computed);
    w.U64(m.stats_.stage1_matches);
    w.U64(m.stats_.stage2_matches);
    w.U64(m.stats_.stage3_matches);
    w.U64(m.stats_.new_objects);
    w.U64(m.stats_.pairs_pruned);
    w.U64(m.stats_.step_millis.size() - base.step_count);
    for (size_t i = static_cast<size_t>(base.step_count);
         i < m.stats_.step_millis.size(); ++i) {
      w.F64(m.stats_.step_millis[i]);
    }
    return Status::OK();
  }

  /// Replays one AppendOneDelta payload onto `m`, which must hold
  /// exactly the record's base (enforced via the encoded base counts).
  /// Leaves the derived structures stale: see RebuildDerivedState.
  static Status RestoreOneDelta(ByteReader& r,
                                matching::TemporalMatcher& m) {
    uint8_t type = 0;
    SOMR_RETURN_IF_ERROR(r.U8(&type));
    if (type != static_cast<uint8_t>(m.type_)) {
      return Status::ParseError("snapshot corrupt: matcher type mismatch");
    }

    uint64_t base_pool = 0;
    SOMR_RETURN_IF_ERROR(r.U64(&base_pool));
    if (base_pool != m.pool_.size()) {
      return Status::ParseError(
          "delta base mismatch: token pool has " +
          std::to_string(m.pool_.size()) + " spellings, delta expects " +
          std::to_string(base_pool));
    }
    uint64_t new_spellings = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&new_spellings, 8));
    for (uint64_t i = 0; i < new_spellings; ++i) {
      std::string_view spelling;
      SOMR_RETURN_IF_ERROR(r.StrView(&spelling));
      if (m.pool_.Intern(spelling) != base_pool + i) {
        return Status::ParseError(
            "snapshot corrupt: duplicate token pool spelling");
      }
    }

    uint64_t base_objects = 0, base_steps = 0;
    SOMR_RETURN_IF_ERROR(r.U64(&base_objects));
    SOMR_RETURN_IF_ERROR(r.U64(&base_steps));
    if (base_objects != m.tracked_.size()) {
      return Status::ParseError(
          "delta base mismatch: identity graph has " +
          std::to_string(m.tracked_.size()) + " objects, delta expects " +
          std::to_string(base_objects));
    }
    if (base_steps != m.stats_.step_millis.size()) {
      return Status::ParseError("delta base mismatch: step timing count");
    }

    uint64_t touched_count = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&touched_count, 30));
    int64_t prev_id = -1;
    for (uint64_t i = 0; i < touched_count; ++i) {
      int64_t id = 0;
      uint8_t is_new = 0;
      SOMR_RETURN_IF_ERROR(r.I64(&id));
      SOMR_RETURN_IF_ERROR(r.U8(&is_new));
      if (is_new > 1 || id <= prev_id) {
        return Status::ParseError("snapshot corrupt: touched ids not "
                                  "strictly ascending");
      }
      prev_id = id;
      if (is_new == 1) {
        if (id != static_cast<int64_t>(m.tracked_.size())) {
          return Status::ParseError(
              "snapshot corrupt: non-sequential new object id");
        }
      } else if (id < 0 || id >= static_cast<int64_t>(base_objects)) {
        return Status::ParseError(
            "delta corrupt: touched id outside the base graph");
      }

      uint64_t tail_count = 0;
      SOMR_RETURN_IF_ERROR(r.Count(&tail_count, 8));
      if (is_new == 1 && tail_count == 0) {
        return Status::ParseError(
            "snapshot corrupt: new object without versions");
      }
      for (uint64_t v = 0; v < tail_count; ++v) {
        uint32_t revision = 0, position = 0;
        SOMR_RETURN_IF_ERROR(r.U32(&revision));
        SOMR_RETURN_IF_ERROR(r.U32(&position));
        matching::VersionRef ref{static_cast<int>(revision),
                                 static_cast<int>(position)};
        if (is_new == 1 && v == 0) {
          if (m.graph_.AddObject(ref) != id) {
            return Status::ParseError(
                "snapshot corrupt: graph id drifted from tracked id");
          }
        } else {
          m.graph_.AppendVersion(id, ref);
        }
      }

      if (is_new == 1) {
        matching::TemporalMatcher::Tracked t;
        t.id = id;
        SOMR_RETURN_IF_ERROR(ReadTrackedPayload(r, m.pool_.size(), &t));
        m.tracked_.push_back(std::move(t));
      } else {
        SOMR_RETURN_IF_ERROR(ReadTrackedPayloadTail(
            r, m.pool_.size(), tail_count,
            &m.tracked_[static_cast<size_t>(id)]));
      }
    }

    uint64_t scalars[6] = {};
    for (uint64_t& v : scalars) SOMR_RETURN_IF_ERROR(r.U64(&v));
    m.stats_.similarities_computed = scalars[0];
    m.stats_.stage1_matches = scalars[1];
    m.stats_.stage2_matches = scalars[2];
    m.stats_.stage3_matches = scalars[3];
    m.stats_.new_objects = scalars[4];
    m.stats_.pairs_pruned = scalars[5];
    uint64_t step_tail = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&step_tail, 8));
    for (uint64_t i = 0; i < step_tail; ++i) {
      double ms = 0.0;
      SOMR_RETURN_IF_ERROR(r.F64(&ms));
      m.stats_.step_millis.push_back(ms);
    }
    return Status::OK();
  }
};

uint64_t ConfigFingerprint(const matching::MatcherConfig& config) {
  ByteWriter w;
  // v3: the engine, LSH and shape pre-filter knobs left MatcherConfig.
  // parallel_min_pairs stays out — it is perf-only.
  w.Str("somr-matcher-config-v3");
  w.I64(config.theta_pos);
  w.F64(config.theta1);
  w.F64(config.theta2);
  w.F64(config.theta3);
  w.I64(config.rear_view_window);
  w.F64(config.decay);
  w.U8(config.use_idf_weighting);
  w.U8(config.use_spatial_features);
  w.U8(config.enable_stage1);
  w.U8(config.enable_stage2);
  w.U8(config.enable_stage3);
  w.U8(config.enable_lifetime_tiebreak);
  w.U64(config.features.element_token_limit);
  w.U8(config.features.include_section_headers);
  w.U8(config.features.include_caption);
  return Fnv1a64(w.bytes());
}

SnapshotWatermark CaptureWatermark(const core::PageState& state) {
  SnapshotWatermark mark;
  mark.revisions_ingested = state.revisions_ingested;
  MatcherSerde::Capture(state.matcher, &mark);
  return mark;
}

namespace {

/// Writes one section — `u32 tag | u64 payload size | u64 FNV-1a64
/// checksum | payload` — with `fill` appending the payload straight
/// into `w`; the size and checksum are patched in after it.
template <typename Fill>
Status WriteSection(ByteWriter& w, uint32_t tag, Fill fill) {
  const size_t header = w.size();
  w.U32(tag);
  w.U64(0);
  w.U64(0);
  SOMR_RETURN_IF_ERROR(fill());
  const size_t payload = header + kSectionHeaderBytes;
  w.PatchU64(header + 4, w.size() - payload);
  w.PatchU64(header + 12,
             Fnv1a64(std::string_view(w.bytes()).substr(payload)));
  return Status::OK();
}

/// Appends the history entries from revision `from` on.
void AppendHistory(const core::PageState& state, uint32_t from, ByteWriter& w) {
  w.U64(state.revisions.size() - from);
  for (size_t i = from; i < state.revisions.size(); ++i) {
    for (const extract::ObjectType type : kObjectTypes) {
      const auto& bucket = state.revisions[i].OfType(type);
      w.U64(bucket.size());
      for (const extract::ObjectInstance& obj : bucket) {
        AppendInstance(obj, w);
      }
    }
  }
  w.U64(state.timestamps.size() - from);
  for (size_t i = from; i < state.timestamps.size(); ++i) {
    w.I64(state.timestamps[i]);
  }
}

Status ReadHistory(ByteReader& r, core::PageState* state) {
  uint64_t new_revisions = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&new_revisions, 24));
  state->revisions.reserve(state->revisions.size() +
                           static_cast<size_t>(new_revisions));
  for (uint64_t i = 0; i < new_revisions; ++i) {
    extract::PageObjects objects;
    for (const extract::ObjectType type : kObjectTypes) {
      uint64_t bucket_size = 0;
      SOMR_RETURN_IF_ERROR(r.Count(&bucket_size, 29));
      auto& bucket = objects.OfType(type);
      bucket.resize(static_cast<size_t>(bucket_size));
      for (uint64_t o = 0; o < bucket_size; ++o) {
        SOMR_RETURN_IF_ERROR(ReadInstance(r, &bucket[o]));
        if (bucket[o].type != type) {
          return Status::ParseError(
              "snapshot corrupt: instance type outside its bucket");
        }
      }
    }
    state->revisions.push_back(std::move(objects));
  }
  uint64_t new_timestamps = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&new_timestamps, 8));
  if (new_timestamps != new_revisions) {
    return Status::ParseError(
        "snapshot corrupt: timestamp tail != revision tail");
  }
  for (uint64_t i = 0; i < new_timestamps; ++i) {
    int64_t t = 0;
    SOMR_RETURN_IF_ERROR(r.I64(&t));
    state->timestamps.push_back(t);
  }
  if (!r.AtEnd()) {
    return Status::ParseError("snapshot corrupt: history section overlong");
  }
  return Status::OK();
}

/// Applies one record to `state`, which must be exactly the record's
/// base — the empty state for a full record — as the base counts in
/// every section enforce.
Status ApplyRecord(const RecordSections& sections, core::PageState* state) {
  ByteReader meta(sections.meta);
  std::string title;
  int64_t page_id = 0, last_revision_id = 0, last_timestamp = 0;
  uint32_t revisions_ingested = 0, base_revisions = 0;
  SOMR_RETURN_IF_ERROR(meta.Str(&title));
  SOMR_RETURN_IF_ERROR(meta.I64(&page_id));
  SOMR_RETURN_IF_ERROR(meta.I64(&last_revision_id));
  SOMR_RETURN_IF_ERROR(meta.I64(&last_timestamp));
  SOMR_RETURN_IF_ERROR(meta.U32(&revisions_ingested));
  SOMR_RETURN_IF_ERROR(meta.U32(&base_revisions));
  if (!meta.AtEnd()) {
    return Status::ParseError("snapshot corrupt: meta section overlong");
  }
  if (sections.delta && title != state->title) {
    return Status::ParseError("delta is for page \"" + title +
                              "\", applied to \"" + state->title + "\"");
  }
  if (base_revisions != state->revisions_ingested) {
    return Status::ParseError(
        "delta base mismatch: base has " +
        std::to_string(state->revisions_ingested) +
        " revisions, record expects " + std::to_string(base_revisions));
  }

  ByteReader matcher(sections.matcher);
  SOMR_RETURN_IF_ERROR(MatcherSerde::RestoreDelta(matcher, state->matcher));
  if (!matcher.AtEnd()) {
    return Status::ParseError("snapshot corrupt: matcher section overlong");
  }
  ByteReader history(sections.history);
  SOMR_RETURN_IF_ERROR(ReadHistory(history, state));

  state->title = std::move(title);
  state->page_id = page_id;
  state->last_revision_id = last_revision_id;
  state->last_timestamp = last_timestamp;
  state->revisions_ingested = revisions_ingested;
  if (state->revisions.size() != state->revisions_ingested) {
    return Status::ParseError(
        "snapshot corrupt: history length != ingested revision count");
  }
  return Status::OK();
}

/// A decoded state must be one the matcher could have produced: every
/// checksum can be right while a field was edited before it was taken.
Status CheckDecodedState(const core::PageState& state) {
  ValidationReport report;
  state.matcher.Validate(&report);
  for (const extract::ObjectType type : kObjectTypes) {
    matching::ValidateGraphAgainstHistory(state.matcher.GraphFor(type),
                                          state.revisions, &report);
  }
  if (report.ok()) return Status::OK();
  const ValidationIssue& first = report.issues().front();
  return Status::ParseError("snapshot corrupt: decoded state violates " +
                            first.validator + ": " + first.detail);
}

}  // namespace

Status ReadRecordSections(std::string_view record, RecordSections* out) {
  const std::string_view magic = record.substr(0, sizeof(kMagic));
  out->delta = magic == std::string_view(kDeltaMagic, sizeof(kDeltaMagic));
  if (!out->delta && magic != std::string_view(kMagic, sizeof(kMagic))) {
    return Status::ParseError("not a somr snapshot record (bad magic)");
  }
  ByteReader r(record.substr(sizeof(kMagic)));
  uint32_t version = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&version));
  if (version != kFormatVersion) {
    return Status::ParseError(
        "snapshot record has unsupported format version " +
        std::to_string(version) + " (expected " +
        std::to_string(kFormatVersion) + ")");
  }
  SOMR_RETURN_IF_ERROR(r.U64(&out->fingerprint));
  uint32_t section_count = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&section_count));
  bool have_meta = false, have_matcher = false, have_history = false;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0, checksum = 0;
    SOMR_RETURN_IF_ERROR(r.U32(&tag));
    SOMR_RETURN_IF_ERROR(r.U64(&size));
    SOMR_RETURN_IF_ERROR(r.U64(&checksum));
    std::string_view payload;
    if (!r.Bytes(size, &payload).ok()) {
      return Status::ParseError("snapshot truncated: section " +
                                std::to_string(tag) + " payload cut short");
    }
    if (Fnv1a64(payload) != checksum) {
      return Status::ParseError("snapshot corrupt: section " +
                                std::to_string(tag) + " checksum mismatch");
    }
    switch (tag) {
      case kSectionMeta:
        out->meta = payload;
        have_meta = true;
        break;
      case kSectionMatcher:
        out->matcher = payload;
        have_matcher = true;
        break;
      case kSectionHistory:
        out->history = payload;
        have_history = true;
        break;
      default:
        break;  // unknown section: skip (checksum already verified)
    }
  }
  if (!r.AtEnd()) {
    return Status::ParseError("snapshot corrupt: trailing bytes");
  }
  if (!have_meta || !have_matcher || !have_history) {
    return Status::ParseError("snapshot corrupt: missing required section");
  }
  return Status::OK();
}

StatusOr<std::string> EncodePageRecord(const core::PageState& state,
                                       const SnapshotWatermark* base) {
  const SnapshotWatermark from =
      base != nullptr ? *base : SnapshotWatermark{};
  if (state.revisions.size() != state.revisions_ingested ||
      state.timestamps.size() != state.revisions_ingested) {
    return Status::InvalidArgument(
        "page state history length != ingested revision count");
  }
  if (state.revisions_ingested < from.revisions_ingested) {
    return Status::InvalidArgument(
        "delta base is not an ancestor of this state");
  }

  ByteWriter w;
  for (char c : base != nullptr ? kDeltaMagic : kMagic) {
    w.U8(static_cast<uint8_t>(c));
  }
  w.U32(kFormatVersion);
  w.U64(ConfigFingerprint(state.matcher.config()));
  w.U32(3);  // section count
  SOMR_RETURN_IF_ERROR(WriteSection(w, kSectionMeta, [&] {
    w.Str(state.title);
    w.I64(state.page_id);
    w.I64(state.last_revision_id);
    w.I64(state.last_timestamp);
    w.U32(state.revisions_ingested);
    w.U32(from.revisions_ingested);
    return Status::OK();
  }));
  SOMR_RETURN_IF_ERROR(WriteSection(w, kSectionMatcher, [&] {
    return MatcherSerde::AppendDelta(state.matcher, from, w);
  }));
  SOMR_RETURN_IF_ERROR(WriteSection(w, kSectionHistory, [&] {
    AppendHistory(state, from.revisions_ingested, w);
    return Status::OK();
  }));
  return w.Take();
}

StatusOr<core::PageState> DecodePageChain(
    const std::vector<std::string_view>& records,
    const matching::MatcherConfig& config) {
  if (records.empty()) {
    return Status::ParseError("empty record chain");
  }
  const uint64_t fingerprint = ConfigFingerprint(config);
  core::PageState state(config);
  for (size_t i = 0; i < records.size(); ++i) {
    RecordSections sections;
    SOMR_RETURN_IF_ERROR(ReadRecordSections(records[i], &sections));
    if (sections.delta != (i > 0)) {
      return Status::ParseError(
          i == 0 ? "record chain does not start with a full snapshot"
                 : "record chain holds a second full snapshot");
    }
    if (sections.fingerprint != fingerprint) {
      return Status::InvalidArgument(
          "snapshot record was written under a different MatcherConfig "
          "(config fingerprint mismatch); refusing to resume");
    }
    if (i == 0) {
      SOMR_RETURN_IF_ERROR(ApplyRecord(sections, &state));
    } else {
      SOMR_TRACE_SCOPE_CAT("state", "state/delta_replay");
      SOMR_RETURN_IF_ERROR(ApplyRecord(sections, &state));
    }
  }
  MatcherSerde::RebuildDerivedState(state.matcher);
  SOMR_RETURN_IF_ERROR(CheckDecodedState(state));
  return state;
}

}  // namespace somr::state
