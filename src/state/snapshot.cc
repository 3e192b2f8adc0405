#include "state/snapshot.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <utility>

#include "common/hash.h"
#include "state/serde.h"

namespace somr::state {

namespace {

// Section tags. Unknown tags are skipped on load (additive evolution
// within one format version); missing required sections are an error.
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionMatcher = 2;
constexpr uint32_t kSectionHistory = 3;

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

Status ReadFlatBag(ByteReader& r, FlatBag* bag) {
  uint64_t count = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&count, 12));
  std::vector<FlatEntry> entries;
  entries.reserve(static_cast<size_t>(count));
  uint32_t prev_id = 0;
  for (uint64_t i = 0; i < count; ++i) {
    FlatEntry e;
    SOMR_RETURN_IF_ERROR(r.U32(&e.id));
    SOMR_RETURN_IF_ERROR(r.F64(&e.count));
    if (i > 0 && e.id <= prev_id) {
      return Status::ParseError(
          "snapshot corrupt: flat bag ids not strictly ascending");
    }
    if (!(e.count > 0.0)) {
      return Status::ParseError(
          "snapshot corrupt: non-positive flat bag count");
    }
    prev_id = e.id;
    entries.push_back(e);
  }
  *bag = FlatBag::FromEntries(std::move(entries));
  return Status::OK();
}

void AppendStats(const matching::MatchStats& stats, ByteWriter& w) {
  w.U64(stats.similarities_computed);
  w.U64(stats.stage1_matches);
  w.U64(stats.stage2_matches);
  w.U64(stats.stage3_matches);
  w.U64(stats.new_objects);
  w.U64(stats.pairs_pruned);
  w.U64(stats.step_millis.size());
  for (double ms : stats.step_millis) w.F64(ms);
}

Status ReadStats(ByteReader& r, matching::MatchStats* stats) {
  uint64_t similarities = 0, s1 = 0, s2 = 0, s3 = 0;
  uint64_t new_objects = 0, pruned = 0;
  SOMR_RETURN_IF_ERROR(r.U64(&similarities));
  SOMR_RETURN_IF_ERROR(r.U64(&s1));
  SOMR_RETURN_IF_ERROR(r.U64(&s2));
  SOMR_RETURN_IF_ERROR(r.U64(&s3));
  SOMR_RETURN_IF_ERROR(r.U64(&new_objects));
  SOMR_RETURN_IF_ERROR(r.U64(&pruned));
  stats->similarities_computed = similarities;
  stats->stage1_matches = s1;
  stats->stage2_matches = s2;
  stats->stage3_matches = s3;
  stats->new_objects = new_objects;
  stats->pairs_pruned = pruned;
  uint64_t steps = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&steps, 8));
  stats->step_millis.clear();
  stats->step_millis.reserve(static_cast<size_t>(steps));
  for (uint64_t i = 0; i < steps; ++i) {
    double ms = 0.0;
    SOMR_RETURN_IF_ERROR(r.F64(&ms));
    stats->step_millis.push_back(ms);
  }
  return Status::OK();
}

}  // namespace

/// Friend of TemporalMatcher/PageMatcher: flattens the complete online
/// matching state into snapshot bytes and restores it bit-for-bit.
class MatcherSerde {
 public:
  static void Append(const matching::PageMatcher& matcher, ByteWriter& w) {
    AppendOne(matcher.tables_, w);
    AppendOne(matcher.infoboxes_, w);
    AppendOne(matcher.lists_, w);
  }

  static Status Restore(ByteReader& r, matching::PageMatcher& matcher) {
    SOMR_RETURN_IF_ERROR(RestoreOne(r, matcher.tables_));
    SOMR_RETURN_IF_ERROR(RestoreOne(r, matcher.infoboxes_));
    return RestoreOne(r, matcher.lists_);
  }

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

 private:
  static TypeWatermark CaptureOne(const matching::TemporalMatcher& m) {
    TypeWatermark mark;
    mark.pool_size = m.pool_.size();
    mark.object_count = m.tracked_.size();
    mark.step_count = m.stats_.step_millis.size();
    return mark;
  }

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
      SOMR_RETURN_IF_ERROR(ReadFlatBag(r, &bag));
      for (const FlatEntry& e : bag.entries()) {
        if (e.id >= pool_size) {
          return Status::ParseError(
              "snapshot corrupt: flat bag id outside token pool");
        }
      }
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
      SOMR_RETURN_IF_ERROR(ReadFlatBag(r, &bag));
      for (const FlatEntry& e : bag.entries()) {
        if (e.id >= pool_size) {
          return Status::ParseError(
              "delta corrupt: flat bag id outside token pool");
        }
      }
      t->recent_flat.push_back(std::move(bag));
    }
    while (t->recent_flat.size() > flat_final) t->recent_flat.pop_front();
    return Status::OK();
  }

  /// Everything in a TemporalMatcher that changed since `base`: the
  /// watermark counters make the touched set derivable — a Tracked
  /// entry mutates only when its object matches a revision, which
  /// stamps `last_revision` at or past the base revision count, and
  /// pool/objects/steps only grow.
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

    std::vector<size_t> touched;
    for (size_t i = 0; i < m.tracked_.size(); ++i) {
      if (i >= base.object_count ||
          m.tracked_[i].last_revision >=
              static_cast<int>(base_revisions)) {
        touched.push_back(i);
      }
    }
    const auto& objects = m.graph_.objects();
    w.U64(touched.size());
    for (size_t i : touched) {
      const auto& t = m.tracked_[i];
      const bool is_new = i >= base.object_count;
      w.I64(t.id);
      w.U8(is_new ? 1 : 0);
      // Version-chain tail: a new object ships its whole chain, an
      // existing one only the refs appended since the base revision.
      std::vector<matching::VersionRef> tail;
      for (const matching::VersionRef& ref : objects[i].versions) {
        if (is_new || ref.revision >= static_cast<int>(base_revisions)) {
          tail.push_back(ref);
        }
      }
      w.U64(tail.size());
      for (const matching::VersionRef& ref : tail) {
        w.U32(static_cast<uint32_t>(ref.revision));
        w.U32(static_cast<uint32_t>(ref.position));
      }
      // A new object ships its whole payload; an existing one only the
      // window entries its version tail appended.
      if (is_new) {
        AppendTrackedPayload(t, w);
      } else {
        AppendTrackedPayloadTail(t, tail.size(), w);
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

  static Status RestoreOneDelta(ByteReader& r,
                                matching::TemporalMatcher& m) {
    uint8_t type = 0;
    SOMR_RETURN_IF_ERROR(r.U8(&type));
    if (type != static_cast<uint8_t>(m.type_)) {
      return Status::ParseError("delta corrupt: matcher type mismatch");
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
      std::string spelling;
      SOMR_RETURN_IF_ERROR(r.Str(&spelling));
      if (m.pool_.Intern(spelling) != base_pool + i) {
        return Status::ParseError(
            "delta corrupt: duplicate token pool spelling");
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
        return Status::ParseError("delta corrupt: touched ids not "
                                  "strictly ascending");
      }
      prev_id = id;
      if (is_new == 1) {
        if (id != static_cast<int64_t>(m.tracked_.size())) {
          return Status::ParseError(
              "delta corrupt: non-sequential new object id");
        }
      } else if (id < 0 || id >= static_cast<int64_t>(base_objects)) {
        return Status::ParseError(
            "delta corrupt: touched id outside the base graph");
      }

      uint64_t tail_count = 0;
      SOMR_RETURN_IF_ERROR(r.Count(&tail_count, 8));
      if (is_new == 1 && tail_count == 0) {
        return Status::ParseError(
            "delta corrupt: new object without versions");
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
                "delta corrupt: graph id drifted from tracked id");
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
    m.RebuildDerivedState();
    return Status::OK();
  }
  static void AppendOne(const matching::TemporalMatcher& m, ByteWriter& w) {
    w.U8(static_cast<uint8_t>(m.type_));

    // Token pool: spellings in id order; ids are implicit (dense from 0).
    w.U64(m.pool_.size());
    for (uint32_t id = 0; id < m.pool_.size(); ++id) {
      w.Str(m.pool_.Spelling(id));
    }

    // Identity graph: per object its id and version chain.
    const auto& objects = m.graph_.objects();
    w.U64(objects.size());
    for (const matching::TrackedObjectRecord& object : objects) {
      w.I64(object.object_id);
      w.U64(object.versions.size());
      for (const matching::VersionRef& ref : object.versions) {
        w.U32(static_cast<uint32_t>(ref.revision));
        w.U32(static_cast<uint32_t>(ref.position));
      }
    }

    // Tracked objects: rear-view windows and tie-break bookkeeping.
    w.U64(m.tracked_.size());
    for (const auto& t : m.tracked_) {
      w.I64(t.id);
      AppendTrackedPayload(t, w);
    }

    AppendStats(m.stats_, w);
  }

  static Status RestoreOne(ByteReader& r, matching::TemporalMatcher& m) {
    uint8_t type = 0;
    SOMR_RETURN_IF_ERROR(r.U8(&type));
    if (type != static_cast<uint8_t>(m.type_)) {
      return Status::ParseError(
          "snapshot corrupt: matcher object type mismatch");
    }

    m.pool_ = TokenPool();
    uint64_t pool_size = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&pool_size, 8));
    for (uint64_t i = 0; i < pool_size; ++i) {
      std::string spelling;
      SOMR_RETURN_IF_ERROR(r.Str(&spelling));
      if (m.pool_.Intern(spelling) != i) {
        return Status::ParseError(
            "snapshot corrupt: duplicate token pool spelling");
      }
    }

    m.graph_ = matching::IdentityGraph(m.type_);
    uint64_t object_count = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&object_count, 16));
    for (uint64_t i = 0; i < object_count; ++i) {
      int64_t object_id = 0;
      SOMR_RETURN_IF_ERROR(r.I64(&object_id));
      uint64_t version_count = 0;
      SOMR_RETURN_IF_ERROR(r.Count(&version_count, 8));
      if (version_count == 0) {
        return Status::ParseError(
            "snapshot corrupt: identity graph object without versions");
      }
      int64_t restored_id = -1;
      for (uint64_t v = 0; v < version_count; ++v) {
        uint32_t revision = 0, position = 0;
        SOMR_RETURN_IF_ERROR(r.U32(&revision));
        SOMR_RETURN_IF_ERROR(r.U32(&position));
        matching::VersionRef ref{static_cast<int>(revision),
                                 static_cast<int>(position)};
        if (v == 0) {
          restored_id = m.graph_.AddObject(ref);
        } else {
          m.graph_.AppendVersion(restored_id, ref);
        }
      }
      if (restored_id != object_id) {
        return Status::ParseError(
            "snapshot corrupt: non-sequential identity graph object id");
      }
    }

    m.tracked_.clear();
    uint64_t tracked_count = 0;
    SOMR_RETURN_IF_ERROR(r.Count(&tracked_count, 28));
    if (tracked_count != object_count) {
      return Status::ParseError(
          "snapshot corrupt: tracked count != identity graph objects");
    }
    m.tracked_.reserve(static_cast<size_t>(tracked_count));
    for (uint64_t i = 0; i < tracked_count; ++i) {
      matching::TemporalMatcher::Tracked t;
      SOMR_RETURN_IF_ERROR(r.I64(&t.id));
      if (t.id != static_cast<int64_t>(i)) {
        return Status::ParseError(
            "snapshot corrupt: tracked id out of order");
      }
      SOMR_RETURN_IF_ERROR(ReadTrackedPayload(r, m.pool_.size(), &t));
      m.tracked_.push_back(std::move(t));
    }

    m.stats_ = matching::MatchStats();
    SOMR_RETURN_IF_ERROR(ReadStats(r, &m.stats_));
    // Derived structures (retrieval index, incremental IOF document
    // frequencies) are never serialized: rebuild them from the restored
    // windows — the rebuilt index retrieves identically by construction.
    m.RebuildDerivedState();
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

Status SavePageSnapshot(const PageState& state, std::ostream& out) {
  ByteWriter meta;
  meta.Str(state.title);
  meta.I64(state.page_id);
  meta.I64(state.last_revision_id);
  meta.I64(state.last_timestamp);
  meta.U32(state.revisions_ingested);

  ByteWriter matcher;
  MatcherSerde::Append(state.matcher, matcher);

  ByteWriter history;
  history.U64(state.revisions.size());
  for (const extract::PageObjects& objects : state.revisions) {
    for (const extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      const auto& bucket = objects.OfType(type);
      history.U64(bucket.size());
      for (const extract::ObjectInstance& obj : bucket) {
        AppendInstance(obj, history);
      }
    }
  }
  history.U64(state.timestamps.size());
  for (UnixSeconds t : state.timestamps) history.I64(t);

  ByteWriter header;
  for (char c : kMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kFormatVersion);
  header.U64(ConfigFingerprint(state.matcher.config()));
  header.U32(3);  // section count

  auto write_section = [&out](uint32_t tag, const std::string& payload) {
    ByteWriter section_header;
    section_header.U32(tag);
    section_header.U64(payload.size());
    section_header.U64(Fnv1a64(payload));
    out.write(section_header.bytes().data(),
              static_cast<std::streamsize>(section_header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  };

  out.write(header.bytes().data(),
            static_cast<std::streamsize>(header.size()));
  write_section(kSectionMeta, meta.bytes());
  write_section(kSectionMatcher, matcher.bytes());
  write_section(kSectionHistory, history.bytes());
  out.flush();
  if (!out.good()) {
    return Status::Internal("snapshot write failed (stream error)");
  }
  return Status::OK();
}

namespace {

Status LoadMeta(ByteReader& r, PageState* state) {
  SOMR_RETURN_IF_ERROR(r.Str(&state->title));
  SOMR_RETURN_IF_ERROR(r.I64(&state->page_id));
  SOMR_RETURN_IF_ERROR(r.I64(&state->last_revision_id));
  SOMR_RETURN_IF_ERROR(r.I64(&state->last_timestamp));
  SOMR_RETURN_IF_ERROR(r.U32(&state->revisions_ingested));
  if (!r.AtEnd()) {
    return Status::ParseError("snapshot corrupt: meta section overlong");
  }
  return Status::OK();
}

Status LoadHistory(ByteReader& r, PageState* state) {
  uint64_t revision_count = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&revision_count, 24));
  state->revisions.clear();
  state->revisions.resize(static_cast<size_t>(revision_count));
  for (uint64_t i = 0; i < revision_count; ++i) {
    for (const extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      uint64_t bucket_size = 0;
      SOMR_RETURN_IF_ERROR(r.Count(&bucket_size, 29));
      auto& bucket = state->revisions[i].OfType(type);
      bucket.resize(static_cast<size_t>(bucket_size));
      for (uint64_t o = 0; o < bucket_size; ++o) {
        SOMR_RETURN_IF_ERROR(ReadInstance(r, &bucket[o]));
        if (bucket[o].type != type) {
          return Status::ParseError(
              "snapshot corrupt: instance type outside its bucket");
        }
      }
    }
  }
  uint64_t timestamp_count = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&timestamp_count, 8));
  if (timestamp_count != revision_count) {
    return Status::ParseError(
        "snapshot corrupt: timestamp count != revision count");
  }
  state->timestamps.clear();
  state->timestamps.reserve(static_cast<size_t>(timestamp_count));
  for (uint64_t i = 0; i < timestamp_count; ++i) {
    int64_t t = 0;
    SOMR_RETURN_IF_ERROR(r.I64(&t));
    state->timestamps.push_back(t);
  }
  if (!r.AtEnd()) {
    return Status::ParseError("snapshot corrupt: history section overlong");
  }
  return Status::OK();
}

}  // namespace

Status LoadPageSnapshot(std::istream& in,
                        const matching::MatcherConfig& config,
                        PageState* state) {
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal("snapshot read failed (stream error)");
  }
  ByteReader r(data);

  for (char expected : kMagic) {
    uint8_t byte = 0;
    SOMR_RETURN_IF_ERROR(r.U8(&byte));
    if (byte != static_cast<uint8_t>(expected)) {
      return Status::ParseError("not a somr snapshot (bad magic)");
    }
  }
  uint32_t version = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&version));
  if (version != kFormatVersion) {
    return Status::ParseError("unsupported snapshot format version " +
                              std::to_string(version));
  }
  uint64_t fingerprint = 0;
  SOMR_RETURN_IF_ERROR(r.U64(&fingerprint));
  if (fingerprint != ConfigFingerprint(config)) {
    return Status::InvalidArgument(
        "snapshot was written under a different MatcherConfig "
        "(config fingerprint mismatch); refusing to resume");
  }

  uint32_t section_count = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&section_count));

  // Parse into a scratch state so a corrupt section never leaves the
  // caller's state half-restored.
  PageState loaded(config);
  bool have_meta = false, have_matcher = false, have_history = false;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0, checksum = 0;
    SOMR_RETURN_IF_ERROR(r.U32(&tag));
    SOMR_RETURN_IF_ERROR(r.U64(&size));
    SOMR_RETURN_IF_ERROR(r.U64(&checksum));
    std::string payload;
    if (!r.Bytes(size, &payload).ok()) {
      return Status::ParseError("snapshot truncated: section " +
                                std::to_string(tag) + " payload cut short");
    }
    if (Fnv1a64(payload) != checksum) {
      return Status::ParseError("snapshot corrupt: section " +
                                std::to_string(tag) + " checksum mismatch");
    }
    ByteReader section(payload);
    switch (tag) {
      case kSectionMeta:
        SOMR_RETURN_IF_ERROR(LoadMeta(section, &loaded));
        have_meta = true;
        break;
      case kSectionMatcher:
        SOMR_RETURN_IF_ERROR(MatcherSerde::Restore(section, loaded.matcher));
        if (!section.AtEnd()) {
          return Status::ParseError(
              "snapshot corrupt: matcher section overlong");
        }
        have_matcher = true;
        break;
      case kSectionHistory:
        SOMR_RETURN_IF_ERROR(LoadHistory(section, &loaded));
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
  if (loaded.revisions.size() != loaded.revisions_ingested) {
    return Status::ParseError(
        "snapshot corrupt: history length != ingested revision count");
  }
  *state = std::move(loaded);
  return Status::OK();
}

SnapshotWatermark CaptureWatermark(const PageState& state) {
  SnapshotWatermark mark;
  mark.revisions_ingested = state.revisions_ingested;
  MatcherSerde::Capture(state.matcher, &mark);
  return mark;
}

Status SavePageDelta(const PageState& state, const SnapshotWatermark& base,
                     std::ostream& out) {
  if (state.revisions_ingested < base.revisions_ingested ||
      state.revisions.size() != state.revisions_ingested ||
      state.timestamps.size() != state.revisions_ingested) {
    return Status::InvalidArgument(
        "delta base is not an ancestor of this state");
  }

  ByteWriter meta;
  meta.Str(state.title);
  meta.I64(state.page_id);
  meta.I64(state.last_revision_id);
  meta.I64(state.last_timestamp);
  meta.U32(state.revisions_ingested);
  meta.U32(base.revisions_ingested);

  ByteWriter matcher;
  SOMR_RETURN_IF_ERROR(
      MatcherSerde::AppendDelta(state.matcher, base, matcher));

  ByteWriter history;
  history.U64(state.revisions.size() - base.revisions_ingested);
  for (size_t i = base.revisions_ingested; i < state.revisions.size();
       ++i) {
    for (const extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      const auto& bucket = state.revisions[i].OfType(type);
      history.U64(bucket.size());
      for (const extract::ObjectInstance& obj : bucket) {
        AppendInstance(obj, history);
      }
    }
  }
  history.U64(state.timestamps.size() - base.revisions_ingested);
  for (size_t i = base.revisions_ingested; i < state.timestamps.size();
       ++i) {
    history.I64(state.timestamps[i]);
  }

  ByteWriter header;
  for (char c : kDeltaMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kFormatVersion);
  header.U64(ConfigFingerprint(state.matcher.config()));
  header.U32(3);  // section count

  auto write_section = [&out](uint32_t tag, const std::string& payload) {
    ByteWriter section_header;
    section_header.U32(tag);
    section_header.U64(payload.size());
    section_header.U64(Fnv1a64(payload));
    out.write(section_header.bytes().data(),
              static_cast<std::streamsize>(section_header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  };

  out.write(header.bytes().data(),
            static_cast<std::streamsize>(header.size()));
  write_section(kSectionMeta, meta.bytes());
  write_section(kSectionMatcher, matcher.bytes());
  write_section(kSectionHistory, history.bytes());
  out.flush();
  if (!out.good()) {
    return Status::Internal("delta write failed (stream error)");
  }
  return Status::OK();
}

namespace {

Status ApplyDeltaHistory(ByteReader& r, PageState* state) {
  uint64_t new_revisions = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&new_revisions, 24));
  for (uint64_t i = 0; i < new_revisions; ++i) {
    extract::PageObjects objects;
    for (const extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      uint64_t bucket_size = 0;
      SOMR_RETURN_IF_ERROR(r.Count(&bucket_size, 29));
      auto& bucket = objects.OfType(type);
      bucket.resize(static_cast<size_t>(bucket_size));
      for (uint64_t o = 0; o < bucket_size; ++o) {
        SOMR_RETURN_IF_ERROR(ReadInstance(r, &bucket[o]));
        if (bucket[o].type != type) {
          return Status::ParseError(
              "delta corrupt: instance type outside its bucket");
        }
      }
    }
    state->revisions.push_back(std::move(objects));
  }
  uint64_t new_timestamps = 0;
  SOMR_RETURN_IF_ERROR(r.Count(&new_timestamps, 8));
  if (new_timestamps != new_revisions) {
    return Status::ParseError(
        "delta corrupt: timestamp tail != revision tail");
  }
  for (uint64_t i = 0; i < new_timestamps; ++i) {
    int64_t t = 0;
    SOMR_RETURN_IF_ERROR(r.I64(&t));
    state->timestamps.push_back(t);
  }
  if (!r.AtEnd()) {
    return Status::ParseError("delta corrupt: history section overlong");
  }
  return Status::OK();
}

}  // namespace

Status ApplyPageDelta(std::istream& in,
                      const matching::MatcherConfig& config,
                      PageState* state) {
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal("delta read failed (stream error)");
  }
  ByteReader r(data);
  for (char expected : kDeltaMagic) {
    uint8_t byte = 0;
    SOMR_RETURN_IF_ERROR(r.U8(&byte));
    if (byte != static_cast<uint8_t>(expected)) {
      return Status::ParseError("not a somr delta snapshot (bad magic)");
    }
  }
  uint32_t version = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&version));
  if (version != kFormatVersion) {
    return Status::ParseError("unsupported delta format version " +
                              std::to_string(version));
  }
  uint64_t fingerprint = 0;
  SOMR_RETURN_IF_ERROR(r.U64(&fingerprint));
  if (fingerprint != ConfigFingerprint(config)) {
    return Status::InvalidArgument(
        "delta was written under a different MatcherConfig "
        "(config fingerprint mismatch); refusing to resume");
  }

  uint32_t section_count = 0;
  SOMR_RETURN_IF_ERROR(r.U32(&section_count));
  // Collect checksum-verified section payloads first: the delta must be
  // applied meta -> matcher -> history regardless of on-disk order, and
  // nothing should mutate `state` until the container checks out.
  std::string meta_payload, matcher_payload, history_payload;
  bool have_meta = false, have_matcher = false, have_history = false;
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0, checksum = 0;
    SOMR_RETURN_IF_ERROR(r.U32(&tag));
    SOMR_RETURN_IF_ERROR(r.U64(&size));
    SOMR_RETURN_IF_ERROR(r.U64(&checksum));
    std::string payload;
    if (!r.Bytes(size, &payload).ok()) {
      return Status::ParseError("delta truncated: section " +
                                std::to_string(tag) + " payload cut short");
    }
    if (Fnv1a64(payload) != checksum) {
      return Status::ParseError("delta corrupt: section " +
                                std::to_string(tag) + " checksum mismatch");
    }
    switch (tag) {
      case kSectionMeta:
        meta_payload = std::move(payload);
        have_meta = true;
        break;
      case kSectionMatcher:
        matcher_payload = std::move(payload);
        have_matcher = true;
        break;
      case kSectionHistory:
        history_payload = std::move(payload);
        have_history = true;
        break;
      default:
        break;  // unknown section: skip (checksum already verified)
    }
  }
  if (!r.AtEnd()) {
    return Status::ParseError("delta corrupt: trailing bytes");
  }
  if (!have_meta || !have_matcher || !have_history) {
    return Status::ParseError("delta corrupt: missing required section");
  }

  ByteReader meta(meta_payload);
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
    return Status::ParseError("delta corrupt: meta section overlong");
  }
  if (title != state->title) {
    return Status::ParseError("delta is for page \"" + title +
                              "\", applied to \"" + state->title + "\"");
  }
  if (base_revisions != state->revisions_ingested ||
      state->revisions.size() != base_revisions) {
    return Status::ParseError(
        "delta base mismatch: base has " +
        std::to_string(state->revisions_ingested) +
        " revisions, delta expects " + std::to_string(base_revisions));
  }

  ByteReader matcher(matcher_payload);
  SOMR_RETURN_IF_ERROR(MatcherSerde::RestoreDelta(matcher, state->matcher));
  if (!matcher.AtEnd()) {
    return Status::ParseError("delta corrupt: matcher section overlong");
  }

  ByteReader history(history_payload);
  SOMR_RETURN_IF_ERROR(ApplyDeltaHistory(history, state));

  state->page_id = page_id;
  state->last_revision_id = last_revision_id;
  state->last_timestamp = last_timestamp;
  state->revisions_ingested = revisions_ingested;
  if (state->revisions.size() != state->revisions_ingested ||
      state->timestamps.size() != state->revisions_ingested) {
    return Status::ParseError(
        "delta corrupt: replayed history length != ingested count");
  }
  return Status::OK();
}

}  // namespace somr::state
