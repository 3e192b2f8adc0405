#include "state/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "extract/wikitext_extractor.h"
#include "state/serde.h"
#include "wikigen/corpus.h"
#include "xmldump/dump.h"

namespace somr::state {
namespace {

using core::PageState;

wikigen::CorpusConfig TinyConfig() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3};
  config.pages_per_stratum = 1;
  config.min_revisions = 12;
  config.max_revisions = 18;
  config.seed = 21;
  return config;
}

// Applies revisions [state.revisions_ingested, limit) of `page`.
void ExtendState(PageState& state, const xmldump::PageHistory& page,
                 size_t limit) {
  for (size_t r = state.revisions_ingested;
       r < page.revisions.size() && r < limit; ++r) {
    extract::PageObjects objects =
        extract::ExtractFromWikitextSource(page.revisions[r].text);
    state.matcher.ProcessRevision(
        static_cast<int>(state.revisions_ingested), objects);
    state.revisions.push_back(std::move(objects));
    state.timestamps.push_back(page.revisions[r].timestamp);
    state.last_revision_id = page.revisions[r].id;
    state.last_timestamp = page.revisions[r].timestamp;
    ++state.revisions_ingested;
  }
}

// Builds a live PageState by running the matcher over a generated page
// history, stopping after `limit` revisions (SIZE_MAX = all).
PageState StateFromPage(const xmldump::PageHistory& page,
                        size_t limit = static_cast<size_t>(-1)) {
  PageState state;
  state.title = page.title;
  state.page_id = page.page_id;
  ExtendState(state, page, limit);
  return state;
}

xmldump::PageHistory SamplePage(wikigen::CorpusConfig config = TinyConfig()) {
  xmldump::Dump dump =
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
  return dump.pages[0];
}

std::string Snapshot(const PageState& state) {
  StatusOr<std::string> record = EncodePageRecord(state, nullptr);
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  return record.ok() ? std::move(*record) : std::string();
}

std::string Delta(const PageState& state, const SnapshotWatermark& base) {
  StatusOr<std::string> record = EncodePageRecord(state, &base);
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  return record.ok() ? std::move(*record) : std::string();
}

StatusOr<PageState> Decode(const std::vector<std::string>& records,
                           const matching::MatcherConfig& config = {}) {
  std::vector<std::string_view> views(records.begin(), records.end());
  return DecodePageChain(views, config);
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  xmldump::PageHistory page = SamplePage();
  PageState original = StateFromPage(page);
  StatusOr<PageState> loaded = Decode({Snapshot(original)});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->title, original.title);
  EXPECT_EQ(loaded->page_id, original.page_id);
  EXPECT_EQ(loaded->last_revision_id, original.last_revision_id);
  EXPECT_EQ(loaded->last_timestamp, original.last_timestamp);
  EXPECT_EQ(loaded->revisions_ingested, original.revisions_ingested);
  EXPECT_EQ(loaded->revisions.size(), original.revisions.size());
  EXPECT_EQ(loaded->timestamps, original.timestamps);
  for (extract::ObjectType type :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    EXPECT_EQ(loaded->matcher.GraphFor(type).EdgeSet(),
              original.matcher.GraphFor(type).EdgeSet());
    EXPECT_EQ(loaded->matcher.StatsFor(type).stage1_matches,
              original.matcher.StatsFor(type).stage1_matches);
    EXPECT_EQ(loaded->matcher.StatsFor(type).new_objects,
              original.matcher.StatsFor(type).new_objects);
  }
}

TEST(SnapshotTest, SaveIsDeterministic) {
  PageState state = StateFromPage(SamplePage());
  EXPECT_EQ(Snapshot(state), Snapshot(state));
}

TEST(SnapshotTest, ReloadedStateReserializesIdentically) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  StatusOr<PageState> loaded = Decode({bytes});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(Snapshot(*loaded), bytes);
}

TEST(SnapshotTest, ResumedMatcherContinuesExactly) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;

  // Checkpoint at `half`, reload, apply the rest.
  StatusOr<PageState> resumed = Decode({Snapshot(StateFromPage(page, half))});
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExtendState(*resumed, page, page.revisions.size());

  PageState batch = StateFromPage(page);
  for (extract::ObjectType type :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    EXPECT_EQ(resumed->matcher.GraphFor(type).EdgeSet(),
              batch.matcher.GraphFor(type).EdgeSet());
  }
}

TEST(SnapshotTest, EmptyStateRoundTrips) {
  PageState empty;
  empty.title = "untouched";
  StatusOr<PageState> loaded = Decode({Snapshot(empty)});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->title, "untouched");
  EXPECT_EQ(loaded->revisions_ingested, 0u);
  EXPECT_EQ(loaded->matcher.GraphFor(extract::ObjectType::kTable)
                .ObjectCount(),
            0u);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  bytes[0] = 'X';
  EXPECT_EQ(Decode({bytes}).status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, RejectsUnknownFormatVersion) {
  // 3 and 4 are previous formats (4: separate full and delta MATCHER
  // layouts; 3: string bags, MinHash and shape signatures on the wire);
  // 0xEE was never written.
  for (uint8_t version : {uint8_t{3}, uint8_t{4}, uint8_t{0xEE}}) {
    std::string bytes = Snapshot(StateFromPage(SamplePage()));
    bytes[8] = static_cast<char>(version);  // format version LE LSB
    EXPECT_EQ(Decode({bytes}).status().code(), StatusCode::kParseError)
        << int{version};
  }
}

TEST(SnapshotTest, RejectsConfigFingerprintMismatch) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  matching::MatcherConfig other;
  other.rear_view_window = 7;
  EXPECT_EQ(Decode({bytes}, other).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RejectsEveryTruncationWithoutCrashing) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  // Every strict prefix must fail cleanly; stride keeps the test fast
  // while still probing every region of the format.
  const size_t stride = bytes.size() / 97 + 1;
  for (size_t len = 0; len < bytes.size(); len += stride) {
    EXPECT_FALSE(Decode({bytes.substr(0, len)}).ok())
        << "prefix of " << len << " bytes loaded";
  }
}

TEST(SnapshotTest, RejectsPayloadCorruption) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  // Flip one byte in every region of the file; each flip must either be
  // caught (checksum, bounds, validation) — never accepted silently as
  // the original state, never a crash.
  const size_t stride = bytes.size() / 53 + 1;
  for (size_t pos = 24; pos < bytes.size(); pos += stride) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x41);
    EXPECT_FALSE(Decode({corrupt}).ok()) << "flip at byte " << pos
                                         << " accepted";
  }
}

TEST(DeltaSnapshotTest, SingleDeltaReplayIsByteIdentical) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;

  PageState state = StateFromPage(page, half);
  const std::string base_bytes = Snapshot(state);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, page.revisions.size());

  // Replay: full snapshot of the base, then the delta.
  StatusOr<PageState> replayed = Decode({base_bytes, Delta(state, base)});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(Snapshot(*replayed), Snapshot(state));
}

TEST(DeltaSnapshotTest, DeltaIsMuchSmallerThanFullSnapshot) {
  xmldump::PageHistory page = SamplePage();
  PageState state = StateFromPage(page, page.revisions.size() - 1);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, page.revisions.size());

  const std::string full = Snapshot(state);
  const std::string delta = Delta(state, base);
  // One revision's worth of change vs the whole history: the entire
  // point of delta checkpoints.
  EXPECT_LT(delta.size() * 2, full.size())
      << "delta " << delta.size() << "B vs full " << full.size() << "B";
}

TEST(DeltaSnapshotTest, EmptyDeltaReplaysToSameState) {
  PageState state = StateFromPage(SamplePage());
  const SnapshotWatermark base = CaptureWatermark(state);
  StatusOr<PageState> replayed =
      Decode({Snapshot(state), Delta(state, base)});  // nothing changed
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(Snapshot(*replayed), Snapshot(state));
}

// The acceptance bar: a chain of deltas over randomized page histories,
// one corpus per focal object type, replays to the exact bytes a direct
// full snapshot produces — at every intermediate checkpoint.
TEST(DeltaSnapshotTest, RandomizedChainReplayMatchesDirectSnapshot) {
  for (extract::ObjectType focal :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    for (unsigned seed : {11u, 47u}) {
      wikigen::CorpusConfig config = TinyConfig();
      config.focal_type = focal;
      config.seed = seed;
      const xmldump::PageHistory page = SamplePage(config);
      const size_t n = page.revisions.size();
      // Checkpoints: anchor at ~1/4, then three delta saves.
      const size_t marks[] = {n / 4, n / 2, 3 * n / 4, n};

      PageState state = StateFromPage(page, marks[0]);
      std::vector<std::string> chain = {Snapshot(state)};
      for (size_t m = 1; m < 4; ++m) {
        const SnapshotWatermark base = CaptureWatermark(state);
        ExtendState(state, page, marks[m]);
        chain.push_back(Delta(state, base));
        StatusOr<PageState> replayed = Decode(chain);
        ASSERT_TRUE(replayed.ok())
            << replayed.status().ToString() << " (focal "
            << static_cast<int>(focal) << " seed " << seed << " mark " << m
            << ")";
        ASSERT_EQ(Snapshot(*replayed), Snapshot(state))
            << "focal " << static_cast<int>(focal) << " seed " << seed
            << " diverged at mark " << m;
      }
    }
  }
}

TEST(DeltaSnapshotTest, NonDescendantBaseIsInvalidArgument) {
  xmldump::PageHistory page = SamplePage();
  PageState full = StateFromPage(page);
  PageState half = StateFromPage(page, page.revisions.size() / 2);
  // Base "ahead" of the state: counts would run backwards.
  const SnapshotWatermark base = CaptureWatermark(full);
  EXPECT_EQ(EncodePageRecord(half, &base).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaSnapshotTest, DeltaOnWrongBaseIsParseError) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;
  PageState state = StateFromPage(page, half);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, page.revisions.size());
  const std::string delta_bytes = Delta(state, base);

  // Replayed over a full record of another revision count: refused.
  PageState other_base = StateFromPage(page, half - 1);
  EXPECT_EQ(Decode({Snapshot(other_base), delta_bytes}).status().code(),
            StatusCode::kParseError);
}

TEST(DeltaSnapshotTest, RecordOrderIsCheckedByMagic) {
  xmldump::PageHistory page = SamplePage();
  PageState state = StateFromPage(page, 4);
  const std::string full = Snapshot(state);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, 6);
  const std::string delta = Delta(state, base);

  EXPECT_EQ(Decode({}).status().code(), StatusCode::kParseError);
  EXPECT_EQ(Decode({delta}).status().code(), StatusCode::kParseError);
  EXPECT_EQ(Decode({full, full}).status().code(), StatusCode::kParseError);
  EXPECT_EQ(Decode({delta, full}).status().code(), StatusCode::kParseError);
  EXPECT_TRUE(Decode({full, delta}).ok());
}

TEST(DeltaSnapshotTest, RejectsDeltaCorruptionEverywhere) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;
  PageState state = StateFromPage(page, half);
  const std::string base_bytes = Snapshot(state);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, page.revisions.size());
  const std::string delta_bytes = Delta(state, base);
  const std::string want = Snapshot(state);

  const size_t stride = delta_bytes.size() / 53 + 1;
  for (size_t pos = 0; pos < delta_bytes.size(); pos += stride) {
    std::string corrupt = delta_bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x41);
    StatusOr<PageState> replayed = Decode({base_bytes, corrupt});
    if (replayed.ok()) {
      // The flip must at minimum never silently yield the wrong state.
      EXPECT_EQ(Snapshot(*replayed), want) << "flip at byte " << pos;
    }
  }
}

// --- Checksum-fixed corruption ---------------------------------------
//
// A record whose section checksums were recomputed after an edit passes
// every container check, so only the decoder's own consistency checks
// stand between it and a loaded state.

// A record split into its fixed header and (tag, payload) sections.
struct Container {
  std::string header;  // magic | version | fingerprint | section count
  std::vector<std::pair<uint32_t, std::string>> sections;
};

Container Split(const std::string& record) {
  constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;
  Container c;
  c.header = record.substr(0, kHeaderBytes);
  ByteReader r(std::string_view(record).substr(kHeaderBytes));
  while (!r.AtEnd()) {
    uint32_t tag = 0;
    uint64_t size = 0, checksum = 0;
    std::string_view payload;
    if (!r.U32(&tag).ok() || !r.U64(&size).ok() || !r.U64(&checksum).ok() ||
        !r.Bytes(size, &payload).ok()) {
      ADD_FAILURE() << "malformed container";
      break;
    }
    c.sections.emplace_back(tag, std::string(payload));
  }
  return c;
}

// Reassembles `c`, recomputing every section's size and checksum.
std::string Join(const Container& c) {
  std::string out = c.header;
  for (const auto& [tag, payload] : c.sections) {
    ByteWriter h;
    h.U32(tag);
    h.U64(payload.size());
    h.U64(Fnv1a64(payload));
    out += h.bytes();
    out += payload;
  }
  return out;
}

void PutU32(std::string& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
}

// Byte offsets, inside a full record's MATCHER payload, of one table
// object's fields.
struct ObjectFields {
  std::vector<size_t> refs;  // u32 revision, then u32 position
  size_t payload = 0;        // u32 last_position, first_, last_revision
};

// Walks the table part of a full record's MATCHER payload (every object
// is new there, so each ships its whole chain and window).
std::vector<ObjectFields> TableObjectFields(const std::string& matcher) {
  ByteReader r(matcher);
  auto at = [&] { return matcher.size() - r.remaining(); };
  uint8_t type = 0;
  uint64_t base = 0, count = 0, skip = 0;
  std::string spelling;
  EXPECT_TRUE(r.U8(&type).ok() && r.U64(&base).ok() && r.U64(&count).ok());
  for (uint64_t i = 0; i < count; ++i) EXPECT_TRUE(r.Str(&spelling).ok());
  EXPECT_TRUE(r.U64(&skip).ok() && r.U64(&skip).ok() && r.U64(&count).ok());
  std::vector<ObjectFields> objects(static_cast<size_t>(count));
  for (ObjectFields& object : objects) {
    int64_t id = 0;
    uint8_t is_new = 0;
    uint64_t versions = 0, window = 0, entries = 0;
    uint32_t u32 = 0;
    double f64 = 0.0;
    EXPECT_TRUE(r.I64(&id).ok() && r.U8(&is_new).ok() &&
                r.U64(&versions).ok());
    for (uint64_t v = 0; v < versions; ++v) {
      object.refs.push_back(at());
      EXPECT_TRUE(r.U32(&u32).ok() && r.U32(&u32).ok());
    }
    object.payload = at();
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(r.U32(&u32).ok());
    EXPECT_TRUE(r.U64(&window).ok());
    for (uint64_t b = 0; b < window; ++b) {
      EXPECT_TRUE(r.U64(&entries).ok());
      for (uint64_t e = 0; e < entries; ++e) {
        EXPECT_TRUE(r.U32(&u32).ok() && r.F64(&f64).ok());
      }
    }
  }
  return objects;
}

// Two tables kept apart by their tokens, matched over three revisions:
// object 0 is (r, p0) and object 1 is (r, p1) for r = 0..2.
PageState TwoTableState() {
  PageState state;
  state.title = "two tables";
  for (uint32_t r = 0; r < 3; ++r) {
    extract::PageObjects objects;
    for (int p = 0; p < 2; ++p) {
      extract::ObjectInstance table;
      table.type = extract::ObjectType::kTable;
      table.position = p;
      table.rows = {{p == 0 ? "alpha" : "gamma", p == 0 ? "beta" : "delta"}};
      objects.tables.push_back(table);
    }
    state.matcher.ProcessRevision(static_cast<int>(r), objects);
    state.revisions.push_back(std::move(objects));
    state.timestamps.push_back(1000 + r);
    state.revisions_ingested = r + 1;
  }
  return state;
}

// Re-encodes TwoTableState's full record after `edit` rewrote fields of
// its MATCHER payload, checksums fixed; expects a ParseError naming
// `finding`.
template <typename Edit>
void ExpectInvariantFinding(Edit edit, const std::string& finding) {
  const std::string record = Snapshot(TwoTableState());
  Container c = Split(record);
  ASSERT_EQ(Join(c), record);
  ASSERT_TRUE(Decode({record}).ok());
  ASSERT_EQ(c.sections.size(), 3u);
  std::string& matcher = c.sections[1].second;
  const std::vector<ObjectFields> objects = TableObjectFields(matcher);
  ASSERT_EQ(objects.size(), 2u);
  ASSERT_EQ(objects[0].refs.size(), 3u);
  ASSERT_EQ(objects[1].refs.size(), 3u);
  edit(matcher, objects);
  StatusOr<PageState> decoded = Decode({Join(c)});
  ASSERT_EQ(decoded.status().code(), StatusCode::kParseError)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find(finding), std::string::npos)
      << decoded.status().ToString();
}

TEST(SnapshotInvariantTest, VersionChainMustStrictlyIncrease) {
  // Object 0: (0,0) (2,0) (2,0).
  ExpectInvariantFinding(
      [](std::string& m, const std::vector<ObjectFields>& objects) {
        PutU32(m, objects[0].refs[1], 2);
      },
      "not strictly increasing");
}

TEST(SnapshotInvariantTest, TrackedTailMustMatchGraphTail) {
  // Object 0's bookkeeping names r1 as its newest version; its chain
  // ends at r2.
  ExpectInvariantFinding(
      [](std::string& m, const std::vector<ObjectFields>& objects) {
        PutU32(m, objects[0].payload + 8, 1);
      },
      "disagrees with graph tail");
}

TEST(SnapshotInvariantTest, PositionsMustBeNonNegative) {
  ExpectInvariantFinding(
      [](std::string& m, const std::vector<ObjectFields>& objects) {
        PutU32(m, objects[0].refs[0] + 4, 0xffffffffu);
      },
      "negative revision/position");
}

TEST(SnapshotInvariantTest, InstanceBelongsToOneObject) {
  // Object 1 also claims (0, p0), object 0's first instance.
  ExpectInvariantFinding(
      [](std::string& m, const std::vector<ObjectFields>& objects) {
        PutU32(m, objects[1].refs[0] + 4, 0);
      },
      "claimed by objects 0 and 1");
}

// One seeded checksum-fixing mutation of a section payload: a bit flip,
// a truncation, a splice of another stretch of the payload, or a u64
// inflated past any plausible count.
std::string Mutate(const std::string& record, Rng& rng) {
  Container c = Split(record);
  std::string& payload = c.sections[rng.Index(c.sections.size())].second;
  if (payload.empty()) return Join(c);
  switch (rng.Index(4)) {
    case 0: {
      const size_t at = rng.Index(payload.size());
      payload[at] = static_cast<char>(payload[at] ^ (1 << rng.Index(8)));
      break;
    }
    case 1:
      payload.resize(rng.Index(payload.size()));
      break;
    case 2: {
      const size_t from = rng.Index(payload.size());
      const size_t len = 1 + rng.Index(std::min<size_t>(
                                 32, payload.size() - from));
      const std::string stretch = payload.substr(from, len);
      const size_t to = rng.Index(payload.size());
      payload.replace(to, rng.Index(33), stretch);
      break;
    }
    default: {
      if (payload.size() < 8) break;
      const size_t at = rng.Index(payload.size() - 7);
      const uint64_t inflated[] = {uint64_t{1} << 32, uint64_t{1} << 62,
                                   ~uint64_t{0}};
      ByteWriter w;
      w.U64(inflated[rng.Index(3)]);
      payload.replace(at, 8, w.bytes());
      break;
    }
  }
  return Join(c);
}

// Every mutant either fails to decode or decodes to a state the codec
// re-encodes and the matcher carries through three more revisions with
// its invariants intact.
TEST(SnapshotMutationTest, ChecksumFixedMutantsErrorOrStayValid) {
  constexpr int kMutantsPerKind = 600;
  wikigen::CorpusConfig config = TinyConfig();
  config.min_revisions = 30;
  config.max_revisions = 40;
  const xmldump::PageHistory page = SamplePage(config);
  const size_t n = page.revisions.size();
  ASSERT_GE(n, 30u);

  PageState anchor_state = StateFromPage(page, n - 6);
  const std::string anchor = Snapshot(anchor_state);
  PageState tip = StateFromPage(page, n - 3);
  const std::string full = Snapshot(tip);
  const std::string delta = Delta(tip, CaptureWatermark(anchor_state));

  Rng rng(12345);
  const auto started = std::chrono::steady_clock::now();
  int clean = 0;
  for (const bool as_delta : {false, true}) {
    for (int i = 0; i < kMutantsPerKind; ++i) {
      const std::string mutant = Mutate(as_delta ? delta : full, rng);
      StatusOr<PageState> decoded =
          as_delta ? Decode({anchor, mutant}) : Decode({mutant});
      if (!decoded.ok()) continue;
      ++clean;
      ASSERT_TRUE(EncodePageRecord(*decoded, nullptr).ok())
          << (as_delta ? "delta" : "full") << " mutant " << i;
      ExtendState(*decoded, page, n);
      ValidationReport report;
      decoded->matcher.Validate(&report);
      ASSERT_TRUE(report.ok()) << (as_delta ? "delta" : "full")
                               << " mutant " << i << ": "
                               << report.ToString();
      ASSERT_TRUE(EncodePageRecord(*decoded, nullptr).ok());
    }
  }
  EXPECT_GT(clean, 0);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  std::printf("%d mutants, %d decoded clean, %.2f s\n",
              2 * kMutantsPerKind, clean, seconds);
}

TEST(ConfigFingerprintTest, StableAndSensitive) {
  matching::MatcherConfig a, b;
  EXPECT_EQ(ConfigFingerprint(a), ConfigFingerprint(b));
  b.theta2 = 0.61;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.use_idf_weighting = false;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
  b = a;
  b.rear_view_window = 6;
  EXPECT_NE(ConfigFingerprint(a), ConfigFingerprint(b));
}

}  // namespace
}  // namespace somr::state
