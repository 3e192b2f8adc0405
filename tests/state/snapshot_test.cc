#include "state/snapshot.h"

#include <gtest/gtest.h>

#include <sstream>

#include "extract/wikitext_extractor.h"
#include "wikigen/corpus.h"
#include "xmldump/dump.h"

namespace somr::state {
namespace {

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

// Builds a live PageState by running the matcher over a generated page
// history, stopping after `limit` revisions (SIZE_MAX = all).
PageState StateFromPage(const xmldump::PageHistory& page,
                        size_t limit = static_cast<size_t>(-1),
                        matching::MatcherConfig config = {}) {
  PageState state(config);
  state.title = page.title;
  state.page_id = page.page_id;
  for (const xmldump::Revision& rev : page.revisions) {
    if (state.revisions_ingested >= limit) break;
    extract::PageObjects objects =
        extract::ExtractFromWikitextSource(rev.text);
    state.matcher.ProcessRevision(
        static_cast<int>(state.revisions_ingested), objects);
    state.revisions.push_back(std::move(objects));
    state.timestamps.push_back(rev.timestamp);
    state.last_revision_id = rev.id;
    state.last_timestamp = rev.timestamp;
    ++state.revisions_ingested;
  }
  return state;
}

xmldump::PageHistory SamplePage() {
  xmldump::Dump dump =
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(TinyConfig()));
  return dump.pages[0];
}

std::string Snapshot(const PageState& state) {
  std::ostringstream out;
  Status status = SavePageSnapshot(state, out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  xmldump::PageHistory page = SamplePage();
  PageState original = StateFromPage(page);
  std::string bytes = Snapshot(original);

  std::istringstream in(bytes);
  PageState loaded;
  Status status = LoadPageSnapshot(in, matching::MatcherConfig{}, &loaded);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(loaded.title, original.title);
  EXPECT_EQ(loaded.page_id, original.page_id);
  EXPECT_EQ(loaded.last_revision_id, original.last_revision_id);
  EXPECT_EQ(loaded.last_timestamp, original.last_timestamp);
  EXPECT_EQ(loaded.revisions_ingested, original.revisions_ingested);
  EXPECT_EQ(loaded.revisions.size(), original.revisions.size());
  EXPECT_EQ(loaded.timestamps, original.timestamps);
  for (extract::ObjectType type :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    EXPECT_EQ(loaded.matcher.GraphFor(type).EdgeSet(),
              original.matcher.GraphFor(type).EdgeSet());
    EXPECT_EQ(loaded.matcher.StatsFor(type).stage1_matches,
              original.matcher.StatsFor(type).stage1_matches);
    EXPECT_EQ(loaded.matcher.StatsFor(type).new_objects,
              original.matcher.StatsFor(type).new_objects);
  }
}

TEST(SnapshotTest, SaveIsDeterministic) {
  PageState state = StateFromPage(SamplePage());
  EXPECT_EQ(Snapshot(state), Snapshot(state));
}

TEST(SnapshotTest, ReloadedStateReserializesIdentically) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  std::istringstream in(bytes);
  PageState loaded;
  ASSERT_TRUE(
      LoadPageSnapshot(in, matching::MatcherConfig{}, &loaded).ok());
  EXPECT_EQ(Snapshot(loaded), bytes);
}

TEST(SnapshotTest, ResumedMatcherContinuesExactly) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;

  // Checkpoint at `half`, reload, apply the rest.
  std::string bytes = Snapshot(StateFromPage(page, half));
  std::istringstream in(bytes);
  PageState resumed;
  ASSERT_TRUE(
      LoadPageSnapshot(in, matching::MatcherConfig{}, &resumed).ok());
  for (size_t r = half; r < page.revisions.size(); ++r) {
    extract::PageObjects objects =
        extract::ExtractFromWikitextSource(page.revisions[r].text);
    resumed.matcher.ProcessRevision(
        static_cast<int>(resumed.revisions_ingested), objects);
    resumed.revisions.push_back(std::move(objects));
    resumed.timestamps.push_back(page.revisions[r].timestamp);
    ++resumed.revisions_ingested;
  }

  PageState batch = StateFromPage(page);
  for (extract::ObjectType type :
       {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
        extract::ObjectType::kList}) {
    EXPECT_EQ(resumed.matcher.GraphFor(type).EdgeSet(),
              batch.matcher.GraphFor(type).EdgeSet());
  }
}

TEST(SnapshotTest, EmptyStateRoundTrips) {
  PageState empty;
  empty.title = "untouched";
  std::string bytes = Snapshot(empty);
  std::istringstream in(bytes);
  PageState loaded;
  ASSERT_TRUE(
      LoadPageSnapshot(in, matching::MatcherConfig{}, &loaded).ok());
  EXPECT_EQ(loaded.title, "untouched");
  EXPECT_EQ(loaded.revisions_ingested, 0u);
  EXPECT_EQ(loaded.matcher.GraphFor(extract::ObjectType::kTable)
                .ObjectCount(),
            0u);
}

TEST(SnapshotTest, RejectsBadMagic) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  bytes[0] = 'X';
  std::istringstream in(bytes);
  PageState state;
  Status status = LoadPageSnapshot(in, matching::MatcherConfig{}, &state);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(SnapshotTest, RejectsUnknownFormatVersion) {
  // 3 is the previous format (string bags, MinHash and shape signatures
  // on the wire); 0xEE was never written.
  for (uint8_t version : {uint8_t{3}, uint8_t{0xEE}}) {
    std::string bytes = Snapshot(StateFromPage(SamplePage()));
    bytes[8] = static_cast<char>(version);  // format version LE LSB
    std::istringstream in(bytes);
    PageState state;
    Status status = LoadPageSnapshot(in, matching::MatcherConfig{}, &state);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << int{version};
  }
}

TEST(SnapshotTest, RejectsConfigFingerprintMismatch) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  matching::MatcherConfig other;
  other.rear_view_window = 7;
  std::istringstream in(bytes);
  PageState state(other);
  Status status = LoadPageSnapshot(in, other, &state);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, RejectsEveryTruncationWithoutCrashing) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  // Every strict prefix must fail cleanly; stride keeps the test fast
  // while still probing every region of the format.
  const size_t stride = bytes.size() / 97 + 1;
  for (size_t len = 0; len < bytes.size(); len += stride) {
    std::istringstream in(bytes.substr(0, len));
    PageState state;
    Status status =
        LoadPageSnapshot(in, matching::MatcherConfig{}, &state);
    EXPECT_FALSE(status.ok()) << "prefix of " << len << " bytes loaded";
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
    std::istringstream in(corrupt);
    PageState state;
    Status status =
        LoadPageSnapshot(in, matching::MatcherConfig{}, &state);
    EXPECT_FALSE(status.ok()) << "flip at byte " << pos << " accepted";
  }
}

TEST(SnapshotTest, FailedLoadLeavesStateUntouched) {
  std::string bytes = Snapshot(StateFromPage(SamplePage()));
  bytes.resize(bytes.size() / 2);  // truncate mid-section
  std::istringstream in(bytes);
  PageState state;
  state.title = "sentinel";
  ASSERT_FALSE(
      LoadPageSnapshot(in, matching::MatcherConfig{}, &state).ok());
  EXPECT_EQ(state.title, "sentinel");  // no partial restore
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

std::string Delta(const PageState& state, const SnapshotWatermark& base) {
  std::ostringstream out;
  Status status = SavePageDelta(state, base, out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

TEST(DeltaSnapshotTest, SingleDeltaReplayIsByteIdentical) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;

  PageState state = StateFromPage(page, half);
  const std::string base_bytes = Snapshot(state);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, page.revisions.size());
  const std::string delta_bytes = Delta(state, base);

  // Replay: full snapshot of the base, then the delta.
  std::istringstream base_in(base_bytes);
  PageState replayed;
  ASSERT_TRUE(
      LoadPageSnapshot(base_in, matching::MatcherConfig{}, &replayed).ok());
  std::istringstream delta_in(delta_bytes);
  Status applied =
      ApplyPageDelta(delta_in, matching::MatcherConfig{}, &replayed);
  ASSERT_TRUE(applied.ok()) << applied.ToString();

  EXPECT_EQ(Snapshot(replayed), Snapshot(state));
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
  const std::string delta_bytes = Delta(state, base);  // nothing changed

  std::istringstream full_in(Snapshot(state));
  PageState replayed;
  ASSERT_TRUE(
      LoadPageSnapshot(full_in, matching::MatcherConfig{}, &replayed).ok());
  std::istringstream delta_in(delta_bytes);
  ASSERT_TRUE(
      ApplyPageDelta(delta_in, matching::MatcherConfig{}, &replayed).ok());
  EXPECT_EQ(Snapshot(replayed), Snapshot(state));
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
      xmldump::Dump dump =
          wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
      const xmldump::PageHistory& page = dump.pages[0];
      const size_t n = page.revisions.size();
      // Checkpoints: anchor at ~1/4, then three delta saves.
      const size_t marks[] = {n / 4, n / 2, 3 * n / 4, n};

      PageState state = StateFromPage(page, marks[0]);
      std::istringstream anchor_in(Snapshot(state));
      PageState replayed;
      ASSERT_TRUE(LoadPageSnapshot(anchor_in, matching::MatcherConfig{},
                                   &replayed)
                      .ok());
      for (size_t m = 1; m < 4; ++m) {
        const SnapshotWatermark base = CaptureWatermark(state);
        ExtendState(state, page, marks[m]);
        std::istringstream delta_in(Delta(state, base));
        Status applied =
            ApplyPageDelta(delta_in, matching::MatcherConfig{}, &replayed);
        ASSERT_TRUE(applied.ok())
            << applied.ToString() << " (focal " << static_cast<int>(focal)
            << " seed " << seed << " mark " << m << ")";
        ASSERT_EQ(Snapshot(replayed), Snapshot(state))
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
  std::ostringstream out;
  EXPECT_EQ(SavePageDelta(half, base, out).code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaSnapshotTest, DeltaOnWrongBaseIsParseError) {
  xmldump::PageHistory page = SamplePage();
  const size_t half = page.revisions.size() / 2;
  PageState state = StateFromPage(page, half);
  const SnapshotWatermark base = CaptureWatermark(state);
  ExtendState(state, page, page.revisions.size());
  const std::string delta_bytes = Delta(state, base);

  // Applying to a fresh (empty) state, not the base: refused.
  PageState not_base;
  not_base.title = state.title;
  std::istringstream in(delta_bytes);
  Status status =
      ApplyPageDelta(in, matching::MatcherConfig{}, &not_base);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
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
    // A failed apply may leave the base partially mutated; rebuild it
    // from the anchor snapshot for every flip.
    std::istringstream base_in(base_bytes);
    PageState replayed;
    ASSERT_TRUE(LoadPageSnapshot(base_in, matching::MatcherConfig{},
                                 &replayed)
                    .ok());
    std::istringstream in(corrupt);
    Status status =
        ApplyPageDelta(in, matching::MatcherConfig{}, &replayed);
    if (status.ok()) {
      // The flip must at minimum never silently yield the wrong state.
      EXPECT_EQ(Snapshot(replayed), want) << "flip at byte " << pos;
    }
  }
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
