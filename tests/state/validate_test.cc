// Tests for the snapshot-container validator (src/state/validate.h): a
// freshly written snapshot passes, and each seeded byte-level corruption
// (magic, truncation, checksum, fingerprint) is caught.

#include "state/validate.h"

#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "extract/object.h"
#include "matching/matcher.h"
#include "state/snapshot.h"

namespace somr::state {
namespace {

using core::PageState;

PageState MakeState() {
  PageState state;
  state.title = "Validator fixture";
  state.page_id = 7;
  extract::PageObjects rev;
  extract::ObjectInstance table;
  table.type = extract::ObjectType::kTable;
  table.position = 0;
  table.rows = {{"cell"}};
  rev.tables = {table};
  state.matcher.ProcessRevision(0, rev);
  state.revisions.push_back(rev);
  state.timestamps.push_back(1000);
  state.revisions_ingested = 1;
  return state;
}

std::string SnapshotBytes(const PageState& state) {
  StatusOr<std::string> record = EncodePageRecord(state, nullptr);
  EXPECT_TRUE(record.ok()) << record.status().ToString();
  return record.ok() ? *record : std::string();
}

TEST(ValidateSnapshotTest, FreshSnapshotPasses) {
  PageState state = MakeState();
  std::string bytes = SnapshotBytes(state);
  matching::MatcherConfig config;
  ValidationReport report;
  ValidateSnapshotBytes(bytes, &config, &report);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ValidateSnapshotTest, CatchesBadMagic) {
  std::string bytes = SnapshotBytes(MakeState());
  bytes[0] = 'X';
  ValidationReport report;
  ValidateSnapshotBytes(bytes, nullptr, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("magic"), std::string::npos)
      << report.ToString();
}

TEST(ValidateSnapshotTest, CatchesTruncation) {
  std::string bytes = SnapshotBytes(MakeState());
  bytes.resize(bytes.size() / 2);
  ValidationReport report;
  ValidateSnapshotBytes(bytes, nullptr, &report);
  EXPECT_FALSE(report.ok());
}

TEST(ValidateSnapshotTest, CatchesPayloadCorruption) {
  std::string bytes = SnapshotBytes(MakeState());
  // Flip one payload byte near the end; the section checksum must trip.
  bytes[bytes.size() - 2] = static_cast<char>(bytes[bytes.size() - 2] ^ 0x5a);
  ValidationReport report;
  ValidateSnapshotBytes(bytes, nullptr, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("checksum"), std::string::npos)
      << report.ToString();
}

TEST(ValidateSnapshotTest, CatchesFingerprintMismatch) {
  std::string bytes = SnapshotBytes(MakeState());
  matching::MatcherConfig other;
  other.rear_view_window += 3;  // resumed under a different window
  ValidationReport report;
  ValidateSnapshotBytes(bytes, &other, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.ToString().find("fingerprint"), std::string::npos)
      << report.ToString();
}

TEST(ValidateSnapshotTest, ReportsPreviousFormatVersion) {
  // Records written by the format-v4 codec (separate full and delta
  // MATCHER layouts) and the format-v3 codec (string bags, MinHash and
  // shape signatures on the wire) must be reported, not read.
  for (int version : {3, 4}) {
    std::string bytes = SnapshotBytes(MakeState());
    bytes[8] = static_cast<char>(version);  // format version, LE LSB
    ValidationReport report;
    ValidateSnapshotBytes(bytes, nullptr, &report);
    EXPECT_FALSE(report.ok());
    EXPECT_NE(report.ToString().find("unsupported format version " +
                                     std::to_string(version)),
              std::string::npos)
        << report.ToString();
  }
}

TEST(ValidateSnapshotTest, MissingFileIsReported) {
  ValidationReport report;
  ValidateSnapshotFile("/nonexistent/somr.snap", nullptr, &report);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace somr::state
