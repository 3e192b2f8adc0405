#include "state/validate.h"

#include <string>

#include "common/string_util.h"
#include "state/serde.h"
#include "state/snapshot.h"

namespace somr::state {

void ValidateSnapshotBytes(std::string_view bytes,
                           const matching::MatcherConfig* expected_config,
                           ValidationReport* report) {
  // Full snapshots and delta records share the container layout; the
  // codec's own reader checks it.
  RecordSections sections;
  Status status = ReadRecordSections(bytes, &sections);
  if (!status.ok()) {
    report->AddIssue("snapshot") << status.message();
    return;
  }
  if (expected_config != nullptr &&
      sections.fingerprint != ConfigFingerprint(*expected_config)) {
    report->AddIssue("snapshot")
        << "config fingerprint mismatch (snapshot written under a "
           "different MatcherConfig)";
  }
}

void ValidateSnapshotFile(const std::string& path,
                          const matching::MatcherConfig* expected_config,
                          ValidationReport* report) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    report->AddIssue("snapshot")
        << "cannot read " << path << ": " << bytes.status().ToString();
    return;
  }
  ValidateSnapshotBytes(*bytes, expected_config, report);
}

}  // namespace somr::state
