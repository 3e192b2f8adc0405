#include "state/validate.h"

#include <string>

#include "common/hash.h"
#include "common/string_util.h"
#include "state/serde.h"
#include "state/snapshot.h"

namespace somr::state {

void ValidateSnapshotBytes(std::string_view bytes,
                           const matching::MatcherConfig* expected_config,
                           ValidationReport* report) {
  ByteReader r(bytes);
  // Full snapshots and delta records share the container layout; only
  // the magic differs.
  bool full = true, delta = true;
  for (size_t i = 0; i < sizeof(kMagic); ++i) {
    uint8_t byte = 0;
    if (!r.U8(&byte).ok()) {
      report->AddIssue("snapshot") << "bad magic (not a somr snapshot)";
      return;
    }
    full = full && byte == static_cast<uint8_t>(kMagic[i]);
    delta = delta && byte == static_cast<uint8_t>(kDeltaMagic[i]);
  }
  if (!full && !delta) {
    report->AddIssue("snapshot") << "bad magic (not a somr snapshot)";
    return;
  }
  uint32_t version = 0;
  if (!r.U32(&version).ok()) {
    report->AddIssue("snapshot") << "truncated before format version";
    return;
  }
  if (version != kFormatVersion) {
    report->AddIssue("snapshot")
        << "unsupported format version " << version << " (expected "
        << kFormatVersion << ")";
    return;
  }
  uint64_t fingerprint = 0;
  if (!r.U64(&fingerprint).ok()) {
    report->AddIssue("snapshot") << "truncated before config fingerprint";
    return;
  }
  if (expected_config != nullptr &&
      fingerprint != ConfigFingerprint(*expected_config)) {
    report->AddIssue("snapshot")
        << "config fingerprint mismatch (snapshot written under a "
           "different MatcherConfig)";
  }
  uint32_t section_count = 0;
  if (!r.U32(&section_count).ok()) {
    report->AddIssue("snapshot") << "truncated before section count";
    return;
  }
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t tag = 0;
    uint64_t size = 0, checksum = 0;
    if (!r.U32(&tag).ok() || !r.U64(&size).ok() || !r.U64(&checksum).ok()) {
      report->AddIssue("snapshot")
          << "truncated in header of section " << s << " of "
          << section_count;
      return;
    }
    std::string payload;
    if (!r.Bytes(size, &payload).ok()) {
      report->AddIssue("snapshot")
          << "section " << tag << " payload cut short (declared " << size
          << " bytes)";
      return;
    }
    if (Fnv1a64(payload) != checksum) {
      report->AddIssue("snapshot")
          << "section " << tag << " checksum mismatch over " << size
          << " payload bytes";
    }
  }
  if (!r.AtEnd()) {
    report->AddIssue("snapshot") << "trailing bytes after last section";
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
