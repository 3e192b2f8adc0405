#pragma once

// Snapshot-container validator (DESIGN.md §11): verifies a record written
// by EncodePageRecord without materializing a core::PageState — magic, format
// version, section framing within bounds, every section's FNV-1a64
// checksum against its payload bytes and the required sections, through
// the codec's own container reader. Optionally checks the config
// fingerprint against an expected configuration.

#include <string_view>

#include "common/check.h"
#include "matching/matcher.h"

namespace somr::state {

/// Appends the first container-level violation found in `bytes` to
/// `report`. With a non-null `expected_config`, also flags a fingerprint
/// mismatch (a snapshot resumed under different thresholds/windows).
void ValidateSnapshotBytes(std::string_view bytes,
                           const matching::MatcherConfig* expected_config,
                           ValidationReport* report);

/// Reads `path` and validates it; unreadable files are reported as issues.
void ValidateSnapshotFile(const std::string& path,
                          const matching::MatcherConfig* expected_config,
                          ValidationReport* report);

SOMR_REGISTER_VALIDATOR(snapshot, "snapshot",
                        "snapshot containers carry a valid header, "
                        "in-bounds section framing, matching FNV-1a64 "
                        "section checksums, and the expected config "
                        "fingerprint");

}  // namespace somr::state
