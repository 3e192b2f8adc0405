#pragma once

#include <cstdint>
#include <vector>

#include "wikigen/evolver.h"
#include "xmldump/dump.h"

namespace somr::wikigen {

/// Configuration of the stratified gold corpus, mirroring the paper's
/// sampling (Sec. V-A): for the focal object type, `pages_per_stratum`
/// pages are generated per stratum, where stratum i caps the number of
/// simultaneous focal objects at `strata_caps[i]` (paper: 1, 3, 7, 15,
/// 31, 64).
struct CorpusConfig {
  extract::ObjectType focal_type = extract::ObjectType::kTable;
  std::vector<int> strata_caps = {1, 3, 7, 15, 31, 64};
  int pages_per_stratum = 15;
  int min_revisions = 80;
  int max_revisions = 220;
  uint64_t seed = 42;
};

/// A generated gold-standard corpus: page histories plus ground truth.
struct GoldCorpus {
  extract::ObjectType focal_type = extract::ObjectType::kTable;
  std::vector<GeneratedPage> pages;
  /// The stratum cap each page was generated under (parallel to pages).
  std::vector<int> page_stratum_cap;
};

/// Generates the stratified gold corpus for one focal object type.
GoldCorpus GenerateGoldCorpus(const CorpusConfig& config);

/// Converts a corpus to a MediaWiki XML dump structure (wikitext
/// revisions), exercising the same ingestion path as a real dump.
xmldump::Dump CorpusToDump(const GoldCorpus& corpus);

/// The corpus behind every tool's --demo mode: table pages under strata
/// caps {3, 8}, 3 pages per stratum, 25-60 revisions each, seed 4. The
/// smoke tests compare the tools' outputs on it byte for byte.
xmldump::Dump DemoDump();

}  // namespace somr::wikigen
