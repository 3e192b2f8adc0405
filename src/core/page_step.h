#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time_util.h"
#include "core/pipeline.h"
#include "extract/object.h"
#include "extract/wikitext_extractor.h"
#include "matching/matcher.h"
#include "obs/provenance.h"
#include "xmldump/dump.h"

namespace somr::core {

/// The per-page matching context: everything needed to resume Algorithm 1
/// mid-stream and to regenerate every derived output (identity graphs,
/// change cube, classification) without reprocessing history.
///
/// `matcher` carries the live online state (token pool, rear-view FlatBag
/// windows, decay/tie-break bookkeeping, identity graphs, match stats);
/// `revisions`/`timestamps` carry the extracted instance history the
/// change-cube diff needs. Revision bookkeeping identifies what has been
/// applied so later calls can skip already-seen revisions.
struct PageState {
  explicit PageState(matching::MatcherConfig config = {})
      : matcher(config) {}

  std::string title;
  int64_t page_id = 0;
  /// Highest MediaWiki revision id applied (0 when the feed carries no
  /// ids — then `revisions_ingested` ordinals drive the skip logic).
  int64_t last_revision_id = 0;
  UnixSeconds last_timestamp = 0;
  /// Number of revisions applied to the matcher == the next revision
  /// index (revision indices are global over the page's lifetime).
  uint32_t revisions_ingested = 0;

  matching::PageMatcher matcher;
  std::vector<extract::PageObjects> revisions;
  std::vector<UnixSeconds> timestamps;

  /// The last wikitext revision's object elements, which the next
  /// revision reuses where its bytes repeat (DESIGN.md §17). Derived
  /// state: snapshots do not carry it, so a state decoded from a store
  /// starts it empty and parses its next revision in full.
  extract::WikitextHistory wikitext;
};

/// What one step (or, summed, one dump) did.
struct IngestReport {
  size_t pages = 0;
  size_t new_revisions = 0;
  size_t skipped_revisions = 0;  // already applied to the state

  void Add(const IngestReport& other) {
    pages += other.pages;
    new_revisions += other.new_revisions;
    skipped_revisions += other.skipped_revisions;
  }
};

/// The per-page step of every mode and the only code that extracts and
/// matches a page: batch runs it on a fresh state, ingest on one loaded
/// from a store, serve on a resident one. Revisions the state has seen
/// are skipped: by id when the feed carries ids (id <= the state's last
/// id at the start of the call; resuming by id needs increasing ids
/// across calls), else by ordinal (such feeds restate history from
/// revision 0). The unseen revisions are extracted first, in order,
/// through the state's wikitext history, then matched in order. Sets an
/// unset title and page id and updates the per-page metrics; does not
/// persist `state`. `provenance` (nullable) receives match decisions
/// stamped with the page title; `executor` (nullable) parallelizes
/// matcher-internal steps without changing results.
IngestReport ApplyPageToState(PageState& state,
                              const xmldump::PageHistory& page,
                              obs::ProvenanceSink* provenance,
                              parallel::Executor* executor);

/// Converts a page state into the pipeline's result form, consuming the
/// matcher (graphs and stats are moved out).
PageResult StateToResult(PageState state);

}  // namespace somr::core
