#pragma once

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/dump_driver.h"
#include "extract/object.h"
#include "matching/matcher.h"
#include "obs/provenance.h"
#include "xmldump/dump.h"

namespace somr::core {

/// Everything the pipeline produces for one page: the per-type identity
/// graphs, the extracted instances they refer to, and runtime stats.
struct PageResult {
  std::string title;
  std::vector<extract::PageObjects> revisions;  // extracted instances
  std::vector<UnixSeconds> timestamps;          // one per revision
  matching::IdentityGraph tables{extract::ObjectType::kTable};
  matching::IdentityGraph infoboxes{extract::ObjectType::kInfobox};
  matching::IdentityGraph lists{extract::ObjectType::kList};
  matching::MatchStats table_stats;
  matching::MatchStats infobox_stats;
  matching::MatchStats list_stats;

  const matching::IdentityGraph& GraphFor(extract::ObjectType type) const;
};

/// The end-to-end public API: MediaWiki dump XML (or per-page histories)
/// in, identity graphs out. Parsing, extraction and matching use the
/// paper's published configuration by default.
class Pipeline {
 public:
  Pipeline() = default;
  explicit Pipeline(matching::MatcherConfig config) : config_(config) {}

  /// Processes a full dump read into memory with xmldump::ReadDump, which
  /// rejects a dump truncated mid-page, as ProcessDumpStream does. The
  /// pages go through the dump driver (core/dump_driver.h): on the
  /// executor attached via set_executor when there is one, else on a
  /// local pool of `num_threads` workers when that is > 1, else one after
  /// another on the calling thread. Results keep dump order and are
  /// bit-identical at any thread count.
  StatusOr<std::vector<PageResult>> ProcessDumpXml(
      std::string_view xml, unsigned num_threads = 1) const;

  /// Streaming variant: reads `<page>` blocks from `input` one at a time
  /// (xmldump::PageStreamReader), so the whole dump is never in memory.
  /// Executor choice, order and results are ProcessDumpXml's.
  StatusOr<std::vector<PageResult>> ProcessDumpStream(
      std::istream& input, unsigned num_threads = 1) const;

  /// Processes one page history: the per-page step (core/page_step.h) on
  /// a fresh PageState. Revisions whose model is "html" are parsed as
  /// HTML; all others as wikitext.
  PageResult ProcessPage(const xmldump::PageHistory& page) const;

  const matching::MatcherConfig& config() const { return config_; }

  /// Attaches a match-decision provenance sink (nullptr detaches). The
  /// sink receives one record per matcher decision, stamped with the page
  /// title; it must be thread-safe when pages run on an executor, and
  /// must outlive every subsequent Process* call.
  void set_provenance_sink(obs::ProvenanceSink* sink) {
    provenance_ = sink;
  }

  /// Attaches a work-stealing pool (nullptr detaches). The dump entry
  /// points then run their pages on it at any `num_threads`, and every
  /// page's matchers use it for intra-step parallelism. The executor must
  /// outlive every subsequent Process* call. Attaching one never changes
  /// results, only wall time.
  void set_executor(parallel::Executor* executor) { executor_ = executor; }

 private:
  /// Runs the driver over `next_page`, one fresh-state step per page.
  StatusOr<std::vector<PageResult>> ProcessPages(const PageSource& next_page,
                                                 unsigned num_threads) const;

  matching::MatcherConfig config_;
  obs::ProvenanceSink* provenance_ = nullptr;  // optional, not owned
  parallel::Executor* executor_ = nullptr;     // optional, not owned
};

}  // namespace somr::core
