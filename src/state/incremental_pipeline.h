#pragma once

#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/page_step.h"
#include "core/pipeline.h"
#include "state/context_store.h"
#include "xmldump/dump.h"

namespace somr::state {

/// The resumable counterpart of core::Pipeline: revision streams are
/// append-only feeds, matcher state is durable in a ContextStore, and
/// each IngestPage call applies only the revisions the store has not
/// seen, then checkpoints. Splitting a dump at any revision boundary and
/// ingesting the parts yields byte-identical identity graphs, change
/// cubes and (modulo timing) MatchStats to one batch run — the
/// split/resume equivalence test in tests/state enforces this.
class IncrementalPipeline {
 public:
  /// `store` must outlive the pipeline and be Open()ed by the caller.
  explicit IncrementalPipeline(ContextStore* store) : store_(store) {}

  /// Ingests one page history: loads its context (fresh when unseen),
  /// runs the per-page step (core::ApplyPageToState) and checkpoints.
  StatusOr<core::IngestReport> IngestPage(const xmldump::PageHistory& page);

  /// Streams a dump and ingests every page through the dump driver
  /// (core::DrivePages: the attached executor, else a local pool of
  /// `num_threads` workers when that is > 1, else the calling thread).
  /// The store commits once at the end, also after a failed page, so the
  /// pages that did save stay durable.
  StatusOr<core::IngestReport> IngestDump(std::istream& xml,
                                          unsigned num_threads = 1);

  /// Reassembles the full batch-equivalent PageResult for a stored page
  /// (identity graphs, extracted revisions, timestamps, stats) without
  /// touching the dump.
  StatusOr<core::PageResult> ResultFor(const std::string& title) const;

  /// Attaches a match-decision provenance sink (nullptr detaches); records
  /// are stamped with the page title. The sink must be thread-safe when
  /// IngestDump runs multi-threaded, and outlive every Ingest* call.
  void set_provenance_sink(obs::ProvenanceSink* sink) {
    provenance_ = sink;
  }

  /// Attaches a work-stealing pool (nullptr detaches): IngestDump runs
  /// its pages on it at any `num_threads`, and every page's matcher uses
  /// it for intra-step parallelism. Must outlive every Ingest* call;
  /// never changes results, only wall time.
  void set_executor(parallel::Executor* executor) { executor_ = executor; }

 private:
  ContextStore* store_;
  obs::ProvenanceSink* provenance_ = nullptr;  // optional, not owned
  parallel::Executor* executor_ = nullptr;     // optional, not owned
};

}  // namespace somr::state
