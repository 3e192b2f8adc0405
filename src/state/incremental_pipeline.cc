#include "state/incremental_pipeline.h"

#include <utility>

#include "core/dump_driver.h"
#include "obs/trace.h"
#include "xmldump/stream_reader.h"

namespace somr::state {

namespace {

/// Ingest is the per-page step between a load (or a fresh state) and a
/// save. `commit` false leaves the store's commit and its fsyncs to one
/// ContextStore::Commit by the caller, so per-page appends stay
/// sequential writes.
StatusOr<core::IngestReport> IngestInto(ContextStore& store,
                                        const xmldump::PageHistory& page,
                                        obs::ProvenanceSink* provenance,
                                        parallel::Executor* executor,
                                        bool commit) {
  SOMR_TRACE_SCOPE_CAT("state", "state/ingest_page");
  const bool stored = store.Contains(page.title);
  core::PageState state(store.config());
  if (stored) {
    StatusOr<core::PageState> loaded = store.Load(page.title);
    if (!loaded.ok()) return loaded.status();
    state = std::move(*loaded);
  }

  core::IngestReport report =
      core::ApplyPageToState(state, page, provenance, executor);

  if (report.new_revisions > 0 || !stored) {
    SOMR_RETURN_IF_ERROR(commit ? store.Save(state)
                                : store.SaveUncommitted(state));
  }
  return report;
}

}  // namespace

StatusOr<core::IngestReport> IncrementalPipeline::IngestPage(
    const xmldump::PageHistory& page) {
  return IngestInto(*store_, page, provenance_, executor_, /*commit=*/true);
}

StatusOr<core::IngestReport> IncrementalPipeline::IngestDump(
    std::istream& xml, unsigned num_threads) {
  xmldump::PageStreamReader reader(xml);
  // Pages shard naturally (each owns one record chain) and the record log
  // serializes appends internally.
  StatusOr<std::vector<core::IngestReport>> reports =
      core::DrivePages<core::IngestReport>(
          [&reader] { return reader.NextPage(); }, executor_, num_threads,
          [this](const xmldump::PageHistory& page,
                 parallel::Executor* executor) {
            return IngestInto(*store_, page, provenance_, executor,
                              /*commit=*/false);
          });

  // Commit even on a partial run: pages that did save stay durable.
  Status committed = store_->Commit();
  if (!reports.ok()) return reports.status();
  SOMR_RETURN_IF_ERROR(committed);
  SOMR_RETURN_IF_ERROR(reader.status());
  core::IngestReport total;
  for (const core::IngestReport& report : *reports) total.Add(report);
  return total;
}

StatusOr<core::PageResult> IncrementalPipeline::ResultFor(
    const std::string& title) const {
  StatusOr<core::PageState> state = store_->Load(title);
  if (!state.ok()) return state.status();
  return core::StateToResult(std::move(*state));
}

}  // namespace somr::state
