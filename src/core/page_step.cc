#include "core/page_step.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace somr::core {

namespace {

struct StepMetrics {
  obs::Counter* pages;
  obs::Counter* revisions;
  obs::Counter* pages_skipped;
  obs::Counter* skipped_revisions;
  obs::Histogram* page_seconds;
};

const StepMetrics& GetStepMetrics() {
  static const StepMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    StepMetrics m;
    m.pages = reg.GetCounter("somr_pipeline_pages_total",
                             "Per-page steps run (batch, ingest, serve)");
    m.revisions = reg.GetCounter("somr_pipeline_revisions_total",
                                 "Page revisions extracted and matched");
    m.pages_skipped = reg.GetCounter(
        "somr_ingest_pages_skipped_total",
        "Page ingests where every offered revision was already present");
    m.skipped_revisions = reg.GetCounter(
        "somr_ingest_revisions_skipped_total",
        "Revisions skipped by the per-page step (already applied)");
    m.page_seconds = reg.GetHistogram(
        "somr_pipeline_page_seconds",
        "Wall time of one per-page step", 1e-4, 2.0, 20);
    return m;
  }();
  return metrics;
}

}  // namespace

IngestReport ApplyPageToState(PageState& state,
                              const xmldump::PageHistory& page,
                              obs::ProvenanceSink* provenance,
                              parallel::Executor* executor) {
  SOMR_TRACE_SCOPE_CAT("state", "state/apply_page");
  Timer timer;
  if (state.title.empty()) state.title = page.title;
  if (state.page_id == 0) state.page_id = page.page_id;

  // The watermark is read once: a revision is compared with what earlier
  // calls applied, never with the ids of this call.
  const int64_t seen_id = state.last_revision_id;
  const uint32_t seen_count = state.revisions_ingested;
  IngestReport report;
  report.pages = 1;
  const size_t first_new = state.revisions.size();
  for (size_t ordinal = 0; ordinal < page.revisions.size(); ++ordinal) {
    const xmldump::Revision& rev = page.revisions[ordinal];
    if (rev.id > 0 ? rev.id <= seen_id : ordinal < seen_count) {
      ++report.skipped_revisions;
      continue;
    }
    state.revisions.push_back(eval::ExtractRevision(rev, state.wikitext));
    state.timestamps.push_back(rev.timestamp);
    state.last_revision_id = std::max(state.last_revision_id, rev.id);
    state.last_timestamp = rev.timestamp;
  }
  report.new_revisions = state.revisions.size() - first_new;

  if (executor != nullptr) state.matcher.SetExecutor(executor);
  obs::PageScopedSink scoped(provenance, page.title);
  if (scoped.active()) state.matcher.SetProvenanceSink(&scoped);
  for (size_t r = first_new; r < state.revisions.size(); ++r) {
    state.matcher.ProcessRevision(static_cast<int>(state.revisions_ingested),
                                  state.revisions[r]);
    ++state.revisions_ingested;
  }
  if (scoped.active()) state.matcher.SetProvenanceSink(nullptr);

  const StepMetrics& metrics = GetStepMetrics();
  metrics.pages->Increment();
  if (report.new_revisions > 0) {
    metrics.revisions->Increment(report.new_revisions);
  }
  if (report.skipped_revisions > 0) {
    metrics.skipped_revisions->Increment(report.skipped_revisions);
  }
  // Count a page whose every revision was already present, so feeds that
  // restate history show up in monitoring.
  if (report.new_revisions == 0 && report.skipped_revisions > 0) {
    metrics.pages_skipped->Increment();
  }
  metrics.page_seconds->Observe(timer.ElapsedSeconds());
  return report;
}

PageResult StateToResult(PageState state) {
  PageResult result;
  result.title = std::move(state.title);
  result.revisions = std::move(state.revisions);
  result.timestamps = std::move(state.timestamps);
  result.tables = state.matcher.TakeGraph(extract::ObjectType::kTable);
  result.infoboxes = state.matcher.TakeGraph(extract::ObjectType::kInfobox);
  result.lists = state.matcher.TakeGraph(extract::ObjectType::kList);
  result.table_stats = state.matcher.TakeStats(extract::ObjectType::kTable);
  result.infobox_stats =
      state.matcher.TakeStats(extract::ObjectType::kInfobox);
  result.list_stats = state.matcher.TakeStats(extract::ObjectType::kList);
  return result;
}

}  // namespace somr::core
