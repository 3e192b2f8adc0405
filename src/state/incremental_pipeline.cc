#include "state/incremental_pipeline.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <utility>

#include "extract/html_extractor.h"
#include "extract/wikitext_extractor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/mpmc_channel.h"
#include "xmldump/stream_reader.h"

namespace somr::state {

namespace {

struct IngestMetrics {
  obs::Counter* pages;
  obs::Counter* pages_skipped;
  obs::Counter* new_revisions;
  obs::Counter* skipped_revisions;
};

const IngestMetrics& GetIngestMetrics() {
  static const IngestMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    IngestMetrics m;
    m.pages = reg.GetCounter("somr_ingest_pages_total",
                             "Page histories ingested into a context store");
    m.pages_skipped = reg.GetCounter(
        "somr_ingest_pages_skipped_total",
        "Page ingests where every offered revision was already present");
    m.new_revisions =
        reg.GetCounter("somr_ingest_revisions_new_total",
                       "Revisions applied to matcher state on ingest");
    m.skipped_revisions = reg.GetCounter(
        "somr_ingest_revisions_skipped_total",
        "Revisions skipped on ingest (already in the context store)");
    return m;
  }();
  return metrics;
}

}  // namespace

StatusOr<IngestReport> IncrementalPipeline::IngestPage(
    const xmldump::PageHistory& page) {
  return IngestPageWith(page, executor_);
}

StatusOr<IngestReport> IncrementalPipeline::IngestPageWith(
    const xmldump::PageHistory& page, parallel::Executor* executor,
    bool commit) {
  SOMR_TRACE_SCOPE_CAT("state", "state/ingest_page");
  PageState state(store_->config());
  if (store_->Contains(page.title)) {
    StatusOr<PageState> loaded = store_->Load(page.title);
    if (!loaded.ok()) return loaded.status();
    state = std::move(*loaded);
  } else {
    state.title = page.title;
    state.page_id = page.page_id;
  }

  IngestReport report = ApplyPageToState(state, page, provenance_, executor);

  if (report.new_revisions > 0 || !store_->Contains(page.title)) {
    SOMR_RETURN_IF_ERROR(commit ? store_->Save(state)
                                : store_->SaveUncommitted(state));
  }
  return report;
}

IngestReport ApplyPageToState(PageState& state,
                              const xmldump::PageHistory& page,
                              obs::ProvenanceSink* provenance,
                              parallel::Executor* executor) {
  SOMR_TRACE_SCOPE_CAT("state", "state/apply_page");
  if (state.page_id == 0) state.page_id = page.page_id;
  if (executor != nullptr) state.matcher.SetExecutor(executor);
  obs::PageScopedSink scoped(provenance, page.title);
  if (scoped.active()) state.matcher.SetProvenanceSink(&scoped);

  IngestReport report;
  report.pages = 1;
  // Starts empty: skipped revisions are never parsed.
  extract::WikitextHistory wikitext;
  size_t ordinal = 0;
  for (const xmldump::Revision& rev : page.revisions) {
    const bool seen = rev.id > 0
                          ? rev.id <= state.last_revision_id
                          : ordinal < state.revisions_ingested;
    ++ordinal;
    if (seen) {
      ++report.skipped_revisions;
      continue;
    }
    extract::PageObjects objects =
        rev.model == "html" ? extract::ExtractFromHtmlSource(rev.text)
                            : wikitext.Next(rev.text);
    state.matcher.ProcessRevision(
        static_cast<int>(state.revisions_ingested), objects);
    state.revisions.push_back(std::move(objects));
    state.timestamps.push_back(rev.timestamp);
    state.last_revision_id = std::max(state.last_revision_id, rev.id);
    state.last_timestamp = rev.timestamp;
    ++state.revisions_ingested;
    ++report.new_revisions;
  }

  if (scoped.active()) state.matcher.SetProvenanceSink(nullptr);
  const IngestMetrics& metrics = GetIngestMetrics();
  metrics.pages->Increment();
  if (report.new_revisions > 0) {
    metrics.new_revisions->Increment(report.new_revisions);
  }
  if (report.skipped_revisions > 0) {
    metrics.skipped_revisions->Increment(report.skipped_revisions);
  }
  // A page whose every revision was already present used to vanish
  // silently into the skipped-revisions aggregate; count it explicitly
  // so feeds that restate history show up in monitoring.
  if (report.new_revisions == 0 && report.skipped_revisions > 0) {
    metrics.pages_skipped->Increment();
  }
  return report;
}

StatusOr<IngestReport> IncrementalPipeline::IngestDump(
    std::istream& xml, unsigned num_threads) {
  xmldump::PageStreamReader reader(xml);
  IngestReport total;

  if (num_threads <= 1 && executor_ == nullptr) {
    while (std::optional<xmldump::PageHistory> page = reader.NextPage()) {
      StatusOr<IngestReport> report =
          IngestPageWith(*page, nullptr, /*commit=*/false);
      if (!report.ok()) return report.status();
      total.Add(*report);
    }
    SOMR_RETURN_IF_ERROR(store_->Commit());
    if (!reader.status().ok()) return reader.status();
    return total;
  }

  // Bounded producer/consumer on the pool: the calling thread parses
  // page blocks and Pushes them into the channel, one consumer job per
  // worker ingests them. Pages shard naturally (each owns one record
  // chain); the record log serializes appends internally, and the
  // index/manifest rewrite is deferred to a single Commit below. After
  // a failure the producer stops feeding (consumers still drain what was
  // queued), and the first error wins.
  std::optional<parallel::Executor> local_pool;
  parallel::Executor* exec = executor_;
  if (exec == nullptr) {
    local_pool.emplace(num_threads);
    exec = &*local_pool;
  }
  const unsigned consumers = exec->num_workers();

  parallel::Channel<xmldump::PageHistory> channel(
      static_cast<size_t>(consumers) * 2);
  std::mutex mu;
  Status first_error;
  std::atomic<bool> failed{false};

  parallel::TaskGroup group(*exec);
  for (unsigned c = 0; c < consumers; ++c) {
    group.Run([this, exec, &channel, &mu, &total, &first_error, &failed] {
      xmldump::PageHistory page;
      while (channel.Pop(page)) {
        StatusOr<IngestReport> report =
            IngestPageWith(page, exec, /*commit=*/false);
        std::lock_guard<std::mutex> lock(mu);
        if (report.ok()) {
          total.Add(*report);
        } else if (first_error.ok()) {
          first_error = report.status();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }

  while (std::optional<xmldump::PageHistory> page = reader.NextPage()) {
    if (failed.load(std::memory_order_relaxed)) break;
    channel.Push(*std::move(page));
  }
  channel.Close();
  group.Wait();

  // Commit even on a partial run: pages that did save stay durable.
  Status committed = store_->Commit();
  if (!first_error.ok()) return first_error;
  SOMR_RETURN_IF_ERROR(committed);
  if (!reader.status().ok()) return reader.status();
  return total;
}

StatusOr<core::PageResult> IncrementalPipeline::ResultFor(
    const std::string& title) const {
  StatusOr<PageState> state = store_->Load(title);
  if (!state.ok()) return state.status();
  return StateToResult(std::move(*state));
}

core::PageResult StateToResult(PageState state) {
  core::PageResult result;
  result.title = state.title;
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

}  // namespace somr::state
