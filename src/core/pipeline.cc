#include "core/pipeline.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "core/page_step.h"
#include "obs/trace.h"
#include "xmldump/stream_reader.h"

namespace somr::core {

namespace {

/// Batch is the per-page step on a fresh state.
PageResult ProcessFreshPage(const xmldump::PageHistory& page,
                            const matching::MatcherConfig& config,
                            obs::ProvenanceSink* provenance,
                            parallel::Executor* executor) {
  SOMR_TRACE_SCOPE_CAT("pipeline", "pipeline/page");
  PageState state(config);
  ApplyPageToState(state, page, provenance, executor);
  return StateToResult(std::move(state));
}

}  // namespace

const matching::IdentityGraph& PageResult::GraphFor(
    extract::ObjectType type) const {
  switch (type) {
    case extract::ObjectType::kTable:
      return tables;
    case extract::ObjectType::kInfobox:
      return infoboxes;
    case extract::ObjectType::kList:
      return lists;
  }
  std::abort();  // unreachable: all ObjectType values handled above
}

PageResult Pipeline::ProcessPage(const xmldump::PageHistory& page) const {
  return ProcessFreshPage(page, config_, provenance_, executor_);
}

StatusOr<std::vector<PageResult>> Pipeline::ProcessPages(
    const PageSource& next_page, unsigned num_threads) const {
  return DrivePages<PageResult>(
      next_page, executor_, num_threads,
      [this](const xmldump::PageHistory& page,
             parallel::Executor* executor) -> StatusOr<PageResult> {
        return ProcessFreshPage(page, config_, provenance_, executor);
      });
}

StatusOr<std::vector<PageResult>> Pipeline::ProcessDumpXml(
    std::string_view xml, unsigned num_threads) const {
  StatusOr<xmldump::Dump> dump = [xml] {
    SOMR_TRACE_SCOPE_CAT("pipeline", "pipeline/read_dump");
    return xmldump::ReadDump(xml);
  }();
  if (!dump.ok()) return dump.status();
  size_t next = 0;
  return ProcessPages(
      [&dump, &next]() -> std::optional<xmldump::PageHistory> {
        if (next == dump->pages.size()) return std::nullopt;
        return std::move(dump->pages[next++]);
      },
      num_threads);
}

StatusOr<std::vector<PageResult>> Pipeline::ProcessDumpStream(
    std::istream& input, unsigned num_threads) const {
  xmldump::PageStreamReader reader(input);
  StatusOr<std::vector<PageResult>> results =
      ProcessPages([&reader] { return reader.NextPage(); }, num_threads);
  SOMR_RETURN_IF_ERROR(reader.status());
  return results;
}

}  // namespace somr::core
