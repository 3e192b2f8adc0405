// Checkpoint-I/O benchmark for the record-log context store (DESIGN.md
// §15): a realistic wikigen page state is fanned out across N contexts,
// then a dirty subset is checkpointed twice — once against a store that
// writes a full snapshot on every save (full_snapshot_every = 1) and
// once against a store extending delta chains. Reports checkpoint wall
// time, record-log bytes appended per checkpoint, and cold fault
// (Load-after-reopen) latency for both modes; the acceptance bar is
// >= 5x fewer bytes written at 1000 dirty contexts of 100000.
//
// Bytes counted are record-shard appends (the payload the delta path
// optimises). The index bytes on disk are identical in both modes and
// reported separately.
//
// save_commit_ms is the median of kSaveCommitProbes single-context
// Save() calls, each a committed save as a serve spill is, on a
// kSmallStore-context store and on the N-context delta store: what one
// commit costs as the store grows. No bar: fsync latency is the host's.
//
//   bench_state_io [--contexts=N] [--dirty=M]  # human-readable report
//   bench_state_io --json [path]               # also merge into
//                                              #   BENCH_matching.json
//                                              #   as ns_per_op.state_io
//
// Exits non-zero when the bytes-written reduction misses the bar.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "extract/wikitext_extractor.h"
#include "report.h"
#include "state/context_store.h"
#include "wikigen/corpus.h"
#include "xmldump/dump.h"

namespace {

using namespace somr;

constexpr double kAcceptanceRatio = 5.0;
constexpr int kBaseRevisions = 12;  // revisions in every resident context
constexpr size_t kFaultProbes = 32;
constexpr size_t kSaveCommitProbes = 20;
constexpr size_t kSmallStore = 1000;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

// One synthetic page history with live matcher content: tables evolving
// over a dozen revisions, the same generator the state tests replay.
xmldump::PageHistory SamplePage() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3};
  config.pages_per_stratum = 1;
  config.min_revisions = kBaseRevisions + 2;
  config.max_revisions = kBaseRevisions + 6;
  config.seed = 47;
  return wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config)).pages[0];
}

void ApplyRevision(core::PageState& state, const xmldump::Revision& rev) {
  extract::PageObjects objects = extract::ExtractFromWikitextSource(rev.text);
  state.matcher.ProcessRevision(static_cast<int>(state.revisions_ingested),
                                objects);
  state.revisions.push_back(std::move(objects));
  state.timestamps.push_back(rev.timestamp);
  state.last_revision_id = rev.id;
  state.last_timestamp = rev.timestamp;
  ++state.revisions_ingested;
}

// The matcher is deterministic, so replaying the first `revisions` of
// the page from scratch reproduces exactly the state a resident context
// would hold — the dirty template (one revision further) is a true
// descendant of the base template.
core::PageState BuildTemplate(const xmldump::PageHistory& page,
                               size_t revisions) {
  core::PageState state;
  state.page_id = page.page_id;
  for (size_t r = 0; r < revisions && r < page.revisions.size(); ++r) {
    ApplyRevision(state, page.revisions[r]);
  }
  return state;
}

std::string TitleOf(size_t i) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "Synthetic context %06zu", i);
  return buf;
}

struct ModeResult {
  double populate_ms = 0.0;
  double checkpoint_ms = 0.0;      // dirty saves + the one Commit()
  uint64_t record_bytes = 0;       // shard bytes appended by the checkpoint
  uint64_t index_bytes = 0;        // records.idx size
  double fault_us = 0.0;           // mean cold Load() of a dirty context
  uint64_t chain_bytes = 0;        // frame bytes a dirty fault replays
  uint32_t delta_depth = 0;
  double save_commit_ms = 0.0;     // median single-context Save()
};

Status RunMode(core::PageState& base, core::PageState& dirty,
               size_t contexts, size_t dirty_count, uint32_t cadence,
               ModeResult* out) {
  char dir_template[] = "/tmp/somr-bench-state-XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    return Status::Internal("mkdtemp failed");
  }
  const std::string dir = dir_template;

  state::StoreOptions options;
  options.full_snapshot_every = cadence;
  {
    state::ContextStore store(dir, {}, options);
    SOMR_RETURN_IF_ERROR(store.Open(/*create=*/true));

    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < contexts; ++i) {
      base.title = TitleOf(i);
      SOMR_RETURN_IF_ERROR(store.SaveUncommitted(base));
    }
    SOMR_RETURN_IF_ERROR(store.Commit());
    out->populate_ms = MillisSince(start);

    const uint64_t bytes_before = store.Stats().size_bytes;
    start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < dirty_count; ++i) {
      dirty.title = TitleOf(i);
      SOMR_RETURN_IF_ERROR(store.SaveUncommitted(dirty));
    }
    SOMR_RETURN_IF_ERROR(store.Commit());
    out->checkpoint_ms = MillisSince(start);
    out->record_bytes = store.Stats().size_bytes - bytes_before;

    const auto info = store.Lookup(TitleOf(0));
    if (info.has_value()) {
      out->chain_bytes = info->chain_bytes;
      out->delta_depth = info->delta_depth;
    }

    // One committed save at a time, on contexts the checkpoint left clean.
    std::vector<double> saves;
    for (size_t i = 0; i < kSaveCommitProbes && i + dirty_count < contexts;
         ++i) {
      dirty.title = TitleOf(contexts - 1 - i);
      start = std::chrono::steady_clock::now();
      SOMR_RETURN_IF_ERROR(store.Save(dirty));
      saves.push_back(MillisSince(start));
    }
    out->save_commit_ms = Median(std::move(saves));
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  out->index_bytes = fs::file_size(dir + "/records.idx", ec);

  // Cold fault: a fresh store replays dirty chains straight off disk.
  state::ContextStore reopened(dir, {}, options);
  SOMR_RETURN_IF_ERROR(reopened.Open(/*create=*/false));
  const size_t probes = std::min(dirty_count, kFaultProbes);
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < probes; ++i) {
    StatusOr<core::PageState> loaded = reopened.Load(TitleOf(i));
    SOMR_RETURN_IF_ERROR(loaded.status());
  }
  out->fault_us =
      probes == 0 ? 0.0 : MillisSince(start) * 1000.0 / probes;

  fs::remove_all(dir, ec);
  return Status::OK();
}

double BytesReduction(const ModeResult& full, const ModeResult& delta) {
  if (delta.record_bytes == 0) return static_cast<double>(full.record_bytes);
  return static_cast<double>(full.record_bytes) /
         static_cast<double>(delta.record_bytes);
}

void PrintReport(size_t contexts, size_t dirty, const ModeResult& full,
                 const ModeResult& delta, const ModeResult& small) {
  std::printf("checkpoint of %zu dirty contexts out of %zu resident\n\n",
              dirty, contexts);
  std::printf("%22s %14s %14s\n", "", "full-every-save", "delta-chain");
  std::printf("%22s %14.1f %14.1f\n", "populate ms", full.populate_ms,
              delta.populate_ms);
  std::printf("%22s %14.1f %14.1f\n", "checkpoint ms", full.checkpoint_ms,
              delta.checkpoint_ms);
  std::printf("%22s %14llu %14llu\n", "record bytes",
              static_cast<unsigned long long>(full.record_bytes),
              static_cast<unsigned long long>(delta.record_bytes));
  std::printf("%22s %14llu %14llu\n", "index bytes",
              static_cast<unsigned long long>(full.index_bytes),
              static_cast<unsigned long long>(delta.index_bytes));
  std::printf("%22s %14.1f %14.1f\n", "fault us", full.fault_us,
              delta.fault_us);
  std::printf("%22s %14llu %14llu\n", "chain bytes",
              static_cast<unsigned long long>(full.chain_bytes),
              static_cast<unsigned long long>(delta.chain_bytes));
  std::printf("%22s %14u %14u\n", "delta depth", full.delta_depth,
              delta.delta_depth);
  std::printf("%22s %14.2f %14.2f\n", "save+commit ms",
              full.save_commit_ms, delta.save_commit_ms);
  std::printf("\nbytes written per checkpoint: %.1fx fewer with deltas\n",
              BytesReduction(full, delta));
  std::printf("one committed Save: %.2f ms on %zu contexts, %.2f ms on %zu "
              "(delta chains, median of %zu)\n",
              small.save_commit_ms, kSmallStore, delta.save_commit_ms,
              contexts, kSaveCommitProbes);
}

std::string StateIoJson(size_t contexts, size_t dirty,
                        const ModeResult& full, const ModeResult& delta,
                        const ModeResult& small) {
  std::ostringstream out;
  char buf[160];
  out << "\"state_io\": {\n";
  std::snprintf(buf, sizeof buf,
                "      \"contexts\": %zu, \"dirty\": %zu,\n", contexts,
                dirty);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "      \"full_checkpoint_ms\": %.1f, "
                "\"delta_checkpoint_ms\": %.1f,\n",
                full.checkpoint_ms, delta.checkpoint_ms);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "      \"full_record_bytes\": %llu, "
                "\"delta_record_bytes\": %llu,\n",
                static_cast<unsigned long long>(full.record_bytes),
                static_cast<unsigned long long>(delta.record_bytes));
  out << buf;
  std::snprintf(buf, sizeof buf,
                "      \"full_fault_us\": %.1f, \"delta_fault_us\": %.1f,\n",
                full.fault_us, delta.fault_us);
  out << buf;
  std::snprintf(buf, sizeof buf, "      \"bytes_reduction\": %.1f,\n",
                BytesReduction(full, delta));
  out << buf;
  std::snprintf(buf, sizeof buf,
                "      \"save_commit_ms\": {\"contexts_%zu\": %.3f, "
                "\"contexts_%zu\": %.3f}\n    }",
                kSmallStore, small.save_commit_ms, contexts,
                delta.save_commit_ms);
  out << buf;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  size_t contexts = 100000;
  size_t dirty = 1000;
  bool json = false;
  std::string json_path = "BENCH_matching.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--contexts=", 0) == 0) {
      contexts = static_cast<size_t>(std::strtoull(arg.c_str() + 11,
                                                   nullptr, 10));
    } else if (arg.rfind("--dirty=", 0) == 0) {
      dirty = static_cast<size_t>(std::strtoull(arg.c_str() + 8,
                                                nullptr, 10));
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--contexts=N] [--dirty=M] [--json [path]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (dirty > contexts) dirty = contexts;

  xmldump::PageHistory page = SamplePage();
  core::PageState base = BuildTemplate(page, kBaseRevisions);
  core::PageState next = BuildTemplate(page, kBaseRevisions + 1);

  ModeResult full, delta, small;
  Status status =
      RunMode(base, next, contexts, dirty, /*cadence=*/1, &full);
  if (status.ok()) {
    status = RunMode(base, next, contexts, dirty, /*cadence=*/64, &delta);
  }
  if (status.ok()) {
    status = RunMode(base, next, kSmallStore, /*dirty_count=*/0,
                     /*cadence=*/64, &small);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "bench_state_io: %s\n", status.ToString().c_str());
    return 1;
  }

  PrintReport(contexts, dirty, full, delta, small);
  if (json &&
      !bench::MergeSection(json_path, "ns_per_op",
                           StateIoJson(contexts, dirty, full, delta, small))) {
    return 1;
  }
  if (BytesReduction(full, delta) < kAcceptanceRatio) {
    std::fprintf(stderr,
                 "*** FAIL: bytes-written reduction is %.1fx, below the "
                 "%.0fx acceptance bar ***\n",
                 BytesReduction(full, delta), kAcceptanceRatio);
    return 1;
  }
  return 0;
}
