// somr_ingest — checkpointed incremental ingestion: feed MediaWiki dump
// XML (full dumps or append-only revision feeds) into a durable context
// store (one record chain per page in a sharded append-only log),
// resumable at any revision boundary.
//
//   somr_ingest --state-dir=/var/somr init first-dump.xml --threads=8
//   somr_ingest --state-dir=/var/somr append todays-feed.xml
//   somr_ingest --state-dir=/var/somr status
//   somr_ingest --state-dir=/var/somr export --graphs-out=g.txt
//
// `--demo` replaces the dump argument with a generated corpus: `init
// --demo` ingests the first half of every page's history, `append
// --demo` feeds the full corpus again (the already-ingested half is
// skipped) — an end-to-end resumability demo with no input files.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/flags.h"
#include "common/percentile.h"
#include "common/time_util.h"
#include "core/change_cube.h"
#include "matching/graph_io.h"
#include "obs/cli.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "state/context_store.h"
#include "state/incremental_pipeline.h"
#include "wikigen/corpus.h"

namespace {

using namespace somr;

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

int Fail(const Status& status) {
  std::fprintf(stderr, "somr_ingest: %s\n", status.ToString().c_str());
  return 1;
}

int RunIngest(state::ContextStore& store, const FlagParser& flags,
              bool init) {
  obs::CliObservability obs;
  if (Status status = obs.Init(flags); !status.ok()) return Fail(status);

  state::IncrementalPipeline pipeline(&store);
  pipeline.set_provenance_sink(obs.provenance());
  const unsigned threads = parallel::Executor::ResolveThreads(
      static_cast<unsigned>(flags.GetInt("threads")));
  std::printf("threads: %u%s\n", threads,
              flags.GetInt("threads") == 0 ? " (auto)" : "");
  std::optional<parallel::Executor> pool;
  if (threads > 1) {
    pool.emplace(threads);
    pipeline.set_executor(&*pool);
    // Record-log compactions triggered by the end-of-dump commit run on
    // the same pool the pages did.
    store.set_executor(&*pool);
  }

  StatusOr<core::IngestReport> report =
      Status::Internal("no input processed");
  {
    // Scoped so the span ends before obs.Finish() exports the trace.
    SOMR_TRACE_SCOPE_CAT("somr", "somr/run");
    if (flags.GetBool("demo")) {
      xmldump::Dump dump = wikigen::DemoDump();
      if (init) {
        // Prefix: the first half of every page's history.
        for (xmldump::PageHistory& page : dump.pages) {
          page.revisions.resize(page.revisions.size() / 2);
        }
      }
      std::istringstream in(xmldump::WriteDump(dump));
      report = pipeline.IngestDump(in, threads);
    } else {
      if (flags.Positional().size() < 2) {
        std::fprintf(stderr,
                     "somr_ingest: %s needs a dump path (or --demo)\n",
                     init ? "init" : "append");
        return 2;
      }
      const std::string& path = flags.Positional()[1];
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "somr_ingest: cannot open %s\n", path.c_str());
        return 1;
      }
      report = pipeline.IngestDump(in, threads);
    }
  }

  // Detach before `pool` leaves scope (waits for in-flight compactions).
  if (pool.has_value()) store.set_executor(nullptr);
  if (Status status = obs.Finish(); !status.ok()) return Fail(status);
  if (!report.ok()) return Fail(report.status());
  std::printf("%s: %zu pages, %zu new revisions, %zu already ingested\n",
              init ? "init" : "append", report->pages,
              report->new_revisions, report->skipped_revisions);
  return 0;
}

int RunStatus(const state::ContextStore& store, const FlagParser& flags) {
  std::vector<state::ContextStore::PageInfo> pages = store.Pages();
  const bool metrics = flags.GetBool("metrics");
  std::printf("%-40s %10s %12s  %-20s %6s %6s %10s\n", "page", "revisions",
              "last rev id", "last timestamp", "shard", "deltas", "chain B");
  for (const auto& info : pages) {
    std::printf("%-40.40s %10u %12lld  %-20s %6u %6u %10llu\n",
                info.title.c_str(), info.revisions_ingested,
                static_cast<long long>(info.last_revision_id),
                FormatIso8601(info.last_timestamp).c_str(), info.shard,
                info.delta_depth,
                static_cast<unsigned long long>(info.chain_bytes));
    if (!metrics) continue;
    // Per-context matcher accounting, summed over the three object types
    // and restored from the stored snapshot (survives process restarts).
    StatusOr<core::PageState> state = store.Load(info.title);
    if (!state.ok()) return Fail(state.status());
    matching::MatchStats total;
    for (extract::ObjectType type : kAllTypes) {
      const matching::MatchStats& stats = state->matcher.StatsFor(type);
      total.similarities_computed += stats.similarities_computed;
      total.pairs_pruned += stats.pairs_pruned;
      total.stage1_matches += stats.stage1_matches;
      total.stage2_matches += stats.stage2_matches;
      total.stage3_matches += stats.stage3_matches;
      total.new_objects += stats.new_objects;
      total.step_millis.insert(total.step_millis.end(),
                               stats.step_millis.begin(),
                               stats.step_millis.end());
    }
    std::printf(
        "  sims %zu  pruned %zu  stages %zu/%zu/%zu  "
        "new %zu  step ms p50 %.3f p95 %.3f\n",
        total.similarities_computed, total.pairs_pruned,
        total.stage1_matches, total.stage2_matches,
        total.stage3_matches, total.new_objects,
        Percentile(total.step_millis, 0.50),
        Percentile(total.step_millis, 0.95));
  }
  // Store shape: how the record log is laid out on disk and how much of
  // it is superseded bytes waiting for (or below the threshold of)
  // compaction.
  const state::ContextStore::StoreStats stats = store.Stats();
  std::printf("%zu pages in %s\n", pages.size(), store.dir().c_str());
  std::printf("record log: %zu shards, %llu bytes (%llu live, %llu "
              "superseded), max delta depth %llu\n",
              stats.shards.size(),
              static_cast<unsigned long long>(stats.size_bytes),
              static_cast<unsigned long long>(stats.live_bytes),
              static_cast<unsigned long long>(stats.superseded_bytes),
              static_cast<unsigned long long>(stats.max_delta_depth));
  // Commit log: the index is a base plus one block per commit since it
  // was last rewritten.
  std::printf("index: records.idx %llu base + %llu block bytes\n",
              static_cast<unsigned long long>(stats.index.base_bytes),
              static_cast<unsigned long long>(stats.index.block_bytes));
  for (const state::ShardStats& shard : stats.shards) {
    std::printf("  shard %03u: %8llu bytes  %8llu live  %8llu superseded  "
                "%4llu records  %llu compactions%s%s\n",
                shard.shard,
                static_cast<unsigned long long>(shard.size_bytes),
                static_cast<unsigned long long>(shard.live_bytes),
                static_cast<unsigned long long>(shard.superseded_bytes),
                static_cast<unsigned long long>(shard.records),
                static_cast<unsigned long long>(shard.compactions),
                shard.compactions > 0 ? ", last " : "",
                shard.compactions > 0
                    ? FormatIso8601(static_cast<UnixSeconds>(
                                        shard.last_compaction_unix))
                          .c_str()
                    : "");
  }
  return 0;
}

int RunExport(state::ContextStore& store, const FlagParser& flags) {
  state::IncrementalPipeline pipeline(&store);
  const std::string graphs_path = flags.GetString("graphs-out");
  const std::string cube_path = flags.GetString("cube-out");
  if (graphs_path.empty() && cube_path.empty()) {
    std::fprintf(stderr,
                 "somr_ingest: export needs --graphs-out and/or --cube-out\n");
    return 2;
  }

  std::ofstream graphs_out;
  if (!graphs_path.empty()) graphs_out.open(graphs_path);
  std::vector<core::ChangeCubeRecord> cube;

  for (const auto& info : store.Pages()) {
    StatusOr<core::PageResult> result = pipeline.ResultFor(info.title);
    if (!result.ok()) return Fail(result.status());
    if (graphs_out.is_open()) {
      graphs_out << "## page: " << result->title << "\n";
      for (extract::ObjectType type : kAllTypes) {
        graphs_out << matching::SerializeIdentityGraph(
            result->GraphFor(type));
      }
    }
    if (!cube_path.empty()) {
      for (extract::ObjectType type : kAllTypes) {
        auto records =
            core::BuildChangeCube(*result, type, result->timestamps);
        cube.insert(cube.end(), records.begin(), records.end());
      }
    }
  }

  if (graphs_out.is_open()) {
    std::printf("identity graphs -> %s\n", graphs_path.c_str());
  }
  if (!cube_path.empty()) {
    std::ofstream out(cube_path);
    if (flags.GetString("cube-format") == "jsonl") {
      out << core::ChangeCubeToJsonLines(cube);
    } else {
      out << core::ChangeCubeToCsv(cube);
    }
    std::printf("change cube: %zu records -> %s\n", cube.size(),
                cube_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("state-dir", "", "context-store directory (required)");
  flags.AddInt("threads", 0,
               "worker threads for page ingestion (0 = auto: one per "
               "hardware thread)");
  flags.AddBool("demo", false,
                "use a generated demo corpus instead of a dump file");
  flags.AddString("graphs-out", "", "export: identity-graph output path");
  flags.AddString("cube-out", "", "export: change-cube output path");
  flags.AddString("cube-format", "csv", "export: cube format csv | jsonl");
  flags.AddBool("metrics", false,
                "status: print per-context matcher accounting");
  flags.AddInt("full-snapshot-every", 8,
               "store: re-anchor a context's record chain with a full "
               "snapshot every N checkpoints (1 disables deltas)");
  flags.AddDouble("compact-ratio", 0.5,
                  "store: compact a record-log shard once superseded "
                  "bytes exceed this fraction of the file");
  flags.AddBool("help", false, "show this help");
  obs::CliObservability::AddFlags(flags);

  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  std::string usage = flags.Usage(argv[0]) +
                      "commands:\n"
                      "  init [dump.xml]    create the store and ingest\n"
                      "  append [dump.xml]  ingest new revisions\n"
                      "  status             per-page ingestion state\n"
                      "  export             write graphs / change cube\n";
  if (flags.GetBool("help")) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  if (flags.Positional().empty()) {
    std::fprintf(stderr, "no command\n%s", usage.c_str());
    return 2;
  }
  if (flags.GetString("state-dir").empty()) {
    std::fprintf(stderr, "--state-dir is required\n%s", usage.c_str());
    return 2;
  }

  const std::string& command = flags.Positional()[0];
  state::StoreOptions store_options;
  const int64_t cadence = flags.GetInt("full-snapshot-every");
  store_options.full_snapshot_every =
      cadence > 0 ? static_cast<uint32_t>(cadence) : 1;
  const double ratio = flags.GetDouble("compact-ratio");
  if (ratio > 0.0) store_options.compact_ratio = ratio;
  state::ContextStore store(flags.GetString("state-dir"), {},
                            store_options);

  if (command == "init") {
    // A failed init that saved no page (unreadable input, not a dump)
    // must not leave an empty store behind that later commands would take
    // for one. Pages that did save stay: `append` resumes after them.
    const std::filesystem::path dir = flags.GetString("state-dir");
    std::error_code ec;
    const bool created = !std::filesystem::exists(dir, ec) && !ec;
    Status status = store.Open(/*create=*/true);
    const int code =
        status.ok() ? RunIngest(store, flags, /*init=*/true) : Fail(status);
    if (code != 0 && created && store.Pages().empty()) {
      std::filesystem::remove_all(dir, ec);
    }
    return code;
  }
  Status status = store.Open(/*create=*/false);
  if (!status.ok()) return Fail(status);
  if (command == "append") return RunIngest(store, flags, /*init=*/false);
  if (command == "status") return RunStatus(store, flags);
  if (command == "export") return RunExport(store, flags);

  std::fprintf(stderr, "unknown command \"%s\"\n%s", command.c_str(),
               usage.c_str());
  return 2;
}
