// somr_serve — the somr matching daemon: a dependency-free HTTP/1.1
// server holding many matcher contexts resident, sharded by context id,
// with LRU spill to a durable context store.
//
//   somr_serve --state-dir=/var/somr run --port=8080
//   curl -X POST --data-binary @page.xml \
//        http://127.0.0.1:8080/context/Page%20Title/revision
//   curl http://127.0.0.1:8080/context/Page%20Title/graph
//   curl http://127.0.0.1:8080/metrics
//
// The demo subcommands drive a running daemon with the same generated
// corpus `somr_process --demo` uses, so serve-side ingestion can be
// compared byte-for-byte against the batch pipeline:
//
//   somr_serve run --port-file=port.txt &
//   somr_serve demo-feed --port=$(cat port.txt) --phase=first
//   somr_serve demo-feed --port=$(cat port.txt) --phase=rest
//   somr_serve demo-graphs --port=$(cat port.txt) --out=graphs.txt

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/flags.h"
#include "obs/cli.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/server.h"
#include "state/context_store.h"
#include "wikigen/corpus.h"
#include "xmldump/dump.h"

namespace {

using namespace somr;

int Fail(const Status& status) {
  SOMR_LOG(Error) << "somr_serve: " << status.ToString();
  return 1;
}

serve::Server* g_server = nullptr;

// Stop() is an atomic flag flip plus shutdown(2) on the listen fd —
// both async-signal-safe — which pops the accept loop out of accept().
void OnSignal(int) {
  if (g_server != nullptr) g_server->Stop();
}

int RunServe(state::ContextStore& store, const FlagParser& flags) {
  serve::ServeOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.shards = static_cast<unsigned>(flags.GetInt("shards"));
  options.cache_capacity =
      static_cast<size_t>(flags.GetInt("cache-capacity"));
  options.connection_workers =
      static_cast<unsigned>(flags.GetInt("connection-workers"));
  // Shared observability flags: the daemon's span ring is sized by the
  // same --trace-capacity the batch CLIs use for --trace-out.
  const int64_t trace_capacity = flags.GetInt("trace-capacity");
  options.trace_capacity =
      trace_capacity > 0 ? static_cast<size_t>(trace_capacity) : 0;
  options.slo_threshold_seconds = flags.GetDouble("slo-threshold");
  options.slow_threshold_seconds = flags.GetDouble("slow-threshold");

  // Crash dumps (trace ring + metrics) land next to the context store by
  // default, so a wedged daemon leaves evidence where its state lives.
  // The store's record-log shape (per-shard live/superseded bytes,
  // pending compactions) rides along as its own dump section — the
  // first question after a storage crash is what compaction was doing.
  std::string flight_dir = flags.GetString("flight-dir");
  if (flight_dir.empty()) flight_dir = flags.GetString("state-dir");
  if (flight_dir != "none") {
    obs::InstallFlightRecorder(flight_dir);
    state::ContextStore* raw_store = &store;
    obs::AddFlightRecorderSection(
        "storage", [raw_store] { return raw_store->StatsJson(); });
  }

  serve::Server server(&store, options);
  if (Status status = server.Start(); !status.ok()) return Fail(status);

  g_server = &server;
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.port() << "\n";
    if (!out.good()) {
      return Fail(Status::Internal("cannot write " + port_file));
    }
  }
  std::printf("somr_serve: listening on 127.0.0.1:%u (%u shards, "
              "%zu contexts/shard resident)\n",
              server.port(), options.shards, options.cache_capacity);
  std::fflush(stdout);

  Status status = server.Serve();
  g_server = nullptr;
  // The store may outlive this frame's dump usefulness but not the
  // process; drop the section so a late crash can't touch a dead store.
  obs::AddFlightRecorderSection("storage", nullptr);
  if (!status.ok()) return Fail(status);
  std::printf("somr_serve: drained and checkpointed, bye\n");
  return 0;
}

// Pulls `"key": <int>` out of a serve JSON response; -1 when absent.
long JsonIntField(const std::string& body, const std::string& key) {
  const std::string marker = "\"" + key + "\": ";
  size_t at = body.find(marker);
  if (at == std::string::npos) return -1;
  return std::atol(body.c_str() + at + marker.size());
}

int RunDemoFeed(const FlagParser& flags) {
  const std::string phase = flags.GetString("phase");
  if (phase != "first" && phase != "rest") {
    std::fprintf(stderr, "somr_serve: --phase must be first | rest\n");
    return 2;
  }
  serve::HttpClient client;
  if (Status status =
          client.Connect(static_cast<uint16_t>(flags.GetInt("port")));
      !status.ok()) {
    return Fail(status);
  }

  xmldump::Dump dump = wikigen::DemoDump();
  size_t new_revisions = 0, skipped = 0, pages_skipped = 0;
  for (xmldump::PageHistory& page : dump.pages) {
    if (phase == "first") {
      page.revisions.resize(page.revisions.size() / 2);
    }
    xmldump::Dump one;
    one.pages.push_back(page);
    const std::string target =
        "/context/" + serve::PercentEncode(page.title) + "/revision";
    StatusOr<serve::ClientResponse> response = client.Request(
        "POST", target, xmldump::WriteDump(one),
        /*chunked=*/flags.GetBool("chunked"));
    if (!response.ok()) return Fail(response.status());
    if (response->status != 200) {
      SOMR_LOG(Error) << "POST " << target << " -> " << response->status
                      << ": " << response->body;
      return 1;
    }
    new_revisions +=
        static_cast<size_t>(JsonIntField(response->body, "new_revisions"));
    skipped += static_cast<size_t>(
        JsonIntField(response->body, "skipped_revisions"));
    if (response->body.find("\"page_skipped\": true") != std::string::npos) {
      ++pages_skipped;
    }
  }
  std::printf("demo-feed %s: %zu pages, %zu new revisions, %zu skipped, "
              "%zu pages fully skipped\n",
              phase.c_str(), dump.pages.size(), new_revisions, skipped,
              pages_skipped);
  return 0;
}

int RunDemoGraphs(const FlagParser& flags) {
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "somr_serve: demo-graphs needs --out\n");
    return 2;
  }
  serve::HttpClient client;
  if (Status status =
          client.Connect(static_cast<uint16_t>(flags.GetInt("port")));
      !status.ok()) {
    return Fail(status);
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "somr_serve: cannot write %s\n", out_path.c_str());
    return 1;
  }
  xmldump::Dump dump = wikigen::DemoDump();
  for (const xmldump::PageHistory& page : dump.pages) {
    StatusOr<serve::ClientResponse> response = client.Request(
        "GET", "/context/" + serve::PercentEncode(page.title) + "/graph");
    if (!response.ok()) return Fail(response.status());
    if (response->status != 200) {
      SOMR_LOG(Error) << "GET graph for \"" << page.title << "\" -> "
                      << response->status;
      return 1;
    }
    out << "## page: " << page.title << "\n" << response->body;
  }
  std::printf("identity graphs -> %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("state-dir", "",
                  "context-store directory (required for run)");
  flags.AddInt("port", 0, "TCP port (run: 0 = ephemeral; see --port-file)");
  flags.AddString("port-file", "",
                  "run: write the bound port here once listening");
  flags.AddInt("shards", 4, "run: shard workers (contexts hash to shards)");
  flags.AddInt("cache-capacity", 256,
               "run: resident contexts per shard before LRU spill");
  flags.AddInt("connection-workers", 4, "run: concurrent connections");
  flags.AddString("phase", "first",
                  "demo-feed: first (half of each history) | rest (full "
                  "restate; server skips the seen half)");
  flags.AddBool("chunked", false,
                "demo-feed: send bodies as Transfer-Encoding: chunked");
  flags.AddString("out", "", "demo-graphs: identity-graph output path");
  flags.AddString("flight-dir", "",
                  "run: crash-dump directory for the flight recorder "
                  "(default: --state-dir; \"none\" disables)");
  flags.AddInt("full-snapshot-every", 8,
               "store: re-anchor a context's record chain with a full "
               "snapshot every N checkpoints (1 disables deltas)");
  flags.AddDouble("compact-ratio", 0.5,
                  "store: compact a record-log shard once superseded "
                  "bytes exceed this fraction of the file");
  flags.AddDouble("slo-threshold", 0.5,
                  "run: request latency (seconds) counted as an SLO "
                  "violation (<= 0 disables)");
  flags.AddDouble("slow-threshold", 0.0,
                  "run: only requests at least this slow (seconds) enter "
                  "the /debug/requests recent ring (0 keeps every request)");
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
                      "  run          start the daemon (blocks until "
                      "SIGINT/SIGTERM or POST /admin/drain)\n"
                      "  demo-feed    POST the demo corpus to a daemon\n"
                      "  demo-graphs  GET every demo context's graph\n";
  if (flags.GetBool("help")) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  if (flags.Positional().empty()) {
    std::fprintf(stderr, "no command\n%s", usage.c_str());
    return 2;
  }

  const std::string& command = flags.Positional()[0];
  if (command == "run") {
    if (flags.GetString("state-dir").empty()) {
      std::fprintf(stderr, "--state-dir is required\n%s", usage.c_str());
      return 2;
    }
    obs::CliObservability obs;
    if (Status status = obs.Init(flags); !status.ok()) return Fail(status);
    state::StoreOptions store_options;
    const int64_t cadence = flags.GetInt("full-snapshot-every");
    store_options.full_snapshot_every =
        cadence > 0 ? static_cast<uint32_t>(cadence) : 1;
    const double ratio = flags.GetDouble("compact-ratio");
    if (ratio > 0.0) store_options.compact_ratio = ratio;
    state::ContextStore store(flags.GetString("state-dir"), {},
                              store_options);
    if (Status status = store.Open(/*create=*/true); !status.ok()) {
      return Fail(status);
    }
    const int code = RunServe(store, flags);
    if (Status status = obs.Finish(); !status.ok()) return Fail(status);
    return code;
  }
  if (command == "demo-feed") return RunDemoFeed(flags);
  if (command == "demo-graphs") return RunDemoGraphs(flags);

  std::fprintf(stderr, "unknown command \"%s\"\n%s", command.c_str(),
               usage.c_str());
  return 2;
}
