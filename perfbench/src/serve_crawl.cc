// serve_crawl: a real `somr_serve run` child on an ephemeral port, fed by
// a closed loop of keep-alive HttpClient connections. Each request POSTs
// one HTML crawl capture (archive::SampleCrawls, model "html") of one
// context; contexts are Zipf-ranked and outnumber the resident capacity,
// so the daemon spills (Save + commit per spill) and faults contexts back
// in. Connection 0 also checkpoints periodically (SaveUncommitted per
// dirty context + one Commit). At the end every context's graph is
// fetched over HTTP and compared byte for byte with the batch pipeline on
// the same capture prefix.

#include <algorithm>
#include <filesystem>
#include <set>
#include <thread>

#include "gen.h"
#include "matching/matcher.h"
#include "serve/client.h"
#include "serve/http.h"
#include "sys.h"
#include "workloads.h"

namespace perfbench {

using namespace somr;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kWarmupRequestsPerConnection = 150;
// Connection 0 checkpoints after every this many of its requests.
constexpr int kCheckpointEveryRequests = 200;
// A traced window's requests per connection: nine checkpoints' worth, so
// serve.checkpoint_ms is a median of nine.
constexpr int kTracedRequestsPerConnection = 10 * kCheckpointEveryRequests;
// Completed requests per throughput sample.
constexpr size_t kRateChunk = 250;
constexpr size_t kDaemonTraceCapacity = size_t{1} << 20;

/// Per capture prefix of one crawl history: the graph text digest the
/// batch pipeline produces and its quality against the restricted truth.
struct PrefixReference {
  uint64_t digest = 0;
  Quality quality;
};

struct ServeState {
  std::vector<archive::SampledHistory> crawls;
  // reference[page][k - 1]: after the first k captures.
  std::vector<std::vector<PrefixReference>> reference;
};

std::vector<PrefixReference> ReferencePrefixes(
    const archive::SampledHistory& history, Report* problems) {
  core::Pipeline pipeline;
  core::PageResult full = pipeline.ProcessPage(history.page);
  std::vector<PrefixReference> prefixes;
  matching::PageMatcher matcher;
  std::vector<int> kept;
  for (size_t r = 0; r < full.revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), full.revisions[r]);
    kept.push_back(static_cast<int>(r));
    core::PageResult prefix;
    prefix.tables = matcher.GraphFor(extract::ObjectType::kTable);
    prefix.infoboxes = matcher.GraphFor(extract::ObjectType::kInfobox);
    prefix.lists = matcher.GraphFor(extract::ObjectType::kList);
    PrefixReference ref;
    ref.digest = Fnv1a(GraphText(prefix));
    ref.quality.Add(archive::RestrictTruth(history.truth_tables, kept),
                    prefix.tables);
    ref.quality.Add(archive::RestrictTruth(history.truth_infoboxes, kept),
                    prefix.infoboxes);
    ref.quality.Add(archive::RestrictTruth(history.truth_lists, kept),
                    prefix.lists);
    prefixes.push_back(std::move(ref));
  }
  // The incremental prefixes must end where ProcessPage ends.
  if (prefixes.empty() || prefixes.back().digest != Fnv1a(GraphText(full))) {
    problems->Fail("incremental reference diverges from ProcessPage for " +
                   history.page.title);
  }
  return prefixes;
}

/// One daemon process plus its keep-alive connections.
class Daemon {
 public:
  bool Start(const std::string& bin, const std::string& dir, bool traced,
             Report& report) {
    dir_ = dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::vector<std::string> argv = {
        bin,
        "--state-dir=" + dir + "/store",
        "--flight-dir=none",
        "--port-file=" + dir + "/port",
        "--shards=" + std::to_string(kServeShards),
        "--cache-capacity=" + std::to_string(kServeCacheCapacity),
        "--connection-workers=" + std::to_string(kServeConnections),
        "--log-level=error",
    };
    if (traced) {
      argv.push_back("--trace-out=" + dir + "/trace.json");
      argv.push_back("--trace-capacity=" + std::to_string(kDaemonTraceCapacity));
    }
    argv.push_back("run");
    if (!process_.Start(argv, dir + "/daemon.log")) {
      report.Fail("cannot start " + bin);
      return false;
    }
    const Clock::time_point start = Clock::now();
    int port = 0;
    while (port == 0 && SecondsSince(start) < 20.0) {
      port = std::atoi(ReadFileOrEmpty(dir + "/port").c_str());
      if (port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (port == 0) {
      report.Fail("daemon did not publish its port: " +
                  ReadFileOrEmpty(dir + "/daemon.log"));
      return false;
    }
    for (auto& client : clients_) {
      client = std::make_unique<serve::HttpClient>();
      if (Status status = client->Connect(static_cast<uint16_t>(port));
          !status.ok()) {
        report.Fail(status.ToString());
        return false;
      }
    }
    return true;
  }

  /// SIGTERM (the daemon checkpoints and writes --trace-out), then reap.
  int Stop() {
    for (auto& client : clients_) {
      if (client) client->Close();
    }
    return process_.Stop(60.0);
  }

  serve::HttpClient& client(unsigned i) { return *clients_[i]; }
  pid_t pid() const { return process_.pid(); }
  const std::string& dir() const { return dir_; }

 private:
  ChildProcess process_;
  std::string dir_;
  std::unique_ptr<serve::HttpClient> clients_[kServeConnections];
};

/// Context id -> (crawl history index, captures posted so far).
using Posted = std::map<std::string, std::pair<uint32_t, uint32_t>>;

/// What one connection's loop did.
struct LoopStats {
  std::vector<double> latency_ms;
  // Completion time (seconds into the window) and body bytes per POST.
  std::vector<std::pair<double, size_t>> done;
  std::vector<double> checkpoint_ms;
  std::vector<uint64_t> trace_ids;
  Posted posted;
  Report problems;
};

/// The closed loop of one connection: POST, wait for the decisions
/// reply, repeat, until `deadline` has passed and `min_requests` are done.
void Loop(serve::HttpClient& client, RequestStream& stream,
          const std::vector<archive::SampledHistory>& crawls, bool checkpoints,
          Clock::time_point window_start, Clock::time_point deadline,
          int min_requests, LoopStats& stats) {
  for (int i = 0; i < min_requests || Clock::now() < deadline; ++i) {
    if (checkpoints && i > 0 && i % kCheckpointEveryRequests == 0) {
      obs::TraceSpan span("client.checkpoint", "perfbench");
      const Clock::time_point start = Clock::now();
      StatusOr<serve::ClientResponse> response =
          client.Request("POST", "/admin/checkpoint");
      stats.checkpoint_ms.push_back(SecondsSince(start) * 1e3);
      ++stats.problems.attempted;
      if (!response.ok() || response->status != 200) {
        stats.problems.Fail("checkpoint failed");
      }
    }
    const CrawlRequest request = stream.Next();
    const std::string body = RequestBody(crawls, request);
    const std::string target =
        "/context/" + serve::PercentEncode(request.context) + "/revision";
    obs::TraceSpan span("client.request", "perfbench");
    const Clock::time_point start = Clock::now();
    StatusOr<serve::ClientResponse> response =
        client.Request("POST", target, body);
    const double ms = SecondsSince(start) * 1e3;
    ++stats.problems.attempted;
    stats.latency_ms.push_back(ms);
    stats.done.emplace_back(SecondsSince(window_start), body.size());
    auto& [page, captures] = stats.posted[request.context];
    page = request.page;
    if (!response.ok()) {
      stats.problems.Fail("POST " + request.context + ": " +
                          response.status().ToString());
      continue;
    }
    stats.trace_ids.push_back(
        obs::ParseTraceIdHex(response->Header("x-somr-trace-id")));
    if (response->status != 200 ||
        JsonNumber(response->body, "new_revisions", -1) != 1.0) {
      stats.problems.Fail("POST " + request.context + " -> " +
                          std::to_string(response->status) + ": " +
                          response->body.substr(0, 200));
      continue;
    }
    captures = request.capture + 1;
  }
}

struct WindowResult {
  double wall_s = 0.0;
  std::vector<LoopStats> per_connection;
};

WindowResult RunWindow(Daemon& daemon, std::vector<RequestStream>& streams,
                       const ServeState& state, double seconds,
                       int min_requests, bool checkpoints) {
  WindowResult result;
  result.per_connection.resize(kServeConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kServeConnections; ++c) {
    threads.emplace_back([&, c] {
      Loop(daemon.client(c), streams[c], state.crawls, checkpoints && c == 0,
           start, deadline, min_requests, result.per_connection[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsSince(start);
  return result;
}

/// Merges posted-capture maps across every window run so far.
void MergePosted(const WindowResult& window,
                 Posted& posted,
                 Report& report) {
  for (const LoopStats& stats : window.per_connection) {
    for (const auto& [context, entry] : stats.posted) {
      auto& slot = posted[context];
      slot.first = entry.first;
      slot.second = std::max(slot.second, entry.second);
    }
    report.Absorb(stats.problems);
  }
}

/// GETs every posted context's graph and checks it against the batch
/// reference; returns the pooled quality of the served graphs.
Quality VerifyGraphs(
    Daemon& daemon, const ServeState& state,
    const Posted& posted,
    Report& report) {
  Quality quality;
  for (const auto& [context, entry] : posted) {
    const auto [page, captures] = entry;
    if (captures == 0) continue;
    ++report.attempted;
    StatusOr<serve::ClientResponse> response = daemon.client(0).Request(
        "GET", "/context/" + serve::PercentEncode(context) + "/graph");
    if (!response.ok() || response->status != 200) {
      report.Fail("GET graph of " + context + " failed");
      continue;
    }
    const PrefixReference& ref = state.reference[page][captures - 1];
    if (Fnv1a(response->body) != ref.digest) {
      report.Fail("served graph of " + context + " (" +
                  std::to_string(captures) +
                  " captures) differs from core::Pipeline::ProcessPage");
      continue;
    }
    quality.objects.Add(ref.quality.objects);
    quality.edges.Add(ref.quality.edges);
  }
  return quality;
}

std::map<std::string, double> Scrape(Daemon& daemon, Report& report) {
  ++report.attempted;
  StatusOr<serve::ClientResponse> response =
      daemon.client(0).Request("GET", "/metrics");
  if (!response.ok() || response->status != 200) {
    report.Fail("GET /metrics failed");
    return {};
  }
  return ParsePrometheus(response->body);
}

std::vector<RequestStream> Streams(const ServeState& state, uint64_t seed) {
  std::vector<RequestStream> streams;
  for (unsigned c = 0; c < kServeConnections; ++c) {
    streams.emplace_back(state.crawls, seed, c, kServeConnections,
                         kServeContexts, kServeZipfExponent);
  }
  return streams;
}

/// Set-up, first half: the crawl histories and their batch references.
void MakeInputs(const RunOptions& options, ServeState& state, Report& report) {
  state.crawls = MakeCrawls(options.seed);
  state.reference.clear();
  for (const archive::SampledHistory& history : state.crawls) {
    state.reference.push_back(ReferencePrefixes(history, &report));
  }
}

/// Set-up, second half: a fresh daemon, the request streams from their
/// start, and warm-up traffic. False when the daemon did not come up.
bool StartLoaded(const RunOptions& options, bool traced,
                 const ServeState& state, Daemon& daemon,
                 std::vector<RequestStream>& streams, Posted& posted,
                 Report& report) {
  if (!daemon.Start(options.serve_bin, options.work_dir + "/serve_crawl",
                    traced, report)) {
    return false;
  }
  streams = Streams(state, options.seed);
  posted.clear();
  WindowResult warmup = RunWindow(daemon, streams, state, 0.0,
                                  kWarmupRequestsPerConnection, false);
  MergePosted(warmup, posted, report);
  return report.correct;
}

std::vector<double> Concat(const WindowResult& window,
                           std::vector<double> LoopStats::*field) {
  std::vector<double> out;
  for (const LoopStats& s : window.per_connection) {
    out.insert(out.end(), (s.*field).begin(), (s.*field).end());
  }
  return out;
}

size_t Requests(const WindowResult& window) {
  size_t n = 0;
  for (const LoopStats& s : window.per_connection) n += s.latency_ms.size();
  return n;
}

void TimedRun(const RunOptions& options, Report& report) {
  ServeState state;
  std::vector<RequestStream> streams;
  Posted posted;
  std::unique_ptr<Daemon> daemon;
  TimeSetup(report, false, [&] {
    if (daemon) daemon->Stop();
    daemon = std::make_unique<Daemon>();
    MakeInputs(options, state, report);
    StartLoaded(options, false, state, *daemon, streams, posted, report);
  });
  if (!report.correct) {
    daemon->Stop();
    return;
  }

  const std::map<std::string, double> before = Scrape(*daemon, report);
  // Both connections together must leave a p99 of the POST latencies.
  const int min_requests = static_cast<int>(
      (SamplesForTail(0.99) + kServeConnections - 1) / kServeConnections);
  WindowResult window = RunWindow(*daemon, streams, state, options.seconds,
                                  min_requests, true);
  const std::map<std::string, double> after = Scrape(*daemon, report);
  report.Set("peak_rss_mib", PeakRssMib(daemon->pid()), "MiB");
  MergePosted(window, posted, report);
  const Quality quality = VerifyGraphs(*daemon, state, posted, report);
  if (daemon->Stop() != 0) report.Fail("daemon exited non-zero");

  // Throughput is the median over consecutive runs of kRateChunk completed
  // requests, so a burst of host contention in one run does not move it.
  std::vector<std::pair<double, size_t>> done;
  for (const LoopStats& s : window.per_connection) {
    done.insert(done.end(), s.done.begin(), s.done.end());
  }
  std::sort(done.begin(), done.end());
  std::vector<double> rates, mib_rates;
  for (size_t first = 0; first + kRateChunk < done.size(); first += kRateChunk) {
    const double seconds = done[first + kRateChunk].first - done[first].first;
    size_t bytes = 0;
    for (size_t i = first + 1; i <= first + kRateChunk; ++i) {
      bytes += done[i].second;
    }
    if (seconds <= 0.0) continue;
    rates.push_back(static_cast<double>(kRateChunk) / seconds);
    mib_rates.push_back(static_cast<double>(bytes) / kMiB / seconds);
  }
  report.Set("rev_per_s", somr::Percentile(rates, 0.5), "1/s");
  report.Set("input_mib_per_s", somr::Percentile(mib_rates, 0.5), "MiB/s");
  // The daemon does not expose a per-step timing a client could read
  // without tracing, so a serve step is what the feeder waits for: one
  // POST of one capture, at the step percentiles.
  const std::vector<double> posts = Concat(window, &LoopStats::latency_ms);
  SetLatency(report, "step", posts, 0.9);
  SetLatency(report, "req", posts, 0.99);
  report.Set("object_accuracy", quality.objects.Accuracy(), "ratio");
  report.Set("edge_f1", quality.edges.F1(), "ratio");
  report.Info("contexts_posted", static_cast<double>(posted.size()));
  report.Info("checkpoints",
              static_cast<double>(window.per_connection[0].checkpoint_ms.size()));
  report.Info("faults", Sample(after, "somr_serve_contexts_faulted") -
                            Sample(before, "somr_serve_contexts_faulted"));
  report.Info("measured_s", window.wall_s);
}

void TracedRun(const RunOptions& options, Report& report) {
  ServeState state;
  InitLayerMetrics(report);
  TimeSetup(report, true, [&] { MakeInputs(options, state, report); });

  // Windows with the same request budget from the same start, each on a
  // fresh daemon: plain ones and ones recording spans (with client spans
  // recorded here), in TracedTurn order. The last traced window gives the
  // per-layer numbers.
  std::vector<double> untraced_s, traced_s;
  WindowResult b;
  std::map<std::string, double> before, after;
  std::string vars;
  std::vector<SpanRow> client_spans;
  std::string trace_json;
  for (int i = 0; i < 2 * kTracedPairs && report.correct; ++i) {
    const bool traced = TracedTurn(i);
    std::vector<RequestStream> streams;
    Posted posted;
    Daemon daemon;
    if (!StartLoaded(options, traced, state, daemon, streams, posted, report)) {
      daemon.Stop();
      return;
    }
    if (!traced) {
      const WindowResult a = RunWindow(daemon, streams, state, 0.0,
                                       kTracedRequestsPerConnection, true);
      untraced_s.push_back(a.wall_s);
      MergePosted(a, posted, report);
      VerifyGraphs(daemon, state, posted, report);
      daemon.Stop();
      continue;
    }
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    before = Scrape(daemon, report);
    recorder.Enable(kTraceCapacity);
    b = RunWindow(daemon, streams, state, 0.0, kTracedRequestsPerConnection,
                  true);
    traced_s.push_back(b.wall_s);
    client_spans = FromRecorder(recorder.Events());
    recorder.Disable();
    after = Scrape(daemon, report);
    ++report.attempted;
    StatusOr<serve::ClientResponse> debug_vars =
        daemon.client(0).Request("GET", "/debug/vars");
    if (!debug_vars.ok() || debug_vars->status != 200) {
      report.Fail("GET /debug/vars failed");
    } else {
      vars = debug_vars->body;
    }
    MergePosted(b, posted, report);
    VerifyGraphs(daemon, state, posted, report);
    if (daemon.Stop() != 0) report.Fail("traced daemon exited non-zero");
    trace_json = ReadFileOrEmpty(daemon.dir() + "/trace.json");
  }
  if (!report.correct) return;

  // Daemon spans of the window's requests only (warm-up excluded).
  std::set<uint64_t> window_ids;
  for (const LoopStats& s : b.per_connection) {
    window_ids.insert(s.trace_ids.begin(), s.trace_ids.end());
  }
  std::vector<SpanRow> spans;
  for (SpanRow& row : ParseChromeTrace(trace_json)) {
    if (window_ids.count(row.trace_id) > 0) spans.push_back(std::move(row));
  }
  if (spans.empty()) report.Fail("daemon trace holds no spans of the window");
  LinkParents(spans);
  const std::map<std::string, LayerTotals> layers = AggregateByName(spans);
  auto total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  report.Set("html.parse_s", total("parse/html"), "s");
  report.Set("html.extract_s", total("extract/html"), "s");
  auto is_step = [](const std::string& name) {
    return name == "match/table" || name == "match/infobox" ||
           name == "match/list";
  };
  SetMatchingSpanLayers(report, spans, is_step);
  SetCounterLayers(report, before, after);

  auto delta = [&](const char* name) {
    return Sample(after, name) - Sample(before, name);
  };
  const double requests = static_cast<double>(Requests(b));
  const double faults = delta("somr_serve_contexts_faulted");
  report.Set("state.fault_s", delta("somr_state_fault_seconds_sum"), "s");
  report.Set("state.faults", faults, "count");
  report.Set("state.spills", delta("somr_serve_context_spills"), "count");
  report.Set("state.commits", delta("somr_recordlog_commits_total"), "count");
  report.Set("state.full_records", delta("somr_state_full_records_total"),
             "count");
  report.Set("state.delta_records", delta("somr_state_delta_records_total"),
             "count");
  report.Set("state.delta_replays", delta("somr_state_delta_replays_total"),
             "count");
  report.Set("state.live_mib", JsonNumber(vars, "live_bytes") / kMiB, "MiB");
  report.Set("state.superseded_mib",
             JsonNumber(vars, "superseded_bytes") / kMiB, "MiB");
  report.Set("state.max_delta_depth", JsonNumber(vars, "max_delta_depth"),
             "count");
  report.Set("serve.hit_ratio", requests > 0 ? 1.0 - faults / requests : 0.0,
             "ratio");
  report.Set("serve.checkpoint_ms",
             somr::Percentile(b.per_connection[0].checkpoint_ms, 0.5), "ms");
  report.Set("serve.http_errors", delta("somr_serve_http_errors_total"),
             "count");

  auto is_layer = [](const std::string& name) {
    return name == "parse/html" || name == "extract/html" ||
           name.rfind("match/", 0) == 0 || name == "state/snapshot_save" ||
           name == "state/snapshot_load" || name == "state/record_commit";
  };
  auto is_root = [](const std::string& name) { return name == "serve/request"; };
  const double busy = CoveredSeconds(spans, is_root);
  report.Set("core.unattributed_share",
             busy > 0.0 ? std::max(0.0, 1.0 - CoveredSeconds(spans, is_layer) / busy)
                        : 0.0,
             "ratio");
  SetTraceOverhead(report, traced_s, untraced_s);
  LinkParents(client_spans);
  report.layer_table = "daemon spans:\n" + LayerTable(layers, b.wall_s) +
                       "client spans:\n" +
                       LayerTable(AggregateByName(client_spans), b.wall_s);
  WriteSpans(options.work_dir + "/serve_crawl.spans.jsonl", spans);
  WriteSpans(options.work_dir + "/serve_crawl.client_spans.jsonl", client_spans);
}

}  // namespace

Report RunServeCrawl(const RunOptions& options) {
  Report report;
  if (options.trace) {
    TracedRun(options, report);
  } else {
    TimedRun(options, report);
  }
  report.Info("host_probe_after_s", HostProbeSeconds());
  return report;
}

}  // namespace perfbench
