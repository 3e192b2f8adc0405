// lake_match: an archive::GenerateSocrata data lake matched by one
// TemporalMatcher per subdomain context, spatial features off (a lake
// has no page order), as in the paper's Socrata setting.
//
// Timed run: context after context, lake pass after lake pass, until the
// time is up and the steps leave a p99; each snapshot's ProcessRevision is
// one step. Every context run must reproduce the graph of that context's
// first run, and the first pass is scored against the generated truth.
// Traced run: turns of whole passes with tracing off and on.

#include "gen.h"
#include "matching/graph_io.h"
#include "matching/matcher.h"
#include "obs/trace.h"
#include "sys.h"
#include "workloads.h"

namespace perfbench {

using namespace somr;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct LakeTotals {
  size_t steps = 0;
  size_t bytes = 0;
  double busy_s = 0.0;
  std::vector<double> step_ms;
  std::vector<std::vector<double>> context_s;  // per context, per pass
};

// Runs one context end to end and returns its graph text.
std::string RunContext(const archive::SocrataContext& context,
                       const std::vector<size_t>& snapshot_bytes,
                       LakeTotals& totals) {
  obs::TraceSpan context_span("core.context", "perfbench");
  matching::TemporalMatcher matcher(extract::ObjectType::kTable,
                                    LakeMatcherConfig());
  for (size_t s = 0; s < context.snapshots.size(); ++s) {
    const Clock::time_point start = Clock::now();
    {
      obs::TraceSpan span("matching.step", "perfbench");
      matcher.ProcessRevision(static_cast<int>(s), context.snapshots[s]);
    }
    const double seconds = SecondsSince(start);
    totals.busy_s += seconds;
    totals.step_ms.push_back(seconds * 1e3);
    totals.bytes += snapshot_bytes[s];
    ++totals.steps;
  }
  return matching::SerializeIdentityGraph(matcher.graph());
}

struct LakeState {
  std::vector<archive::SocrataContext> lake;
  std::vector<std::vector<size_t>> snapshot_bytes;
};

LakeState Setup(uint64_t seed) {
  LakeState state;
  state.lake = MakeLake(seed);
  for (const archive::SocrataContext& context : state.lake) {
    std::vector<size_t> bytes;
    for (const auto& snapshot : context.snapshots) {
      bytes.push_back(SnapshotBytes(snapshot));
    }
    state.snapshot_bytes.push_back(std::move(bytes));
  }
  return state;
}

// One pass over every context; compares each graph with `expected` when
// that is non-empty.
std::vector<std::string> Pass(const LakeState& state,
                              const std::vector<std::string>& expected,
                              LakeTotals& totals, Report& report) {
  std::vector<std::string> graphs;
  for (size_t c = 0; c < state.lake.size(); ++c) {
    const double busy_before = totals.busy_s;
    graphs.push_back(RunContext(state.lake[c], state.snapshot_bytes[c], totals));
    totals.context_s.resize(state.lake.size());
    totals.context_s[c].push_back(totals.busy_s - busy_before);
    ++report.attempted;
    if (!expected.empty() && graphs.back() != expected[c]) {
      report.Fail("context " + state.lake[c].subdomain +
                  " graph differs from its first run");
    }
  }
  return graphs;
}

void SetQuality(const LakeState& state, const std::vector<std::string>& graphs,
                Report& report) {
  Quality quality;
  for (size_t c = 0; c < graphs.size(); ++c) {
    StatusOr<matching::IdentityGraph> graph =
        matching::ParseIdentityGraph(graphs[c]);
    if (!graph.ok()) {
      report.Fail("unparseable graph for " + state.lake[c].subdomain);
      continue;
    }
    quality.Add(state.lake[c].truth, *graph);
  }
  report.Set("object_accuracy", quality.objects.Accuracy(), "ratio");
  report.Set("edge_f1", quality.edges.F1(), "ratio");
}

void TimedRun(const RunOptions& options, Report& report) {
  LakeState state;
  TimeSetup(report, false, [&] { state = Setup(options.seed); });

  // Whole passes until the time is up and the steps leave a p99; the
  // first pass is the reference of the later ones and the one scored
  // against the truth.
  LakeTotals totals;
  std::vector<std::string> first;
  size_t passes = 0;
  const Clock::time_point start = Clock::now();
  while (passes == 0 || SecondsSince(start) < options.seconds ||
         totals.step_ms.size() < SamplesForTail(0.99)) {
    std::vector<std::string> graphs = Pass(state, first, totals, report);
    if (first.empty()) first = std::move(graphs);
    ++passes;
  }

  // Throughput over one pass composed of each context's median run time,
  // so a burst of host contention during a few contexts does not move it.
  double pass_s = 0.0;
  for (const std::vector<double>& runs : totals.context_s) {
    pass_s += somr::Percentile(runs, 0.5);
  }
  report.Set("rev_per_s", static_cast<double>(totals.steps / passes) / pass_s,
             "1/s");
  report.Set("input_mib_per_s",
             static_cast<double>(totals.bytes / passes) / kMiB / pass_s,
             "MiB/s");
  SetLatency(report, "step", totals.step_ms, 0.9);
  // A lake client hands the matcher one snapshot per request, so the
  // request latency is the step latency at the request tail percentile.
  SetLatency(report, "req", totals.step_ms, 0.99);
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  SetQuality(state, first, report);
  report.Info("passes", static_cast<double>(passes));
  report.Info("contexts", static_cast<double>(state.lake.size()));
  report.Info("measured_s", totals.busy_s);
}

void TracedRun(const RunOptions& options, Report& report) {
  LakeState state;
  TimeSetup(report, true, [&] { state = Setup(options.seed); });
  InitLayerMetrics(report);

  // A turn runs enough whole passes for a p99 of its matching steps.
  size_t steps_per_pass = 0;
  for (const archive::SocrataContext& context : state.lake) {
    steps_per_pass += context.snapshots.size();
  }
  const size_t passes_per_turn =
      (SamplesForTail(0.99) + steps_per_pass - 1) / steps_per_pass;
  report.Info("passes_per_turn", static_cast<double>(passes_per_turn));

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::vector<double> untraced_s, traced_s;
  std::vector<SpanRow> spans;
  std::map<std::string, double> before, after;
  std::vector<std::string> first;
  for (int i = 0; i < 2 * kTracedPairs; ++i) {
    const bool traced = TracedTurn(i);
    if (traced) {
      before = ScrapeRegistry();
      recorder.Enable(kTraceCapacity);
    }
    LakeTotals totals;
    const Clock::time_point start = Clock::now();
    for (size_t p = 0; p < passes_per_turn; ++p) {
      std::vector<std::string> graphs = Pass(state, first, totals, report);
      if (first.empty()) first = std::move(graphs);
    }
    (traced ? traced_s : untraced_s).push_back(SecondsSince(start));
    if (traced) {
      spans = FromRecorder(recorder.Events());
      if (recorder.dropped() > 0) report.Fail("trace ring dropped spans");
      recorder.Disable();
      after = ScrapeRegistry();
    }
  }

  LinkParents(spans);
  SetMatchingSpanLayers(report, spans, [](const std::string& name) {
    return name == "matching.step";
  });
  SetCounterLayers(report, before, after);
  auto is_step = [](const std::string& name) { return name == "matching.step"; };
  auto is_root = [](const std::string& name) { return name == "core.context"; };
  const double busy = CoveredSeconds(spans, is_root);
  report.Set("core.unattributed_share",
             busy > 0.0 ? 1.0 - CoveredSeconds(spans, is_step) / busy : 0.0,
             "ratio");
  SetTraceOverhead(report, traced_s, untraced_s);
  report.layer_table = LayerTable(AggregateByName(spans), traced_s.back());
  WriteSpans(options.work_dir + "/lake_match.spans.jsonl", spans);
}

}  // namespace

Report RunLakeMatch(const RunOptions& options) {
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
