// wiki_batch: a stratified wikitext gold corpus, split into dump files,
// each streamed through core::Pipeline::ProcessDumpStream with a fixed
// page-worker count.
//
// Timed run: passes over every dump file until the time is up; every file
// of every pass is checked against the sequential ProcessDumpXml
// reference built during set-up. Traced run: the same files driven
// through the layers' public functions (PageStreamReader::NextPage,
// ParseWikitext, ExtractFromWikitext, PageMatcher::ProcessRevision) on
// the same number of page workers, once with tracing off and once on.

#include <optional>
#include <sstream>

#include "extract/wikitext_extractor.h"
#include "gen.h"
#include "matching/matcher.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "parallel/mpmc_channel.h"
#include "sys.h"
#include "wikitext/parser.h"
#include "workloads.h"
#include "xmldump/stream_reader.h"

namespace perfbench {

using namespace somr;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct WikiState {
  WikiCorpus corpus;
  // reference[f][p]: GraphText of page p of file f, sequential pipeline.
  std::vector<std::vector<std::string>> reference;
};

WikiState Setup(uint64_t seed, Report& report) {
  WikiState state;
  state.corpus = MakeWikiCorpus(seed);
  core::Pipeline pipeline;
  for (const std::string& file : state.corpus.files) {
    StatusOr<std::vector<core::PageResult>> pages =
        pipeline.ProcessDumpXml(file);
    if (!pages.ok()) {
      report.Fail("reference ProcessDumpXml: " + pages.status().ToString());
      return state;
    }
    std::vector<std::string>& graphs = state.reference.emplace_back();
    for (const core::PageResult& page : *pages) {
      graphs.push_back(GraphText(page));
    }
  }
  return state;
}

// Checks one file's results against the reference, one operation per page.
void CheckFile(const WikiState& state, size_t file,
               const std::vector<core::PageResult>& results, Report& report) {
  const std::vector<std::string>& reference = state.reference[file];
  report.attempted += reference.size();
  if (results.size() != reference.size()) {
    report.Fail("dump file " + std::to_string(file) + " gave " +
                std::to_string(results.size()) + " pages, reference has " +
                std::to_string(reference.size()));
    return;
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (GraphText(results[i]) != reference[i]) {
      report.Fail("graphs of page \"" + results[i].title +
                  "\" differ from sequential ProcessDumpXml");
    }
  }
}

// Pooled quality of one pass (results of every file, in order).
void SetQuality(const WikiState& state,
                const std::vector<std::vector<core::PageResult>>& files,
                Report& report) {
  Quality quality;
  size_t page = 0;
  for (const std::vector<core::PageResult>& results : files) {
    for (const core::PageResult& result : results) {
      const wikigen::GeneratedPage& truth = state.corpus.corpus.pages[page++];
      quality.Add(truth.truth_tables, result.tables);
      quality.Add(truth.truth_infoboxes, result.infoboxes);
      quality.Add(truth.truth_lists, result.lists);
    }
  }
  report.Set("object_accuracy", quality.objects.Accuracy(), "ratio");
  report.Set("edge_f1", quality.edges.F1(), "ratio");
}

void TimedRun(const RunOptions& options, Report& report) {
  WikiState state;
  TimeSetup(report, false, [&] { state = Setup(options.seed, report); });
  if (!report.correct) return;

  core::Pipeline pipeline;
  std::vector<double> step_ms;
  std::vector<double> file_ms;
  std::vector<double> pass_s;
  std::vector<std::vector<core::PageResult>> last(state.corpus.files.size());
  // Whole passes until the time is up and the per-file latencies leave a
  // p99.
  const Clock::time_point start = Clock::now();
  while (pass_s.empty() || SecondsSince(start) < options.seconds ||
         file_ms.size() < SamplesForTail(0.99)) {
    double pass = 0.0;
    for (size_t f = 0; f < state.corpus.files.size(); ++f) {
      std::istringstream in(state.corpus.files[f]);
      const Clock::time_point file_start = Clock::now();
      StatusOr<std::vector<core::PageResult>> results =
          pipeline.ProcessDumpStream(in, kWikiPageWorkers);
      const double seconds = SecondsSince(file_start);
      pass += seconds;
      file_ms.push_back(seconds * 1e3);
      if (!results.ok()) {
        report.attempted += state.reference[f].size();
        report.Fail("ProcessDumpStream: " + results.status().ToString());
        continue;
      }
      CheckFile(state, f, *results, report);
      for (const core::PageResult& page : *results) {
        const size_t n = page.table_stats.step_millis.size();
        for (size_t r = 0; r < n; ++r) {
          step_ms.push_back(page.table_stats.step_millis[r] +
                            page.infobox_stats.step_millis[r] +
                            page.list_stats.step_millis[r]);
        }
      }
      last[f] = std::move(*results);
    }
    pass_s.push_back(pass);
  }

  // Throughput is the median over whole-corpus passes, so a burst of host
  // contention in one pass does not move it.
  const double pass_median_s = somr::Percentile(pass_s, 0.5);
  report.Set("rev_per_s",
             static_cast<double>(state.corpus.revisions) / pass_median_s, "1/s");
  report.Set("input_mib_per_s",
             static_cast<double>(state.corpus.bytes) / kMiB / pass_median_s,
             "MiB/s");
  // A step is one revision through the page's matchers (all three object
  // types), as the matchers time it themselves.
  SetLatency(report, "step", step_ms, 0.9);
  // A batch request is one dump file streamed to its graphs.
  SetLatency(report, "req", file_ms, 0.99);
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  SetQuality(state, last, report);
  report.Info("passes", static_cast<double>(pass_s.size()));
  report.Info("dump_files", static_cast<double>(state.corpus.files.size()));
  report.Info("revisions_per_pass", static_cast<double>(state.corpus.revisions));
  report.Info("dump_mib", static_cast<double>(state.corpus.bytes) / kMiB);
}

// One dump file through the layers one public call at a time. Mirrors
// ProcessDumpStream: this thread reads pages into a bounded channel, one
// consumer per worker extracts every revision and then matches them. The
// spans are no-ops unless the recorder is enabled.
std::vector<core::PageResult> LayerFile(const std::string& dump,
                                         parallel::Executor& executor,
                                         size_t* instances) {
  std::istringstream in(dump);
  xmldump::PageStreamReader reader(in);
  struct Item {
    size_t index = 0;
    xmldump::PageHistory page;
  };
  parallel::Channel<Item> channel(kWikiPageWorkers * 2);
  std::vector<std::vector<std::pair<size_t, core::PageResult>>> per_worker(
      kWikiPageWorkers);
  std::vector<size_t> per_worker_instances(kWikiPageWorkers, 0);
  parallel::TaskGroup group(executor);
  for (unsigned w = 0; w < kWikiPageWorkers; ++w) {
    group.Run([&, w] {
      Item item;
      while (channel.Pop(item)) {
        obs::TraceIdScope request(obs::NextTraceId());
        obs::TraceSpan page_span("core.page", "perfbench");
        core::PageResult result;
        result.title = item.page.title;
        for (const xmldump::Revision& rev : item.page.revisions) {
          wikitext::Document doc;
          {
            obs::TraceSpan span("wikitext.parse", "perfbench");
            doc = wikitext::ParseWikitext(rev.text);
          }
          obs::TraceSpan span("extract.extract", "perfbench");
          result.revisions.push_back(extract::ExtractFromWikitext(doc));
          per_worker_instances[w] += result.revisions.back().TotalCount();
        }
        matching::PageMatcher matcher;
        matcher.SetExecutor(&executor);
        for (size_t r = 0; r < result.revisions.size(); ++r) {
          obs::TraceSpan span("matching.step", "perfbench");
          matcher.ProcessRevision(static_cast<int>(r), result.revisions[r]);
        }
        result.tables = matcher.TakeGraph(extract::ObjectType::kTable);
        result.infoboxes = matcher.TakeGraph(extract::ObjectType::kInfobox);
        result.lists = matcher.TakeGraph(extract::ObjectType::kList);
        per_worker[w].emplace_back(item.index, std::move(result));
      }
    });
  }
  size_t pages = 0;
  while (true) {
    std::optional<xmldump::PageHistory> page;
    {
      obs::TraceSpan span("xmldump.read", "perfbench");
      page = reader.NextPage();
    }
    if (!page) break;
    channel.Push({pages++, std::move(*page)});
  }
  channel.Close();
  group.Wait();
  std::vector<core::PageResult> results(pages);
  for (auto& worker : per_worker) {
    for (auto& [index, result] : worker) results[index] = std::move(result);
  }
  for (size_t n : per_worker_instances) *instances += n;
  return results;
}

// Every file through LayerFile, checked; returns the wall time.
double LayerPass(const WikiState& state, Report& report, size_t* instances) {
  parallel::Executor executor(kWikiPageWorkers);
  const Clock::time_point start = Clock::now();
  std::vector<std::vector<core::PageResult>> results;
  for (const std::string& file : state.corpus.files) {
    results.push_back(LayerFile(file, executor, instances));
  }
  const double seconds = SecondsSince(start);
  for (size_t f = 0; f < results.size(); ++f) {
    CheckFile(state, f, results[f], report);
  }
  return seconds;
}

void TracedRun(const RunOptions& options, Report& report) {
  WikiState state;
  TimeSetup(report, true, [&] { state = Setup(options.seed, report); });
  if (!report.correct) return;
  InitLayerMetrics(report);

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::vector<double> untraced_s, traced_s;
  std::vector<SpanRow> spans;
  std::map<std::string, double> before, after;
  size_t instances = 0;
  for (int i = 0; i < 2 * kTracedPairs; ++i) {
    if (!TracedTurn(i)) {
      untraced_s.push_back(LayerPass(state, report, &instances));
      continue;
    }
    before = ScrapeRegistry();
    recorder.Enable(kTraceCapacity);
    instances = 0;
    traced_s.push_back(LayerPass(state, report, &instances));
    spans = FromRecorder(recorder.Events());
    if (recorder.dropped() > 0) report.Fail("trace ring dropped spans");
    recorder.Disable();
    after = ScrapeRegistry();
  }

  LinkParents(spans);
  const std::map<std::string, LayerTotals> layers = AggregateByName(spans);
  auto total = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_s;
  };
  auto count = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  report.Set("xmldump.read_s", total("xmldump.read"), "s");
  report.Set("xmldump.mib", static_cast<double>(state.corpus.bytes) / kMiB,
             "MiB");
  report.Set("wikitext.parse_s", total("wikitext.parse"), "s");
  report.Set("wikitext.docs", count("wikitext.parse"), "count");
  report.Set("extract.extract_s", total("extract.extract"), "s");
  report.Set("extract.instances", static_cast<double>(instances), "count");
  SetMatchingSpanLayers(report, spans, [](const std::string& name) {
    return name == "matching.step";
  });
  SetCounterLayers(report, before, after);

  auto is_layer = [](const std::string& name) {
    return name == "xmldump.read" || name == "wikitext.parse" ||
           name == "extract.extract" || name == "matching.step";
  };
  auto is_root = [](const std::string& name) {
    return name == "core.page" || name == "xmldump.read";
  };
  const double busy = CoveredSeconds(spans, is_root);
  report.Set("core.unattributed_share",
             busy > 0.0 ? 1.0 - CoveredSeconds(spans, is_layer) / busy : 0.0,
             "ratio");
  SetTraceOverhead(report, traced_s, untraced_s);
  report.layer_table = LayerTable(layers, traced_s.back());
  WriteSpans(options.work_dir + "/wiki_batch.spans.jsonl", spans);
}

}  // namespace

Report RunWikiBatch(const RunOptions& options) {
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
