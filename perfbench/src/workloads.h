#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/percentile.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // somr_serve executable (serve_crawl)
  std::string work_dir;   // working directory inside the checkout
};

Report RunWikiBatch(const RunOptions& options);
Report RunLakeMatch(const RunOptions& options);
Report RunServeCrawl(const RunOptions& options);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepetitions = 3;

/// A traced run makes this many untraced and as many traced passes over
/// the same inputs, in ABBA order (untraced, traced, traced, untraced, ...)
/// so drift cancels; trace.overhead_ratio is the ratio of their medians
/// and the per-layer numbers come from the last traced pass.
inline constexpr int kTracedPairs = 3;

/// Whether pass `i` of the 2 * kTracedPairs passes is a traced one.
inline bool TracedTurn(int i) { return i % 4 == 1 || i % 4 == 2; }

/// Ring capacity of the in-process span recorder during a traced pass.
inline constexpr size_t kTraceCapacity = size_t{1} << 21;

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer a workload leaves idle reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
inline constexpr MetricSpec kLayerMetrics[] = {
    {"xmldump.read_s", "s"},         {"xmldump.mib", "MiB"},
    {"wikitext.parse_s", "s"},       {"wikitext.docs", "count"},
    {"extract.extract_s", "s"},      {"extract.instances", "count"},
    {"html.parse_s", "s"},           {"html.extract_s", "s"},
    {"matching.step_s", "s"},        {"matching.steps", "count"},
    {"matching.step_p50_us", "us"},  {"matching.step_p99_us", "us"},
    {"matching.stages_s", "s"},      {"matching.hungarian_s", "s"},
    {"matching.similarities", "count"},
    {"matching.pairs_pruned", "count"},
    {"matching.matches", "count"},   {"matching.new_objects", "count"},
    {"matching.sims_per_match", "ratio"},
    {"retrieval.postings", "count"},
    {"retrieval.candidates_pruned", "count"},
    {"retrieval.wand_skips", "count"},
    {"state.fault_s", "s"},          {"state.faults", "count"},
    {"state.spills", "count"},       {"state.commits", "count"},
    {"state.full_records", "count"}, {"state.delta_records", "count"},
    {"state.delta_replays", "count"},
    {"state.live_mib", "MiB"},       {"state.superseded_mib", "MiB"},
    {"state.max_delta_depth", "count"},
    {"serve.hit_ratio", "ratio"},    {"serve.checkpoint_ms", "ms"},
    {"serve.http_errors", "count"},
    {"parallel.tasks", "count"},     {"parallel.steals", "count"},
    {"parallel.parks", "count"},
    {"core.unattributed_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Reports every per-layer metric as 0 so idle layers still appear.
void InitLayerMetrics(Report& report);

/// Sets `name` to the q-quantile of `samples` times `scale`. With fewer
/// than kMinSamplesBeyond samples beyond that quantile the metric is left
/// out and the run fails.
void SetPercentile(Report& report, const std::string& name,
                   const std::vector<double>& samples, double q, double scale,
                   const std::string& unit);

/// Sets the latency pair `<prefix>_p50_ms` / `<prefix>_p<100 tail_q>_ms`
/// from millisecond samples and records the sample count and the
/// percentile rule's tail beside it.
void SetLatency(Report& report, const std::string& prefix,
                const std::vector<double>& samples_ms, double tail_q);

/// Process-wide metrics registry in Prometheus form (the same text the
/// daemon serves at /metrics), so in-process and daemon runs share one
/// parser.
std::map<std::string, double> ScrapeRegistry();

/// Sets the matching, retrieval and parallel counters from two scrapes.
void SetCounterLayers(Report& report, const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after);

/// Sets matching.step_* and matching.stages_s/hungarian_s from spans;
/// `is_step` selects the spans that time one matching step.
void SetMatchingSpanLayers(Report& report, const std::vector<SpanRow>& spans,
                           const std::function<bool(const std::string&)>& is_step);

/// Runs `setup` kSetupRepetitions times (once for a traced run), sets
/// setup_s to the median and records the host probe beside it.
void TimeSetup(Report& report, bool traced, const std::function<void()>& setup);

/// Sets trace.overhead_ratio: the median traced over the median untraced
/// wall time of the same passes.
void SetTraceOverhead(Report& report, const std::vector<double>& traced_s,
                      const std::vector<double>& untraced_s);

}  // namespace perfbench
