#include <cstdio>

#include "obs/metrics.h"
#include "sys.h"
#include "workloads.h"

namespace perfbench {

void InitLayerMetrics(Report& report) {
  for (const MetricSpec& m : kLayerMetrics) report.Set(m.name, 0.0, m.unit);
}

void SetPercentile(Report& report, const std::string& name,
                   const std::vector<double>& samples, double q, double scale,
                   const std::string& unit) {
  if (SamplesBeyond(samples.size(), q) < kMinSamplesBeyond) {
    report.Fail(name + ": " + std::to_string(samples.size()) +
                " samples leave fewer than " +
                std::to_string(kMinSamplesBeyond) + " beyond the percentile");
    return;
  }
  report.Set(name, somr::Percentile(samples, q) * scale, unit);
}

void SetLatency(Report& report, const std::string& prefix,
                const std::vector<double>& samples_ms, double tail_q) {
  char tail_name[64];
  std::snprintf(tail_name, sizeof(tail_name), "%s_p%g_ms", prefix.c_str(),
                tail_q * 100.0);
  SetPercentile(report, prefix + "_p50_ms", samples_ms, 0.5, 1.0, "ms");
  SetPercentile(report, tail_name, samples_ms, tail_q, 1.0, "ms");
  report.Info(prefix + "_samples", static_cast<double>(samples_ms.size()));
  report.Info(prefix + "_rule_percentile",
              TailQuantile(samples_ms.size()) * 100.0);
}

std::map<std::string, double> ScrapeRegistry() {
  return ParsePrometheus(
      somr::obs::RenderMetricsText(somr::obs::MetricsRegistry::Global().Scrape()));
}

void SetCounterLayers(Report& report, const std::map<std::string, double>& before,
                      const std::map<std::string, double>& after) {
  auto delta = [&](const char* name) {
    return Sample(after, name) - Sample(before, name);
  };
  const double similarities = delta("somr_match_similarities_total");
  const double matches = delta("somr_match_stage1_matches_total") +
                         delta("somr_match_stage2_matches_total") +
                         delta("somr_match_stage3_matches_total");
  report.Set("matching.similarities", similarities, "count");
  report.Set("matching.pairs_pruned", delta("somr_match_pairs_pruned_total"),
             "count");
  report.Set("matching.matches", matches, "count");
  report.Set("matching.new_objects", delta("somr_match_new_objects_total"),
             "count");
  report.Set("matching.sims_per_match",
             matches > 0.0 ? similarities / matches : 0.0, "ratio");
  report.Set("retrieval.postings", delta("somr_retrieval_postings_total"),
             "count");
  report.Set("retrieval.candidates_pruned",
             delta("somr_retrieval_candidates_pruned_total"), "count");
  report.Set("retrieval.wand_skips", delta("somr_retrieval_wand_skips_total"),
             "count");
  report.Set("parallel.tasks", delta("somr_executor_tasks_total"), "count");
  report.Set("parallel.steals", delta("somr_executor_steals_total"), "count");
  report.Set("parallel.parks", delta("somr_executor_parks_total"), "count");
}

void SetMatchingSpanLayers(
    Report& report, const std::vector<SpanRow>& spans,
    const std::function<bool(const std::string&)>& is_step) {
  const std::vector<double> durations = Durations(spans, is_step);
  double step_s = 0.0;
  for (double d : durations) step_s += d;
  report.Set("matching.step_s", step_s, "s");
  report.Set("matching.steps", static_cast<double>(durations.size()), "count");
  SetPercentile(report, "matching.step_p50_us", durations, 0.5, 1e6, "us");
  SetPercentile(report, "matching.step_p99_us", durations, 0.99, 1e6, "us");
  report.Info("matching.step_rule_percentile",
              TailQuantile(durations.size()) * 100.0);
  const std::map<std::string, LayerTotals> by_name = AggregateByName(spans);
  double stages_self = 0.0;
  for (const char* stage : {"match/stage1", "match/stage2", "match/stage3"}) {
    if (auto it = by_name.find(stage); it != by_name.end()) {
      stages_self += it->second.self_s;
    }
  }
  report.Set("matching.stages_s", stages_self, "s");
  auto hungarian = by_name.find("match/hungarian");
  report.Set("matching.hungarian_s",
             hungarian == by_name.end() ? 0.0 : hungarian->second.total_s,
             "s");
}

void TimeSetup(Report& report, bool traced, const std::function<void()>& setup) {
  report.Info("host_probe_before_s", HostProbeSeconds());
  std::vector<double> times;
  const int repetitions = traced ? 1 : kSetupRepetitions;
  for (int i = 0; i < repetitions; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  for (size_t i = 0; i < times.size(); ++i) {
    report.Info("setup_rep" + std::to_string(i) + "_s", times[i]);
  }
  if (!traced) report.Set("setup_s", somr::Percentile(times, 0.5), "s");
}

void SetTraceOverhead(Report& report, const std::vector<double>& traced_s,
                      const std::vector<double>& untraced_s) {
  const double traced = somr::Percentile(traced_s, 0.5);
  const double untraced = somr::Percentile(untraced_s, 0.5);
  report.Set("trace.overhead_ratio", traced / untraced, "ratio");
  report.Info("traced_wall_s", traced);
  report.Info("untraced_wall_s", untraced);
}

}  // namespace perfbench
