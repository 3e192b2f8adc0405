// Thread-scaling benchmark for the work-stealing executor: runs the
// pipeline over a multi-page corpus at 1/2/4/8 workers (per-page
// parallelism) and the matcher over one large page with the intra-step
// similarity prefill engaged, and merges the wall times into
// BENCH_matching.json under "parallel_scaling". The JSON records the
// machine's hardware_concurrency so numbers from a 1-core container
// (where all thread counts are expected to tie) are not mistaken for a
// scaling regression.
//
//   bench_parallel_scaling                # human-readable to stdout
//   bench_parallel_scaling --json [path]  # merge into BENCH_matching.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "parallel/executor.h"
#include "report.h"
#include "wikigen/corpus.h"

namespace {

using namespace somr;

constexpr unsigned kThreadCounts[] = {1, 2, 4, 8};

// Multi-page corpus for the per-page sweep.
std::string MultiPageXml() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3, 8};
  config.pages_per_stratum = 4;
  config.min_revisions = 20;
  config.max_revisions = 40;
  config.seed = 11;
  return xmldump::WriteDump(
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config)));
}

// One page with many objects per revision, so each matching step has a
// candidate-pair count worth fanning out.
xmldump::PageHistory LargePage() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {32};
  config.pages_per_stratum = 1;
  config.min_revisions = 12;
  config.max_revisions = 12;
  config.seed = 12;
  return std::move(
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config)).pages[0]);
}

double MeasureSeconds(const std::function<void()>& op) {
  double best = 1e300;
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto start = std::chrono::steady_clock::now();
    op();
    auto stop = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

struct ScalingReport {
  unsigned hardware_concurrency = 0;
  size_t pages = 0;
  // Parallel to kThreadCounts.
  std::vector<double> per_page_seconds;
  std::vector<double> intra_step_seconds;
  double intra_step_sequential = 0.0;
};

ScalingReport RunSweep() {
  ScalingReport report;
  report.hardware_concurrency = std::thread::hardware_concurrency();

  const std::string xml = MultiPageXml();
  for (unsigned threads : kThreadCounts) {
    core::Pipeline pipeline;
    if (threads == 1) {
      report.per_page_seconds.push_back(MeasureSeconds([&] {
        auto results = pipeline.ProcessDumpXml(xml);
        if (results.ok()) report.pages = results->size();
      }));
      continue;
    }
    parallel::Executor pool(threads);
    pipeline.set_executor(&pool);
    report.per_page_seconds.push_back(MeasureSeconds([&] {
      auto results = pipeline.ProcessDumpXml(xml, threads);
      if (results.ok()) report.pages = results->size();
    }));
  }

  const xmldump::PageHistory page = LargePage();
  matching::MatcherConfig config;
  config.parallel_min_pairs = 256;  // engage the prefill on this corpus
  {
    core::Pipeline sequential(config);
    report.intra_step_sequential =
        MeasureSeconds([&] { sequential.ProcessPage(page); });
  }
  for (unsigned threads : kThreadCounts) {
    parallel::Executor pool(threads);
    core::Pipeline pipeline(config);
    pipeline.set_executor(&pool);
    report.intra_step_seconds.push_back(
        MeasureSeconds([&] { pipeline.ProcessPage(page); }));
  }
  return report;
}

std::string ScalingJson(const ScalingReport& report) {
  std::ostringstream out;
  out << "\"parallel_scaling\": {\n";
  out << "    \"hardware_concurrency\": " << report.hardware_concurrency
      << ",\n";
  if (report.hardware_concurrency <= 1) {
    out << "    \"unreliable\": true,\n";
  }
  out << "    \"pages\": " << report.pages << ",\n";
  auto emit_map = [&](const char* name, const std::vector<double>& seconds) {
    out << "    \"" << name << "\": {";
    for (size_t i = 0; i < seconds.size(); ++i) {
      if (i > 0) out << ", ";
      char buf[64];
      std::snprintf(buf, sizeof buf, "\"%u\": %.6f", kThreadCounts[i],
                    seconds[i]);
      out << buf;
    }
    out << "},\n";
  };
  emit_map("per_page_seconds", report.per_page_seconds);
  emit_map("intra_step_seconds", report.intra_step_seconds);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", report.intra_step_sequential);
  out << "    \"intra_step_sequential_seconds\": " << buf << "\n";
  out << "  }";
  return out.str();
}

void PrintReport(const ScalingReport& report) {
  std::printf("hardware threads: %u\n", report.hardware_concurrency);
  std::printf("per-page (%zu pages):\n", report.pages);
  for (size_t i = 0; i < report.per_page_seconds.size(); ++i) {
    std::printf("  %u threads: %8.3f s  (%.2fx)\n", kThreadCounts[i],
                report.per_page_seconds[i],
                report.per_page_seconds[0] / report.per_page_seconds[i]);
  }
  std::printf("intra-step (1 page, sequential %.3f s):\n",
              report.intra_step_sequential);
  for (size_t i = 0; i < report.intra_step_seconds.size(); ++i) {
    std::printf("  %u threads: %8.3f s  (%.2fx)\n", kThreadCounts[i],
                report.intra_step_seconds[i],
                report.intra_step_sequential / report.intra_step_seconds[i]);
  }
}

// All thread counts contend for the same core on a 1-core machine, so
// the sweep cannot distinguish a scaling regression from scheduler
// noise; the JSON is tagged so downstream comparisons skip it.
void WarnIfUnreliable(const ScalingReport& report) {
  if (report.hardware_concurrency > 1) return;
  std::fprintf(stderr,
               "*** WARNING: hardware_concurrency=%u -- thread-scaling "
               "numbers are MEANINGLESS on this machine; the JSON report "
               "is tagged \"unreliable\": true ***\n",
               report.hardware_concurrency);
}

}  // namespace

int main(int argc, char** argv) {
  ScalingReport report = RunSweep();
  WarnIfUnreliable(report);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::string path = i + 1 < argc ? argv[i + 1] : "BENCH_matching.json";
      return bench::MergeSection(path, "", ScalingJson(report)) ? 0 : 1;
    }
  }
  PrintReport(report);
  return 0;
}
