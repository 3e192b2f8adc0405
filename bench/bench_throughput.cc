// End-to-end pipeline throughput: MediaWiki XML in, identity graphs out
// — the number that decides whether 40 million revisions (the paper's
// full-corpus scale, Sec. I) are tractable. Reports XML MB/s and
// revisions/s for the sequential pipeline and for page-parallel
// processing.

#include <thread>

#include "bench_util.h"
#include "common/timer.h"
#include "core/pipeline.h"

int main() {
  using namespace somr;

  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3, 7, 15};
  config.pages_per_stratum =
      std::max(2, static_cast<int>(6 * bench::ScaleFromEnv()));
  config.min_revisions = 60;
  config.max_revisions = 120;
  config.seed = 31337;
  wikigen::GoldCorpus corpus = wikigen::GenerateGoldCorpus(config);
  std::string xml = xmldump::WriteDump(wikigen::CorpusToDump(corpus));
  size_t revisions = 0;
  for (const auto& page : corpus.pages) revisions += page.revisions.size();

  bench::PrintHeader("Pipeline throughput (parse + extract + match)");
  std::printf("corpus: %zu pages, %zu revisions, %.1f MiB XML\n",
              corpus.pages.size(), revisions,
              static_cast<double>(xml.size()) / (1 << 20));
  std::printf("%-18s %10s %12s %12s\n", "configuration", "time (s)",
              "MiB/s", "revisions/s");

  core::Pipeline pipeline;
  unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  for (unsigned threads : {1u, 2u, hw}) {
    Timer timer;
    auto results = pipeline.ProcessDumpXml(xml, threads);
    double seconds = timer.ElapsedSeconds();
    if (!results.ok()) {
      std::printf("pipeline failed: %s\n",
                  results.status().ToString().c_str());
      return 1;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%u thread%s", threads,
                  threads == 1 ? "" : "s");
    std::printf("%-18s %10.2f %12.2f %12.0f\n", label, seconds,
                static_cast<double>(xml.size()) / (1 << 20) / seconds,
                static_cast<double>(revisions) / seconds);
  }
  std::printf(
      "\nSanity: all configurations must produce identical graphs (tested\n"
      "in core_test); throughput should scale with cores until parsing\n"
      "saturates memory bandwidth.\n");
  return 0;
}
