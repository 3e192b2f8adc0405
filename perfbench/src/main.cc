// perfbench_workload — runs one benchmark workload against the somr entry
// points and writes its report (metrics with units, operation counts,
// correctness, diagnostics) as JSON. perfbench/run.py builds it and passes
// every flag:
//
//   perfbench_workload --workload=lake_match --seed=3 --seconds=15
//       --trace=0 --serve-bin=somr_serve --work-dir=work --out=report.json
//       --watchdog=170
//
// Workloads: wiki_batch, lake_match, serve_crawl. --trace=1 runs the
// traced pass and reports the per-layer metrics.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  somr::FlagParser flags;
  flags.AddString("workload", "", "wiki_batch | lake_match | serve_crawl");
  flags.AddInt("seed", 0, "input seed");
  flags.AddDouble("seconds", 0.0, "measured time of a timed run");
  flags.AddInt("trace", 0, "1 = traced pass with per-layer metrics");
  flags.AddString("serve-bin", "", "somr_serve executable");
  flags.AddString("work-dir", "", "working directory for daemon state and spans");
  flags.AddString("out", "", "report JSON path");
  flags.AddInt("watchdog", 0, "abort the run after this many seconds");
  if (somr::Status parsed = flags.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.GetDouble("seconds") <= 0.0 || flags.GetInt("watchdog") <= 0 ||
      flags.GetString("serve-bin").empty() ||
      flags.GetString("work-dir").empty() || flags.GetString("out").empty()) {
    std::fprintf(stderr,
                 "--seconds, --watchdog, --serve-bin, --work-dir and --out "
                 "are required\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  // A hung daemon or socket must not outlive the run: SIGALRM's default
  // action ends this process, and children die with it (PDEATHSIG).
  alarm(static_cast<unsigned>(flags.GetInt("watchdog")));

  RunOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.seconds = flags.GetDouble("seconds");
  options.trace = flags.GetInt("trace") != 0;
  options.serve_bin = flags.GetString("serve-bin");
  options.work_dir = flags.GetString("work-dir");
  std::filesystem::create_directories(options.work_dir);

  const std::string workload = flags.GetString("workload");
  Report report;
  if (workload == "wiki_batch") {
    report = RunWikiBatch(options);
  } else if (workload == "lake_match") {
    report = RunLakeMatch(options);
  } else if (workload == "serve_crawl") {
    report = RunServeCrawl(options);
  } else {
    std::fprintf(stderr, "unknown workload \"%s\"\n", workload.c_str());
    return 2;
  }
  report.Info("hardware_concurrency",
              static_cast<double>(std::thread::hardware_concurrency()));

  const std::string out = flags.GetString("out");
  std::ofstream file(out);
  file << report.ToJson() << "\n";
  if (!file.good()) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  return report.correct ? 0 : 1;
}
