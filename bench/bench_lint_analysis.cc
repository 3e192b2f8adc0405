// Full-tree runtime of the somr_lint analysis passes (DESIGN.md §16):
// LintPaths over src/ and tools/ with every rule enabled — token rules
// plus the project-wide lock-discipline / lock-order /
// annotation-coverage passes — timed end to end, best of three. The
// analyzer runs in the lint stage of every verify, so its wall time is
// a budget worth watching alongside the matching kernels.
//
//   bench_lint_analysis                # human-readable to stdout
//   bench_lint_analysis --json [path]  # merge into BENCH_matching.json
//                                      #   as ns_per_op.lint_analysis

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "report.h"

namespace {

constexpr int kRepeats = 3;

struct RunResult {
  double tree_ns = 0.0;  // best-of-kRepeats wall ns for the whole tree
  size_t files_scanned = 0;
  size_t findings = 0;
};

RunResult RunAnalysis() {
  RunResult result;
  double best = 1e300;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    const auto start = std::chrono::steady_clock::now();
    somr::lint::LintResult lint =
        somr::lint::LintPaths({"src", "tools"}, {});
    const auto stop = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    best = std::min(best, ns);
    result.files_scanned = lint.files_scanned;
    result.findings = lint.diagnostics.size();
  }
  result.tree_ns = best;
  return result;
}

std::string LintAnalysisJson(const RunResult& r) {
  const double per_file =
      r.files_scanned == 0
          ? 0.0
          : r.tree_ns / static_cast<double>(r.files_scanned);
  std::ostringstream out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"lint_analysis\": {\n"
                "      \"tree_ns\": %.0f,\n"
                "      \"files_scanned\": %zu,\n"
                "      \"ns_per_file\": %.0f\n    }",
                r.tree_ns, r.files_scanned, per_file);
  out << buf;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunResult r = RunAnalysis();
  if (r.files_scanned == 0) {
    std::fprintf(stderr,
                 "no files scanned — run from the repository root\n");
    return 1;
  }
  std::printf("lint analysis: %zu files, %.1f ms tree, %.0f ns/file, "
              "%zu findings\n",
              r.files_scanned, r.tree_ns / 1e6,
              r.tree_ns / static_cast<double>(r.files_scanned),
              r.findings);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::string path = i + 1 < argc ? argv[i + 1] : "BENCH_matching.json";
      return somr::bench::MergeSection(path, "ns_per_op",
                                       LintAnalysisJson(r))
                 ? 0
                 : 1;
    }
  }
  return 0;
}
