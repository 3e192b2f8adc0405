// somr_process — production entry point: MediaWiki XML dump in, identity
// graphs / change cubes / change classifications out.
//
//   somr_process dump.xml --threads=8 --cube-out=changes.csv
//   somr_process --demo --graphs-out=/tmp/graphs.txt --classify
//
// See --help for all flags.

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

#include "common/check.h"
#include "common/flags.h"
#include "core/change_classifier.h"
#include "core/change_cube.h"
#include "core/pipeline.h"
#include "matching/graph_io.h"
#include "matching/matcher.h"
#include "matching/validate.h"
#include "obs/cli.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "wikigen/corpus.h"

namespace {

using namespace somr;

std::string DemoXml() {
  SOMR_TRACE_SCOPE_CAT("somr", "somr/gen_corpus");
  return xmldump::WriteDump(wikigen::DemoDump());
}

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("demo", false, "process a generated demo dump");
  flags.AddBool("help", false, "show this help");
  flags.AddInt("threads", 0,
               "worker threads for page processing (0 = auto: one per "
               "hardware thread)");
  flags.AddString("cube-out", "", "write the change cube to this path");
  flags.AddString("cube-format", "csv", "change cube format: csv | jsonl");
  flags.AddString("graphs-out", "",
                  "write all identity graphs to this path");
  flags.AddBool("classify", false,
                "print an update-classification summary");
  flags.AddBool("summary", true, "print per-page object summaries");
  flags.AddBool("validate", false,
                "run the registered invariant validators over every "
                "result (graph linearity, matching validity, retrieval "
                "index consistency) and fail on any violation");
  obs::CliObservability::AddFlags(flags);

  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fputs(flags.Usage(argv[0]).c_str(), stdout);
    return 0;
  }

  obs::CliObservability obs;
  Status obs_status = obs.Init(flags);
  if (!obs_status.ok()) {
    std::fprintf(stderr, "%s\n", obs_status.ToString().c_str());
    return 2;
  }

  core::Pipeline pipeline;
  pipeline.set_provenance_sink(obs.provenance());
  const unsigned threads = parallel::Executor::ResolveThreads(
      static_cast<unsigned>(flags.GetInt("threads")));
  std::printf("threads: %u%s\n", threads,
              flags.GetInt("threads") == 0 ? " (auto)" : "");
  std::optional<parallel::Executor> pool;
  if (threads > 1) {
    pool.emplace(threads);
    pipeline.set_executor(&*pool);
  }
  StatusOr<std::vector<core::PageResult>> results =
      Status::Internal("no input processed");
  {
    // Top-level span; scoped so it ends before obs.Finish() exports the
    // trace buffer.
    SOMR_TRACE_SCOPE_CAT("somr", "somr/run");
    if (flags.GetBool("demo")) {
      results = pipeline.ProcessDumpXml(DemoXml(), threads);
    } else if (!flags.Positional().empty()) {
      // Stream <page> blocks so large dumps never need the whole XML in
      // memory.
      const std::string& path = flags.Positional()[0];
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
      }
      results = pipeline.ProcessDumpStream(in, threads);
    } else {
      std::fprintf(stderr, "no input: pass a dump path or --demo\n%s",
                   flags.Usage(argv[0]).c_str());
      return 2;
    }
  }

  if (Status finished = obs.Finish(); !finished.ok()) {
    std::fprintf(stderr, "%s\n", finished.ToString().c_str());
    return 1;
  }

  if (!results.ok()) {
    std::fprintf(stderr, "failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }

  size_t objects = 0, instances = 0;
  for (const core::PageResult& page : *results) {
    for (extract::ObjectType type : kAllTypes) {
      objects += page.GraphFor(type).ObjectCount();
      instances += page.GraphFor(type).VersionCount();
    }
    if (flags.GetBool("summary")) {
      std::printf("%-50.50s  tables %3zu  infoboxes %3zu  lists %3zu\n",
                  page.title.c_str(), page.tables.ObjectCount(),
                  page.infoboxes.ObjectCount(), page.lists.ObjectCount());
    }
  }
  std::printf("pages: %zu, objects: %zu, object instances: %zu\n",
              results->size(), objects, instances);

  if (!flags.GetString("cube-out").empty()) {
    std::vector<core::ChangeCubeRecord> cube;
    for (const core::PageResult& page : *results) {
      for (extract::ObjectType type : kAllTypes) {
        auto records = core::BuildChangeCube(page, type, page.timestamps);
        cube.insert(cube.end(), records.begin(), records.end());
      }
    }
    std::ofstream out(flags.GetString("cube-out"));
    if (flags.GetString("cube-format") == "jsonl") {
      out << core::ChangeCubeToJsonLines(cube);
    } else {
      out << core::ChangeCubeToCsv(cube);
    }
    std::printf("change cube: %zu records -> %s\n", cube.size(),
                flags.GetString("cube-out").c_str());
  }

  if (!flags.GetString("graphs-out").empty()) {
    std::ofstream out(flags.GetString("graphs-out"));
    for (const core::PageResult& page : *results) {
      out << "## page: " << page.title << "\n";
      for (extract::ObjectType type : kAllTypes) {
        out << matching::SerializeIdentityGraph(page.GraphFor(type));
      }
    }
    std::printf("identity graphs -> %s\n",
                flags.GetString("graphs-out").c_str());
  }

  if (flags.GetBool("validate")) {
    std::printf("validators:\n");
    for (const ValidatorInfo& info : RegisteredValidators()) {
      std::printf("  %-16s %s\n", info.name, info.description);
    }
    ValidationReport report;
    matching::ValidateMatcherConfig(pipeline.config(), &report);
    for (const core::PageResult& page : *results) {
      for (extract::ObjectType type : kAllTypes) {
        matching::ValidateIdentityGraph(page.GraphFor(type), &report);
        matching::ValidateGraphAgainstHistory(page.GraphFor(type),
                                              page.revisions, &report);
      }
    }
    // The graph checks above run on pipeline outputs alone; the
    // retrieval-index validator needs live matcher state, so re-run
    // matching per page and sweep the matcher's validators (including
    // "retrieval_index") over the final windows.
    size_t matchers_swept = 0;
    for (const core::PageResult& page : *results) {
      for (extract::ObjectType type : kAllTypes) {
        matching::TemporalMatcher matcher(type, pipeline.config());
        for (size_t r = 0; r < page.revisions.size(); ++r) {
          matcher.ProcessRevision(static_cast<int>(r),
                                  page.revisions[r].OfType(type));
        }
        matcher.Validate(&report);
        ++matchers_swept;
      }
    }
    if (!report.ok()) {
      std::fprintf(stderr, "validation FAILED (%zu issues):\n%s",
                   report.issue_count(), report.ToString().c_str());
      return 1;
    }
    std::printf("validation OK (%zu pages, %zu objects, "
                "%zu retrieval-index sweeps)\n",
                results->size(), objects, matchers_swept);
  }

  if (flags.GetBool("classify")) {
    std::map<const char*, int> by_class;
    for (const core::PageResult& page : *results) {
      for (extract::ObjectType type : kAllTypes) {
        for (const auto& classified : core::ClassifyChanges(
                 page.GraphFor(type), page.revisions, type,
                 static_cast<int>(page.revisions.size()))) {
          if (classified.record.kind == core::ChangeKind::kUpdate) {
            by_class[core::ChangeClassName(classified.change_class)]++;
          }
        }
      }
    }
    std::printf("update classification:\n");
    for (const auto& [name, count] : by_class) {
      std::printf("  %-14s %6d\n", name, count);
    }
  }
  return 0;
}
