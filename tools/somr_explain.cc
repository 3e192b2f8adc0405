// somr_explain — match-decision provenance: processes a dump (or the demo
// corpus) and emits one JSONL record per matcher decision, explaining why
// each incoming instance was attached to its object (stage, similarity,
// threshold, rear-view depth, tie-breakers), why candidate pairs lost the
// assignment, and where new objects were created. Since provenance
// schema v2, records also carry "candidates_considered" — how many
// candidate pairs the matcher actually scored for the instance (pair
// records: this stage; new-object records: across all stages; step
// records: the step total), which quantifies what the retrieval index
// pruned. Old readers can ignore the extra key.
//
//   somr_explain --demo                        # JSONL to stdout
//   somr_explain dump.xml --out=decisions.jsonl --page='Some title'
//
// Equivalent to `somr_process --explain-out=...` but defaults to stdout
// and can filter to a single page, for interactive debugging.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/flags.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "obs/provenance.h"
#include "wikigen/corpus.h"

namespace {

using namespace somr;

/// Forwards only records of one page (empty filter forwards everything).
class PageFilterSink : public obs::ProvenanceSink {
 public:
  PageFilterSink(obs::ProvenanceSink* inner, std::string page)
      : inner_(inner), page_(std::move(page)) {}

  void Record(const obs::MatchDecision& decision) override {
    if (!page_.empty() && decision.page != page_) return;
    inner_->Record(decision);
  }

 private:
  obs::ProvenanceSink* inner_;
  std::string page_;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddBool("demo", false, "explain a generated demo dump");
  flags.AddString("out", "-",
                  "provenance JSONL output path (\"-\" = stdout)");
  flags.AddString("page", "", "only emit records for this page title");
  flags.AddBool("steps", true,
                "include per-revision step summary records");
  flags.AddBool("help", false, "show this help");

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

  std::string xml;
  if (flags.GetBool("demo")) {
    xml = xmldump::WriteDump(wikigen::DemoDump());
  } else if (!flags.Positional().empty()) {
    StatusOr<std::string> read = ReadFileToString(flags.Positional()[0]);
    if (!read.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n",
                   flags.Positional()[0].c_str(),
                   read.status().ToString().c_str());
      return 1;
    }
    xml = std::move(*read);
  } else {
    std::fprintf(stderr, "no input: pass a dump path or --demo\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }

  std::ofstream file;
  std::ostream* out = &std::cout;
  const std::string out_path = flags.GetString("out");
  if (out_path != "-") {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot create %s\n", out_path.c_str());
      return 1;
    }
    out = &file;
  }

  obs::JsonlProvenanceWriter writer(*out);

  /// Optional extra filter dropping step summaries (--steps=false keeps
  /// only the per-pair and new-object records).
  class StepFilterSink : public obs::ProvenanceSink {
   public:
    StepFilterSink(obs::ProvenanceSink* inner, bool keep_steps)
        : inner_(inner), keep_steps_(keep_steps) {}
    void Record(const obs::MatchDecision& decision) override {
      if (!keep_steps_ &&
          decision.kind == obs::MatchDecision::Kind::kStep) {
        return;
      }
      inner_->Record(decision);
    }

   private:
    obs::ProvenanceSink* inner_;
    bool keep_steps_;
  };
  StepFilterSink step_filter(&writer, flags.GetBool("steps"));
  PageFilterSink filter(&step_filter, flags.GetString("page"));

  core::Pipeline pipeline;
  pipeline.set_provenance_sink(&filter);
  StatusOr<std::vector<core::PageResult>> results =
      pipeline.ProcessDumpXml(xml);
  if (!results.ok()) {
    std::fprintf(stderr, "failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }

  if (out_path != "-") {
    std::fprintf(stderr, "provenance: %zu records (%zu matches) -> %s\n",
                 writer.records(), writer.match_records(),
                 out_path.c_str());
  }
  return 0;
}
