// Candidate-generation benchmark for the retrieval index (DESIGN.md
// §12): a synthetic page with N tracked tables is matched against small
// perturbed revisions at N = 10 / 100 / 1000 / 10000. Reports wall time
// per matching step and the number of pairs actually scored against the
// tracked x incoming candidate pairs an all-pairs sweep would face; the
// acceptance bar (exit status 1 below it) is >= 5x fewer pairs scored at
// N = 10000. That the index changes no decision is checked by the
// differential tests against the naive reference matcher
// (tests/matching/retrieval_equivalence_test.cc, same corpus at N = 1000).
//
// The corpus is deliberately hostile to the cheap totals-based upper
// bound: every object has the same weighted total (~40 unique tokens + 8
// drawn from a 50-token shared pool + 4 universal tokens), so
// SimilarityUpperBound(total_a, total_b) is ~1 for every pair and only
// real overlap information — which is what the index provides — can
// prune a pair before scoring.
//
//   bench_retrieval_index                # human-readable to stdout
//   bench_retrieval_index --json [path]  # merge into BENCH_matching.json
//                                        #   as ns_per_op.candidate_gen

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "extract/object.h"
#include "matching/matcher.h"
#include "report.h"

namespace {

using namespace somr;

constexpr size_t kObjectCounts[] = {10, 100, 1000, 10000};
constexpr int kMeasuredSteps = 2;  // revisions after the seeding one
constexpr int kIncomingPerStep = 8;
constexpr double kAcceptanceRatio = 5.0;

// One synthetic table: 40 tokens unique to (object, revision-life), 8
// from the shared pool, 4 universal. One token per cell so the
// tokenizer reproduces the multiset exactly.
extract::ObjectInstance MakeObject(size_t object, int position, Rng& rng) {
  extract::ObjectInstance obj;
  obj.type = extract::ObjectType::kTable;
  obj.position = position;
  obj.schema = {"key", "value"};
  std::vector<std::string> cells;
  for (int j = 0; j < 40; ++j) {
    cells.push_back("u" + std::to_string(object) + "w" + std::to_string(j));
  }
  for (int j = 0; j < 8; ++j) {
    cells.push_back("s" + std::to_string(rng.UniformInt(0, 49)));
  }
  for (int j = 0; j < 4; ++j) {
    cells.push_back("c" + std::to_string(j));
  }
  obj.rows.push_back(std::move(cells));
  return obj;
}

// A revision-over-revision edit of `base`: 4 of the unique tokens are
// rewritten, the rest of the bag is untouched, so the true match clears
// theta2 while every other tracked object stays far below it.
extract::ObjectInstance Perturb(const extract::ObjectInstance& base,
                                int revision, int position) {
  extract::ObjectInstance obj = base;
  obj.position = position;
  for (int j = 0; j < 4; ++j) {
    obj.rows[0][static_cast<size_t>(j)] =
        "r" + std::to_string(revision) + "n" + std::to_string(j);
  }
  return obj;
}

struct Corpus {
  std::vector<extract::ObjectInstance> seed;                  // revision 0
  std::vector<std::vector<extract::ObjectInstance>> updates;  // revisions 1..
};

Corpus BuildCorpus(size_t objects) {
  Rng rng(20260809 + static_cast<uint64_t>(objects));
  Corpus corpus;
  corpus.seed.reserve(objects);
  for (size_t o = 0; o < objects; ++o) {
    corpus.seed.push_back(MakeObject(o, static_cast<int>(o), rng));
  }
  for (int r = 1; r <= kMeasuredSteps; ++r) {
    std::vector<extract::ObjectInstance> incoming;
    for (int i = 0; i < kIncomingPerStep; ++i) {
      const size_t source = rng.Index(objects);
      incoming.push_back(Perturb(corpus.seed[source], r, i));
    }
    corpus.updates.push_back(std::move(incoming));
  }
  return corpus;
}

struct SweepRow {
  size_t objects = 0;
  double step_ns = 0.0;          // wall ns per measured matching step (best)
  uint64_t candidate_pairs = 0;  // tracked x incoming over measured steps
  uint64_t indexed_pairs = 0;    // similarities computed in measured steps
};

SweepRow RunIndexed(const Corpus& corpus, size_t objects, int repeats) {
  SweepRow row;
  row.objects = objects;
  double best = 1e300;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    matching::TemporalMatcher matcher(extract::ObjectType::kTable);
    matcher.ProcessRevision(0, corpus.seed);
    const uint64_t pairs_before = matcher.stats().similarities_computed;
    uint64_t candidate_pairs = 0;
    auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < corpus.updates.size(); ++r) {
      candidate_pairs +=
          matcher.graph().ObjectCount() * corpus.updates[r].size();
      matcher.ProcessRevision(static_cast<int>(r) + 1, corpus.updates[r]);
    }
    auto stop = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    best = std::min(best, ns / corpus.updates.size());
    row.candidate_pairs = candidate_pairs;
    row.indexed_pairs = matcher.stats().similarities_computed - pairs_before;
  }
  row.step_ns = best;
  return row;
}

std::vector<SweepRow> RunSweep() {
  std::vector<SweepRow> rows;
  for (size_t objects : kObjectCounts) {
    const int repeats = objects >= 10000 ? 2 : 3;
    rows.push_back(RunIndexed(BuildCorpus(objects), objects, repeats));
  }
  return rows;
}

double PairReduction(const SweepRow& row) {
  if (row.indexed_pairs == 0) return static_cast<double>(row.candidate_pairs);
  return static_cast<double>(row.candidate_pairs) /
         static_cast<double>(row.indexed_pairs);
}

/// Prints the sweep; returns false when the largest N misses the bar.
bool PrintReport(const std::vector<SweepRow>& rows) {
  std::printf("%8s %14s %16s %12s %8s\n", "objects", "index ns/step",
              "candidate pairs", "index pairs", "ratio");
  for (const SweepRow& row : rows) {
    std::printf("%8zu %14.0f %16llu %12llu %7.1fx\n", row.objects,
                row.step_ns,
                static_cast<unsigned long long>(row.candidate_pairs),
                static_cast<unsigned long long>(row.indexed_pairs),
                PairReduction(row));
  }
  const SweepRow& largest = rows.back();
  if (PairReduction(largest) < kAcceptanceRatio) {
    std::fprintf(stderr,
                 "*** FATAL: pair reduction at %zu objects is %.1fx, "
                 "below the %.0fx acceptance bar ***\n",
                 largest.objects, PairReduction(largest), kAcceptanceRatio);
    return false;
  }
  return true;
}

std::string CandidateGenJson(const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  auto emit_map = [&](const char* name, auto value_of) {
    out << "      \"" << name << "\": {";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out << ", ";
      char buf[80];
      std::snprintf(buf, sizeof buf, "\"%zu\": %.0f", rows[i].objects,
                    value_of(rows[i]));
      out << buf;
    }
    out << "}";
  };
  out << "\"candidate_gen\": {\n";
  emit_map("indexed_step_ns", [](const SweepRow& r) { return r.step_ns; });
  out << ",\n";
  emit_map("candidate_pairs", [](const SweepRow& r) {
    return static_cast<double>(r.candidate_pairs);
  });
  out << ",\n";
  emit_map("indexed_pairs", [](const SweepRow& r) {
    return static_cast<double>(r.indexed_pairs);
  });
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", PairReduction(rows.back()));
  out << ",\n      \"pair_reduction_at_max\": " << buf << "\n    }";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<SweepRow> rows = RunSweep();
  const bool passed = PrintReport(rows);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::string path = i + 1 < argc ? argv[i + 1] : "BENCH_matching.json";
      if (!bench::MergeSection(path, "ns_per_op", CandidateGenJson(rows))) {
        return 1;
      }
    }
  }
  return passed ? 0 : 1;
}
