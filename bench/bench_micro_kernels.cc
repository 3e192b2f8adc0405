// Google-benchmark microbenchmarks of the core kernels the matcher is
// built from: similarity computation, IOF weighting, Hungarian matching,
// wikitext/HTML parsing, object extraction and bag compilation. These
// quantify the constants behind Fig. 11.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "archive/socrata.h"
#include "baselines/subject_column.h"
#include "common/rng.h"
#include "extract/features.h"
#include "extract/html_extractor.h"
#include "extract/wikitext_extractor.h"
#include "matching/hungarian.h"
#include "matching/matcher.h"
#include "sim/similarity.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"
#include "wikigen/content_gen.h"
#include "wikigen/evolver.h"
#include "wikigen/render.h"

#include "report.h"

namespace {

using namespace somr;

BagOfWords MakeBag(Rng& rng, int tokens, int vocabulary) {
  BagOfWords bag;
  for (int i = 0; i < tokens; ++i) {
    bag.Add("token" + std::to_string(rng.UniformInt(0, vocabulary - 1)));
  }
  return bag;
}

void BM_Ruzicka(benchmark::State& state) {
  Rng rng(1);
  int tokens = static_cast<int>(state.range(0));
  BagOfWords a = MakeBag(rng, tokens, tokens);
  BagOfWords b = MakeBag(rng, tokens, tokens);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::Ruzicka(a, b));
  }
}
BENCHMARK(BM_Ruzicka)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_WeightedRuzicka(benchmark::State& state) {
  Rng rng(2);
  int tokens = static_cast<int>(state.range(0));
  BagOfWords a = MakeBag(rng, tokens, tokens);
  BagOfWords b = MakeBag(rng, tokens, tokens);
  sim::TokenWeighting weighting =
      sim::TokenWeighting::InverseObjectFrequency({&a, &b}, {&a, &b});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::WeightedRuzicka(a, b, weighting));
  }
}
BENCHMARK(BM_WeightedRuzicka)->Arg(64)->Arg(256);

/// Interns a BagOfWords into `pool` as a FlatBag (bench setup helper).
FlatBag InternBag(const BagOfWords& bag, TokenPool& pool) {
  std::vector<uint32_t> ids;
  for (const auto& [token, count] : bag.counts()) {
    for (int i = 0; i < static_cast<int>(count); ++i) {
      ids.push_back(pool.Intern(token));
    }
  }
  return FlatBag::FromTokenIds(std::move(ids));
}

/// The matcher's IOF weights for a step where `bags` are both the
/// tracked objects' newest bags and the incoming bags.
sim::DenseTokenWeights IofWeights(const std::vector<const FlatBag*>& bags,
                                  uint32_t pool_size) {
  sim::DenseTokenWeights weights;
  weights.ResetIncremental(pool_size);
  for (const FlatBag* bag : bags) weights.AddPrevBag(*bag);
  weights.BeginIncrementalStep(bags, pool_size);
  return weights;
}

void BM_FlatRuzicka(benchmark::State& state) {
  Rng rng(1);
  int tokens = static_cast<int>(state.range(0));
  TokenPool pool;
  FlatBag a = InternBag(MakeBag(rng, tokens, tokens), pool);
  FlatBag b = InternBag(MakeBag(rng, tokens, tokens), pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::Ruzicka(a, b));
  }
}
BENCHMARK(BM_FlatRuzicka)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_FlatWeightedRuzicka(benchmark::State& state) {
  Rng rng(2);
  int tokens = static_cast<int>(state.range(0));
  TokenPool pool;
  FlatBag a = InternBag(MakeBag(rng, tokens, tokens), pool);
  FlatBag b = InternBag(MakeBag(rng, tokens, tokens), pool);
  sim::DenseTokenWeights weights = IofWeights({&a, &b}, pool.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::WeightedRuzicka(a, b, weights));
  }
}
BENCHMARK(BM_FlatWeightedRuzicka)->Arg(64)->Arg(256);

/// One full matching step (the hot path of Fig. 11): all revisions of a
/// synthetic page pushed through a fresh TemporalMatcher.
std::vector<extract::PageObjects> MatcherBenchRevisions() {
  Rng rng(8);
  wikigen::ContentGenerator gen(rng, wikigen::PageTheme::kGeneric);
  wikigen::LogicalPage page;
  for (int i = 0; i < 8; ++i) {
    page.InsertObject(i, gen.NewTable(), page.items.size());
  }
  std::string source = wikigen::RenderWikitext(page);
  std::vector<extract::PageObjects> revisions;
  for (int r = 0; r < 6; ++r) {
    revisions.push_back(extract::ExtractFromWikitextSource(source));
  }
  return revisions;
}

void RunMatcher(const std::vector<extract::PageObjects>& revisions) {
  matching::TemporalMatcher matcher(extract::ObjectType::kTable);
  for (size_t r = 0; r < revisions.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), revisions[r].tables);
  }
  benchmark::DoNotOptimize(matcher.graph().objects().size());
}

void BM_MatchingStep(benchmark::State& state) {
  auto revisions = MatcherBenchRevisions();
  for (auto _ : state) RunMatcher(revisions);
}
BENCHMARK(BM_MatchingStep);

void BM_Hungarian(benchmark::State& state) {
  Rng rng(3);
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<matching::WeightedEdge> edges;
  for (size_t l = 0; l < n; ++l) {
    for (size_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.5)) {
        edges.push_back({static_cast<int>(l), static_cast<int>(r),
                         0.4 + 0.6 * rng.UniformDouble()});
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matching::MaxWeightMatching(n, n, edges));
  }
}
BENCHMARK(BM_Hungarian)->Arg(4)->Arg(16)->Arg(64);

std::string SampleWikitext() {
  Rng rng(4);
  wikigen::ContentGenerator gen(rng, wikigen::PageTheme::kAwards);
  wikigen::LogicalPage page;
  page.title = "Bench";
  for (int i = 0; i < 8; ++i) {
    page.InsertObject(i, gen.NewTable(), page.items.size());
  }
  page.InsertObject(100, gen.NewInfobox(), 0);
  page.InsertObject(101, gen.NewList(), page.items.size());
  return wikigen::RenderWikitext(page);
}

void BM_ParseAndExtractWikitext(benchmark::State& state) {
  std::string source = SampleWikitext();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract::ExtractFromWikitextSource(source));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(source.size()));
}
BENCHMARK(BM_ParseAndExtractWikitext);

/// One 40-revision wikigen page through a WikitextHistory, as the batch
/// and ingest drivers extract a page: each revision reuses the object
/// elements the previous one already parsed.
void BM_ExtractWikitextHistory(benchmark::State& state) {
  wikigen::EvolverConfig config;
  config.max_focal_objects = 16;
  config.initial_focal_objects = 8;
  config.num_revisions = 40;
  config.seed = 9;
  const wikigen::GeneratedPage page = wikigen::PageEvolver(config).Generate();
  int64_t bytes = 0;
  for (const wikigen::GeneratedRevision& rev : page.revisions) {
    bytes += static_cast<int64_t>(rev.wikitext.size());
  }
  for (auto _ : state) {
    extract::WikitextHistory history;
    for (const wikigen::GeneratedRevision& rev : page.revisions) {
      benchmark::DoNotOptimize(history.Next(rev.wikitext));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_ExtractWikitextHistory);

void BM_ParseAndExtractHtml(benchmark::State& state) {
  Rng rng(5);
  wikigen::ContentGenerator gen(rng, wikigen::PageTheme::kGeneric);
  wikigen::LogicalPage page;
  page.title = "Bench";
  for (int i = 0; i < 8; ++i) {
    page.InsertObject(i, gen.NewTable(), page.items.size());
  }
  std::string html = wikigen::RenderHtml(page);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract::ExtractFromHtmlSource(html));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(html.size()));
}
BENCHMARK(BM_ParseAndExtractHtml);

void BM_BuildBagOfWords(benchmark::State& state) {
  Rng rng(6);
  wikigen::ContentGenerator gen(rng, wikigen::PageTheme::kGeneric);
  wikigen::LogicalPage page;
  page.InsertObject(0, gen.NewTable(), 0);
  extract::PageObjects objects =
      extract::ExtractFromWikitextSource(wikigen::RenderWikitext(page));
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract::BuildBagOfWords(objects.tables[0]));
  }
}
BENCHMARK(BM_BuildBagOfWords);

void BM_SubjectColumnDetection(benchmark::State& state) {
  Rng rng(7);
  wikigen::ContentGenerator gen(rng, wikigen::PageTheme::kGeneric);
  wikigen::LogicalPage page;
  page.InsertObject(0, gen.NewTable(), 0);
  extract::PageObjects objects =
      extract::ExtractFromWikitextSource(wikigen::RenderWikitext(page));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::DetectSubjectColumn(objects.tables[0]));
  }
}
BENCHMARK(BM_SubjectColumnDetection);

/// One snapshot of a Socrata subdomain: eight open-data tables of 20-150
/// rows, the bags the data-lake matcher compiles every step.
std::vector<extract::ObjectInstance> SocrataTables() {
  archive::SocrataConfig config;
  config.subdomains = {"bench"};
  config.datasets_per_subdomain = 8;
  config.num_snapshots = 1;
  return archive::GenerateSocrata(config).front().snapshots.front();
}

/// Compiles every table into a FlatBag against a warm pool, as a lake
/// step does once the context's vocabulary has been seen.
void BuildFlatBags(const std::vector<extract::ObjectInstance>& tables,
                   TokenPool& pool) {
  for (const extract::ObjectInstance& table : tables) {
    benchmark::DoNotOptimize(extract::BuildFlatBag(table, pool));
  }
}

void BM_BuildFlatBag(benchmark::State& state) {
  const std::vector<extract::ObjectInstance> tables = SocrataTables();
  TokenPool pool;
  BuildFlatBags(tables, pool);
  for (auto _ : state) BuildFlatBags(tables, pool);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tables.size()));
}
BENCHMARK(BM_BuildFlatBag);

/// Best-of-repeats wall-clock timing for the --json report. Uses plain
/// chrono rather than the benchmark library so the output stays a small,
/// stable, machine-diffable file.
double MeasureNsPerOp(int iters, const std::function<void()>& op) {
  double best = 1e300;
  for (int repeat = 0; repeat < 5; ++repeat) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) op();
    auto stop = std::chrono::steady_clock::now();
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());
    best = std::min(best, ns / iters);
  }
  return best;
}

/// One serve_crawl-shaped crawl capture: the last revision of a wikigen
/// table page rendered with web chrome (site header, navigation, sidebar
/// and footer around the content).
std::string CrawlCapture() {
  wikigen::EvolverConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.max_focal_objects = 6;
  config.num_revisions = 60;
  config.seed = 9;
  config.html_web_chrome = true;
  return wikigen::PageEvolver(config).Generate().revisions.back().html;
}

/// One rendered `"name": value` member of the report.
std::string Member(const char* name, double ns) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"%s\": %.1f", name, ns);
  return buf;
}

std::string StringAndFlat(const char* name, double string_ns,
                          double flat_ns) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "\"%s\": {\"string\": %.1f, \"flat\": %.1f}",
                name, string_ns, flat_ns);
  return buf;
}

/// Merges into BENCH_matching.json: ns/op of the similarity kernels over
/// string-hash bags (the reference matcher's building blocks) and over
/// interned FlatBag merge-joins (the matcher's), the full matching step,
/// FlatBag compilation per Socrata-sized table, and parse + extract of
/// one crawl capture.
int WriteJsonReport(const std::string& path) {
  Rng rng(1);
  constexpr int kTokens = 256;
  BagOfWords string_a = MakeBag(rng, kTokens, kTokens);
  BagOfWords string_b = MakeBag(rng, kTokens, kTokens);
  sim::TokenWeighting weighting = sim::TokenWeighting::InverseObjectFrequency(
      {&string_a, &string_b}, {&string_a, &string_b});
  TokenPool pool;
  FlatBag flat_a = InternBag(string_a, pool);
  FlatBag flat_b = InternBag(string_b, pool);
  sim::DenseTokenWeights weights = IofWeights({&flat_a, &flat_b}, pool.size());
  auto revisions = MatcherBenchRevisions();

  double sum_min_string = MeasureNsPerOp(2000, [&] {
    benchmark::DoNotOptimize(sim::Ruzicka(string_a, string_b));
  });
  double sum_min_flat = MeasureNsPerOp(20000, [&] {
    benchmark::DoNotOptimize(sim::Ruzicka(flat_a, flat_b));
  });
  double weighted_string = MeasureNsPerOp(2000, [&] {
    benchmark::DoNotOptimize(
        sim::WeightedRuzicka(string_a, string_b, weighting));
  });
  double weighted_flat = MeasureNsPerOp(20000, [&] {
    benchmark::DoNotOptimize(sim::WeightedRuzicka(flat_a, flat_b, weights));
  });
  double step = MeasureNsPerOp(50, [&] { RunMatcher(revisions); });
  const std::vector<extract::ObjectInstance> tables = SocrataTables();
  TokenPool table_pool;
  BuildFlatBags(tables, table_pool);
  double build_flat_bag =
      MeasureNsPerOp(200, [&] { BuildFlatBags(tables, table_pool); }) /
      static_cast<double>(tables.size());
  const std::string capture = CrawlCapture();
  double parse_extract_html = MeasureNsPerOp(500, [&] {
    benchmark::DoNotOptimize(extract::ExtractFromHtmlSource(capture));
  });

  const std::string members[] = {
      StringAndFlat("sum_min_ruzicka", sum_min_string, sum_min_flat),
      StringAndFlat("weighted_ruzicka", weighted_string, weighted_flat),
      Member("matching_step", step), Member("build_flat_bag", build_flat_bag),
      Member("parse_extract_html", parse_extract_html)};
  if (!bench::MergeSection(path, "",
                           "\"tokens_per_bag\": " + std::to_string(kTokens))) {
    return 1;
  }
  for (const std::string& member : members) {
    if (!bench::MergeSection(path, "ns_per_op", member)) return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  std::printf("sum_min_ruzicka   string %8.1f ns  flat %8.1f ns\n",
              sum_min_string, sum_min_flat);
  std::printf("weighted_ruzicka  string %8.1f ns  flat %8.1f ns\n",
              weighted_string, weighted_flat);
  std::printf("matching_step     %8.1f ns\n", step);
  std::printf("build_flat_bag    %8.1f ns per Socrata table\n",
              build_flat_bag);
  std::printf("parse_extract_html %7.1f ns per %zu-byte crawl capture\n",
              parse_extract_html, capture.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      std::string path = i + 1 < argc ? argv[i + 1] : "BENCH_matching.json";
      return WriteJsonReport(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
