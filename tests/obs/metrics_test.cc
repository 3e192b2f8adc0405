#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace somr::obs {
namespace {

// All tests share the process-global registry, so each uses uniquely
// named metrics and resets values up front.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::Global().ResetValuesForTest(); }
};

TEST_F(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_counter_basic",
                                                    "test counter");
  EXPECT_EQ(c->Value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST_F(MetricsTest, RegistrationIsIdempotent) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test_counter_idem", "first help wins");
  Counter* b = reg.GetCounter("test_counter_idem", "ignored");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test_gauge", "test");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->Value(), -2.25);
}

TEST_F(MetricsTest, HistogramBucketBoundaries) {
  // Bounds: 1, 2, 4, 8 (+Inf overflow). Upper bounds are inclusive,
  // matching the Prometheus `le` convention.
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test_hist_bounds", "test", 1.0, 2.0, 4);
  ASSERT_EQ(h->bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(h->bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h->bounds()[3], 8.0);

  EXPECT_EQ(h->BucketFor(0.0), 0u);
  EXPECT_EQ(h->BucketFor(1.0), 0u);  // on-boundary goes to the lower bucket
  EXPECT_EQ(h->BucketFor(1.0001), 1u);
  EXPECT_EQ(h->BucketFor(2.0), 1u);
  EXPECT_EQ(h->BucketFor(4.0), 2u);
  EXPECT_EQ(h->BucketFor(8.0), 3u);
  EXPECT_EQ(h->BucketFor(8.0001), 4u);  // overflow bucket
  EXPECT_EQ(h->BucketFor(1e300), 4u);
}

TEST_F(MetricsTest, HistogramObserveCountsAndSums) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test_hist_observe", "test", 1.0, 2.0, 3);  // bounds 1, 2, 4
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(3.0);
  h->Observe(100.0);  // overflow

  MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const MetricsSnapshot::HistogramRow* row = nullptr;
  for (const auto& r : snap.histograms) {
    if (r.name == "test_hist_observe") row = &r;
  }
  ASSERT_NE(row, nullptr);
  ASSERT_EQ(row->counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(row->counts[0], 1u);
  EXPECT_EQ(row->counts[1], 1u);
  EXPECT_EQ(row->counts[2], 1u);
  EXPECT_EQ(row->counts[3], 1u);
  EXPECT_EQ(row->total_count, 4u);
  EXPECT_DOUBLE_EQ(row->sum, 105.0);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsLoseNothing) {
  Counter* c = MetricsRegistry::Global().GetCounter("test_counter_mt",
                                                    "test");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& th : threads) th.join();
  // Exited threads retire their shards into the registry totals, so the
  // merged value must be exact.
  EXPECT_EQ(c->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, ConcurrentHistogramObservations) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test_hist_mt", "test", 1.0, 10.0, 2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(0.5);
    });
  }
  for (auto& th : threads) th.join();

  MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  for (const auto& r : snap.histograms) {
    if (r.name != "test_hist_mt") continue;
    EXPECT_EQ(r.total_count,
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(r.sum, 0.5 * kThreads * kPerThread);
    return;
  }
  FAIL() << "test_hist_mt not scraped";
}

TEST_F(MetricsTest, ScrapeIsSortedByName) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test_sort_b", "b");
  reg.GetCounter("test_sort_a", "a");
  MetricsSnapshot snap = reg.Scrape();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST_F(MetricsTest, TextRenderingIsPrometheusShaped) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test_render_total", "a rendered counter")->Increment(3);
  Histogram* h = reg.GetHistogram("test_render_seconds", "hist", 1.0, 2.0, 2);
  h->Observe(0.5);

  std::string text = RenderMetricsText(reg.Scrape());
  EXPECT_NE(text.find("# HELP test_render_total a rendered counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_render_total 3"), std::string::npos);
  EXPECT_NE(text.find("test_render_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_render_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_render_seconds_count 1"), std::string::npos);
}

TEST_F(MetricsTest, TextRenderingNamesTheFamilyOfALabeledSeries) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetGauge("test_labeled_info{version=\"x\",kind=\"y\"}", "labeled")
      ->Set(1.0);
  std::string text = RenderMetricsText(reg.Scrape());
  // # HELP and # TYPE carry the bare family name; the sample keeps its
  // labels.
  EXPECT_NE(text.find("# HELP test_labeled_info labeled\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE test_labeled_info gauge\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\ntest_labeled_info{version=\"x\",kind=\"y\"} 1\n"),
            std::string::npos)
      << text;
  // No comment line of the whole exposition names a labeled series.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_EQ(name.find('{'), std::string::npos) << line;
  }
}

TEST_F(MetricsTest, JsonRenderingContainsSections) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test_json_total", "c")->Increment();
  std::string json = RenderMetricsJson(reg.Scrape());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // renderer ends "}\n"
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test_json_total\": 1"), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsDefinitions) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("test_reset_total", "c");
  c->Increment(5);
  reg.ResetValuesForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(reg.GetCounter("test_reset_total", "c"), c);
}

/// The text scrape of every metric whose lines do not contain `skip`.
std::string RenderAllBut(const std::string& skip) {
  std::istringstream lines(
      RenderMetricsText(MetricsRegistry::Global().Scrape()));
  std::string out;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(skip) == std::string::npos) out += line + "\n";
  }
  return out;
}

/// Run in a forked child, so the exhausted budget stays out of the other
/// tests: fills every u64 cell with counters, or every f64 cell with
/// histograms, each holding a value, then registers and observes one
/// more histogram. It must read 0 and leave every earlier metric as it
/// was; the exit code and stderr say whether both held.
void ObserveHistogramPastTheBudget(bool fill_f64_cells) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const size_t cells =
      fill_f64_cells ? internal::kMaxF64Cells : internal::kMaxU64Cells;
  for (size_t i = 0; i < cells; ++i) {
    const std::string name = "budget_filler_" + std::to_string(i);
    if (fill_f64_cells) {
      registry.GetHistogram(name, "", 1.0, 2.0, 1)->Observe(0.5);
    } else {
      registry.GetCounter(name, "")->Increment(i + 1);
    }
  }
  const std::string before = RenderAllBut("budget_late");
  Histogram* late = registry.GetHistogram("budget_late", "", 1.0, 2.0, 8);
  for (double v : {0.5, 3.0, 100.0, 1e9}) late->Observe(v);
  bool late_reads_zero = false;
  for (const MetricsSnapshot::HistogramRow& row :
       registry.Scrape().histograms) {
    if (row.name == "budget_late") {
      late_reads_zero = row.total_count == 0 && row.sum == 0.0;
    }
  }
  const bool intact = RenderAllBut("budget_late") == before;
  std::fprintf(stderr, "late reads zero: %d, earlier metrics intact: %d\n",
               late_reads_zero, intact);
  std::exit(late_reads_zero && intact ? 0 : 1);
}

TEST(MetricsBudgetDeathTest, HistogramPastTheU64BudgetCountsNothing) {
  EXPECT_EXIT(ObserveHistogramPastTheBudget(/*fill_f64_cells=*/false),
              ::testing::ExitedWithCode(0),
              "late reads zero: 1, earlier metrics intact: 1");
}

TEST(MetricsBudgetDeathTest, HistogramPastTheF64BudgetCountsNothing) {
  EXPECT_EXIT(ObserveHistogramPastTheBudget(/*fill_f64_cells=*/true),
              ::testing::ExitedWithCode(0),
              "late reads zero: 1, earlier metrics intact: 1");
}

}  // namespace
}  // namespace somr::obs
