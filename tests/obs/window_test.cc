// The windowed histogram kind of MetricsRegistry: a Histogram that also
// keeps a rolling ring of kWindowSlots sub-windows of kWindowSlotSeconds,
// read back through WindowStatsAt and rendered by RenderWindowJson.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_checker.h"
#include "obs/metrics.h"

namespace somr::obs {
namespace {

using somr::testutil::JsonChecker;

constexpr int64_t kSpan = kWindowSlotSeconds * kWindowSlots;  // 300 s

// Bounds 1, 2, 4, 8 plus overflow, as buckets [0,1] (1,2] (2,4] (4,8]
// (8,inf). Each test registers its own name in the global registry.
Histogram* MakeHistogram(const std::string& name, double slo_threshold = 0.0) {
  return MetricsRegistry::Global().GetWindowedHistogram(
      name, "test", /*first_bound=*/1.0, /*growth=*/2.0, /*bucket_count=*/4,
      slo_threshold);
}

TEST(WindowedHistogramTest, EmptyStatsAreZero) {
  Histogram* h = MakeHistogram("window_test_empty");
  WindowStats s = h->WindowStatsAt(60, /*now_s=*/1000);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p95, 0.0);
  EXPECT_EQ(s.slo_violations, 0u);
}

TEST(WindowedHistogramTest, CountSumAndPercentileBounds) {
  Histogram* h = MakeHistogram("window_test_percentiles");
  // 90 fast observations in (1,2], 10 slow ones in the overflow bucket,
  // which percentiles cap one growth step above the last bound.
  for (int i = 0; i < 90; ++i) h->ObserveAt(1.5, /*now_s=*/1000);
  for (int i = 0; i < 10; ++i) h->ObserveAt(9.0, /*now_s=*/1000);

  WindowStats s = h->WindowStatsAt(60, /*now_s=*/1000);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 90 * 1.5 + 10 * 9.0);
  // Interpolation is bucket-linear, so assert bucket containment rather
  // than exact values.
  EXPECT_GE(s.p50, 1.0);
  EXPECT_LT(s.p50, 2.0);
  EXPECT_GE(s.p95, 8.0);
  EXPECT_LE(s.p95, 16.0);
  EXPECT_GE(s.p99, 8.0);
  EXPECT_LE(s.p99, 16.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
}

TEST(WindowedHistogramTest, WindowSharesTheCumulativeBuckets) {
  Histogram* h = MakeHistogram("window_test_shared_buckets");
  // 2.0 sits on a bound, so both views count it in (1,2]: the window's
  // p50 and p99 stay inside that bucket.
  for (int i = 0; i < 10; ++i) h->ObserveAt(2.0, /*now_s=*/1000);
  WindowStats s = h->WindowStatsAt(60, 1000);
  EXPECT_GT(s.p50, 1.0);
  EXPECT_LE(s.p99, 2.0);

  for (const auto& row : MetricsRegistry::Global().Scrape().histograms) {
    if (row.name != "window_test_shared_buckets") continue;
    ASSERT_EQ(row.counts.size(), 5u);
    EXPECT_EQ(row.counts[1], 10u);
    EXPECT_EQ(row.total_count, 10u);
    return;
  }
  FAIL() << "window_test_shared_buckets not scraped";
}

TEST(WindowedHistogramTest, SloViolationsCountOnlyAboveThreshold) {
  Histogram* h = MakeHistogram("window_test_slo", /*slo_threshold=*/5.0);
  h->ObserveAt(1.0, 1000);
  h->ObserveAt(5.0, 1000);  // exactly at threshold: not a violation
  h->ObserveAt(5.1, 1000);
  h->ObserveAt(100.0, 1000);
  WindowStats s = h->WindowStatsAt(60, 1000);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.slo_violations, 2u);
}

TEST(WindowedHistogramTest, ZeroThresholdDisablesSlo) {
  Histogram* h = MakeHistogram("window_test_no_slo", /*slo_threshold=*/0.0);
  h->ObserveAt(1e9, 1000);
  EXPECT_EQ(h->WindowStatsAt(60, 1000).slo_violations, 0u);
}

TEST(WindowedHistogramTest, HorizonExcludesOlderSubWindows) {
  Histogram* h = MakeHistogram("window_test_horizon");
  h->ObserveAt(1.0, /*now_s=*/1000);  // epoch 200
  h->ObserveAt(1.0, /*now_s=*/1010);  // epoch 202
  // A one-slot horizon read at t=1010 only covers epoch 202.
  EXPECT_EQ(h->WindowStatsAt(kWindowSlotSeconds, 1010).count, 1u);
  // A full-span horizon covers both.
  EXPECT_EQ(h->WindowStatsAt(kSpan, 1010).count, 2u);
}

TEST(WindowedHistogramTest, SamplesAgeOutPastTheRingSpan) {
  Histogram* h = MakeHistogram("window_test_age");
  h->ObserveAt(3.0, /*now_s=*/1000);  // epoch 200
  EXPECT_EQ(h->WindowStatsAt(kSpan, 1000).count, 1u);
  // Epoch 259 is the last one whose span still holds epoch 200...
  EXPECT_EQ(h->WindowStatsAt(kSpan, 1000 + kSpan - 5).count, 1u);
  // ...and a whole ring later the sample is gone although its slot was
  // never overwritten (stale-epoch slots are skipped on read).
  EXPECT_EQ(h->WindowStatsAt(kSpan, 1000 + kSpan).count, 0u);
}

TEST(WindowedHistogramTest, SlotRecyclingDropsTheOldEpoch) {
  Histogram* h = MakeHistogram("window_test_recycle");
  h->ObserveAt(1.0, /*now_s=*/1000);         // epoch 200 -> slot 20
  h->ObserveAt(1.0, /*now_s=*/1000 + kSpan);  // epoch 260 -> slot 20
  WindowStats s = h->WindowStatsAt(kSpan, 1000 + kSpan);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.sum, 1.0);
}

TEST(WindowedHistogramTest, HorizonClampsToTheRingSpan) {
  Histogram* h = MakeHistogram("window_test_clamp");
  h->ObserveAt(2.0, 1000);
  // Asking for an hour is answered over the five minutes the ring holds.
  EXPECT_EQ(h->WindowStatsAt(3600, 1000).count, 1u);
  EXPECT_EQ(h->WindowStatsAt(3600, 1000 + kSpan).count, 0u);
}

TEST(WindowedHistogramTest, SameNameReturnsSameHistogram) {
  Histogram* a = MetricsRegistry::Global().GetWindowedHistogram(
      "window_test_dup", "test", 1e-4, 4.0, 10, 0.5);
  Histogram* b = MetricsRegistry::Global().GetWindowedHistogram(
      "window_test_dup", "ignored", 9.9, 9.9, 3, 0.1);  // shape ignored
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->bounds().size(), 10u);
  // The first registration's threshold holds: 0.3 s is no violation.
  b->ObserveAt(0.3, 1000);
  EXPECT_EQ(b->WindowStatsAt(60, 1000).slo_violations, 0u);
}

TEST(WindowedHistogramTest, PlainHistogramHasNoWindow) {
  Histogram* h = MetricsRegistry::Global().GetHistogram(
      "window_test_plain", "test", 1.0, 2.0, 4);
  h->ObserveAt(1.0, 1000);
  EXPECT_EQ(h->WindowStatsAt(60, 1000).count, 0u);
  EXPECT_EQ(RenderWindowJson(MetricsRegistry::Global().Scrape())
                .find("\"window_test_plain\""),
            std::string::npos);
}

TEST(WindowedHistogramTest, RenderJsonIsWellFormedAndCarriesPercentiles) {
  Histogram* h = MetricsRegistry::Global().GetWindowedHistogram(
      "window_test_render", "test", 1e-4, 4.0, 10, 0.5);
  h->Observe(0.001);
  h->Observe(0.9);  // SLO violation at 0.5s threshold

  std::string json = RenderWindowJson(MetricsRegistry::Global().Scrape());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  const size_t at = json.find("\"window_test_render\"");
  ASSERT_NE(at, std::string::npos) << json;
  const std::string entry = json.substr(at, json.find("}}", at) - at);
  EXPECT_NE(entry.find("\"1m\": {\"count\": 2,"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"5m\": {\"count\": 2,"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"p95\""), std::string::npos);
  EXPECT_NE(entry.find("\"slo_violations\": 1"), std::string::npos) << entry;
}

// Writers observe a windowed histogram while a reader scrapes and renders
// the window view; run under tsan, this checks the ring's locking.
TEST(WindowedHistogramTest, ConcurrentObserveAndRender) {
  Histogram* h = MetricsRegistry::Global().GetWindowedHistogram(
      "window_test_concurrent", "test", 1e-4, 4.0, 10, 0.5);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> writing{true};
  std::thread reader([&] {
    while (writing.load()) {
      std::string json = RenderWindowJson(MetricsRegistry::Global().Scrape());
      EXPECT_TRUE(JsonChecker(json).Valid());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) h->Observe(1e-3 * (t + 1));
    });
  }
  for (std::thread& w : writers) w.join();
  writing.store(false);
  reader.join();
  // The 5m horizon holds every sample even if the run straddled a
  // sub-window boundary.
  for (const auto& row : MetricsRegistry::Global().Scrape().histograms) {
    if (row.name != "window_test_concurrent") continue;
    ASSERT_EQ(row.windows.size(), 2u);
    EXPECT_EQ(row.windows[1].count,
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(row.windows[1].slo_violations, 0u);
    EXPECT_EQ(row.total_count, row.windows[1].count);
    return;
  }
  FAIL() << "window_test_concurrent not scraped";
}

}  // namespace
}  // namespace somr::obs
