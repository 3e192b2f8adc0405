// Tests of the benchmark's own code: the percentile rule, the seeded
// generators, span analysis and the scrape parsers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen.h"
#include "obs/trace.h"
#include "sys.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, SamplesBeyondCountsRanksAboveTheQuantile) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(10, 0.5), 5u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileRule, PicksHighestPercentileWithTenBeyond) {
  EXPECT_DOUBLE_EQ(TailQuantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(999), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(200), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(99), 0.75);
  EXPECT_DOUBLE_EQ(TailQuantile(20), 0.5);
  // Too few samples for any tail: the median, never something higher.
  EXPECT_DOUBLE_EQ(TailQuantile(5), 0.5);
}

TEST(PercentileRule, SamplesForTailLeavesTenBeyond) {
  EXPECT_EQ(SamplesForTail(0.99), 1000u);
  EXPECT_EQ(SamplesForTail(0.9), 100u);
  EXPECT_EQ(SamplesForTail(0.5), 20u);
}

TEST(PercentileRule, TailPublishedOnlyWithTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  Report too_few;
  SetPercentile(too_few, "req_p99_ms", samples, 0.99, 1.0, "ms");
  EXPECT_FALSE(too_few.correct);
  EXPECT_TRUE(too_few.metrics.empty());

  samples.push_back(1000);
  Report enough;
  SetLatency(enough, "req", samples, 0.99);
  ASSERT_TRUE(enough.correct);
  ASSERT_EQ(enough.metrics.size(), 2u);
  EXPECT_EQ(enough.metrics[0].name, "req_p50_ms");
  EXPECT_DOUBLE_EQ(enough.metrics[0].value, 500.5);
  EXPECT_EQ(enough.metrics[1].name, "req_p99_ms");
  EXPECT_NEAR(enough.metrics[1].value, 990.01, 1e-9);
  const std::pair<std::string, std::string> count("req_samples", "1000");
  EXPECT_NE(std::find(enough.info.begin(), enough.info.end(), count),
            enough.info.end());
}

TEST(Prometheus, ParsesSamplesByNameAndLabels) {
  const auto scrape = ParsePrometheus(
      "# TYPE x histogram\n"
      "x_bucket{le=\"0.001\"} 2\nx_sum 0.1\ny_total 9\n");
  EXPECT_DOUBLE_EQ(Sample(scrape, "x_bucket{le=\"0.001\"}"), 2.0);
  EXPECT_DOUBLE_EQ(Sample(scrape, "x_sum"), 0.1);
  EXPECT_DOUBLE_EQ(Sample(scrape, "y_total"), 9.0);
  EXPECT_DOUBLE_EQ(Sample(scrape, "absent"), 0.0);
}

std::vector<CrawlRequest> Take(RequestStream stream, int n) {
  std::vector<CrawlRequest> out;
  for (int i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

class CrawlGenerators : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crawls_ = new std::vector<somr::archive::SampledHistory>(MakeCrawls(7));
  }
  static void TearDownTestSuite() { delete crawls_; }
  static std::vector<somr::archive::SampledHistory>* crawls_;
};
std::vector<somr::archive::SampledHistory>* CrawlGenerators::crawls_ = nullptr;

bool SameRequests(const std::vector<CrawlRequest>& a,
                  const std::vector<CrawlRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].context != b[i].context || a[i].page != b[i].page ||
        a[i].capture != b[i].capture) {
      return false;
    }
  }
  return true;
}

TEST_F(CrawlGenerators, SameSeedSameRequestSequence) {
  const auto a = Take(RequestStream(*crawls_, 7, 0, 2, 64, 1.0), 2000);
  const auto b = Take(RequestStream(*crawls_, 7, 0, 2, 64, 1.0), 2000);
  EXPECT_TRUE(SameRequests(a, b));
  const auto other = Take(RequestStream(*crawls_, 8, 0, 2, 64, 1.0), 2000);
  EXPECT_FALSE(SameRequests(a, other));
}

TEST_F(CrawlGenerators, ConnectionsOwnDisjointContextsInOrder) {
  std::set<std::string> seen[2];
  for (unsigned c = 0; c < 2; ++c) {
    std::map<std::string, uint32_t> next;
    for (const CrawlRequest& r : Take(RequestStream(*crawls_, 3, c, 2, 64, 1.0), 3000)) {
      EXPECT_EQ(r.rank % 2, c);
      // Captures of one context arrive in order, without gaps.
      EXPECT_EQ(r.capture, next[r.context]++);
      seen[c].insert(r.context);
    }
  }
  for (const std::string& id : seen[0]) EXPECT_EQ(seen[1].count(id), 0u);
}

TEST_F(CrawlGenerators, SameSeedSameGraphDigest) {
  const auto again = MakeCrawls(7);
  ASSERT_EQ(again.size(), crawls_->size());
  somr::core::Pipeline pipeline;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Fnv1a(GraphText(pipeline.ProcessPage((*crawls_)[i].page))),
              Fnv1a(GraphText(pipeline.ProcessPage(again[i].page))));
  }
  // The request body carries the capture under the context's title.
  CrawlRequest request{"ctx0001-g0", 1, 0, 0};
  const std::string body = RequestBody(*crawls_, request);
  EXPECT_NE(body.find("<title>ctx0001-g0</title>"), std::string::npos);
}

TEST(WikiGenerator, SameSeedSameDump) {
  const WikiCorpus a = MakeWikiCorpus(5);
  const WikiCorpus b = MakeWikiCorpus(5);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (size_t f = 0; f < a.files.size(); ++f) {
    EXPECT_EQ(Fnv1a(a.files[f]), Fnv1a(b.files[f]));
  }
  EXPECT_EQ(a.corpus.pages.size(), a.files.size() * a.pages_per_file);
  EXPECT_GT(a.revisions, 0u);
  EXPECT_NE(Fnv1a(a.files[0]), Fnv1a(MakeWikiCorpus(6).files[0]));
}

TEST(LakeGenerator, SameSeedSameSnapshots) {
  const auto a = MakeLake(5);
  const auto b = MakeLake(5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].snapshots.size(), b[c].snapshots.size());
    for (size_t s = 0; s < a[c].snapshots.size(); ++s) {
      EXPECT_EQ(a[c].snapshots[s], b[c].snapshots[s]);
    }
  }
}

SpanRow Row(const char* name, uint32_t tid, int64_t start, int64_t end) {
  SpanRow row;
  row.name = name;
  row.tid = tid;
  row.start_ns = start;
  row.end_ns = end;
  return row;
}

TEST(Spans, ParentsSelfTimeAndCoverage) {
  std::vector<SpanRow> spans = {
      Row("child", 1, 10, 40), Row("root", 1, 0, 100), Row("child", 1, 50, 60),
      Row("grandchild", 1, 20, 30), Row("root", 2, 0, 50)};
  LinkParents(spans);
  const auto layers = AggregateByName(spans);
  EXPECT_NEAR(layers.at("root").total_s, 150e-9, 1e-15);
  EXPECT_NEAR(layers.at("root").self_s, 110e-9, 1e-15);  // 100-40 + 50
  EXPECT_NEAR(layers.at("child").self_s, 30e-9, 1e-15);  // 30-10 + 10
  EXPECT_EQ(layers.at("child").count, 2u);
  EXPECT_NEAR(CoveredSeconds(spans, [](const std::string& n) {
                return n == "child" || n == "grandchild";
              }),
              40e-9, 1e-15);
}

TEST(Spans, ChromeTraceRoundTrip) {
  std::vector<somr::obs::TraceEvent> events(2);
  events[0] = {"match/table", "match", 3, 1000, 500, 0};
  events[1] = {"parse/html", "extract", 3, 2000, 250, 0xabcdef};
  const std::vector<SpanRow> rows =
      ParseChromeTrace(somr::obs::ChromeTraceJson(events));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "match/table");
  EXPECT_EQ(rows[0].start_ns, 1000);
  EXPECT_EQ(rows[0].end_ns, 1500);
  EXPECT_EQ(rows[1].tid, 3u);
  EXPECT_EQ(rows[1].trace_id, 0xabcdefu);
}

}  // namespace
}  // namespace perfbench
