#include "obs/trace.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_checker.h"

namespace somr::obs {
namespace {

using somr::testutil::JsonChecker;

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TraceRecorder::Global().Disable();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  TraceRecorder::Global().Disable();
  TraceRecorder::Global().Clear();
  ASSERT_FALSE(TracingEnabled());
  { SOMR_TRACE_SCOPE("test/ignored"); }
  EXPECT_TRUE(TraceRecorder::Global().Events().empty());
}

TEST_F(TraceTest, SpanRecordsOneCompleteEvent) {
  TraceRecorder::Global().Enable(64);
  { SOMR_TRACE_SCOPE_CAT("testcat", "test/span"); }
  std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test/span");
  EXPECT_STREQ(events[0].cat, "testcat");
  EXPECT_GE(events[0].dur_ns, 0);
  EXPECT_GE(events[0].start_ns, 0);
}

TEST_F(TraceTest, NestedSpansCloseInnerFirst) {
  TraceRecorder::Global().Enable(64);
  {
    SOMR_TRACE_SCOPE("test/outer");
    { SOMR_TRACE_SCOPE("test/inner"); }
  }
  std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: inner ends before outer.
  EXPECT_STREQ(events[0].name, "test/inner");
  EXPECT_STREQ(events[1].name, "test/outer");
  // The inner span nests inside the outer one.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST_F(TraceTest, RingWrapDropsOldestAndCounts) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record("test/evt", "test", i, 1);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.dropped(), 6u);
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: starts 6, 7, 8, 9.
  EXPECT_EQ(events.front().start_ns, 6);
  EXPECT_EQ(events.back().start_ns, 9);
}

TEST_F(TraceTest, ExportIsWellFormedChromeTraceJson) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(64);
  { SOMR_TRACE_SCOPE_CAT("match", "match/stage1"); }
  { SOMR_TRACE_SCOPE_CAT("pipeline", "pipeline/page"); }
  recorder.Disable();

  std::string json = recorder.ExportChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("match/stage1"), std::string::npos);
  EXPECT_NE(json.find("pipeline/page"), std::string::npos);
}

TEST_F(TraceTest, ExportWithNoEventsIsValidJson) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(16);
  recorder.Disable();
  std::string json = recorder.ExportChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST_F(TraceTest, ConcurrentSpansAllLand) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(1 << 12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        SOMR_TRACE_SCOPE("test/worker");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(recorder.dropped(), 0u);
  // Thread ids are small sequential values, distinct per thread.
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST_F(TraceTest, ExportBesideLiveWritersReturnsWholeEvents) {
  // Writers keep wrapping a small ring while a reader exports it. Every
  // event carries fields derived from its start time and its writer's
  // name, so a slot copied while a writer was overwriting it would mix
  // two events and fail these checks.
  static const char* const kNames[] = {"w0", "w1", "w2", "w3"};
  static const char* const kCats[] = {"c0", "c1", "c2", "c3"};
  constexpr int kWriters = 4;
  constexpr int64_t kEventsPerWriter = 20000;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(64);
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int64_t k = 0; k < kEventsPerWriter; ++k) {
        const int64_t start = w * 1000000 + k;
        recorder.Record(kNames[w], kCats[w], start, 3 * start + 1,
                        static_cast<uint64_t>(start) * 7919 + 1);
      }
      running.fetch_sub(1);
    });
  }
  size_t checked = 0;
  uint32_t tid_of[kWriters] = {0, 0, 0, 0};
  auto check = [&](const TraceEvent& e) {
    int w = 0;
    while (w < kWriters && e.name != kNames[w]) ++w;
    ASSERT_LT(w, kWriters) << "unknown name pointer";
    EXPECT_EQ(e.cat, kCats[w]);
    EXPECT_EQ(e.start_ns / 1000000, w);
    EXPECT_EQ(e.dur_ns, 3 * e.start_ns + 1);
    EXPECT_EQ(e.trace_id, static_cast<uint64_t>(e.start_ns) * 7919 + 1);
    if (tid_of[w] == 0) tid_of[w] = e.tid;
    EXPECT_EQ(e.tid, tid_of[w]) << "writer " << w;
    ++checked;
  };
  while (running.load() > 0) {
    for (const TraceEvent& e : recorder.Events()) check(e);
  }
  for (auto& th : writers) th.join();
  for (const TraceEvent& e : recorder.Events()) check(e);
  EXPECT_EQ(recorder.recorded(), kWriters * kEventsPerWriter);
  EXPECT_GT(checked, 0u);
}

TEST_F(TraceTest, EnableResetsPriorEvents) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(16);
  { SOMR_TRACE_SCOPE("test/old"); }
  recorder.Enable(16);  // re-enable clears
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Request trace ids.

TEST_F(TraceTest, NextTraceIdIsNonzeroAndUnique) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = NextTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST_F(TraceTest, TraceIdHexRoundTrips) {
  EXPECT_EQ(TraceIdHex(0xdeadbeef12345678ULL), "deadbeef12345678");
  EXPECT_EQ(TraceIdHex(1), "0000000000000001");
  EXPECT_EQ(ParseTraceIdHex("deadbeef12345678"), 0xdeadbeef12345678ULL);
  EXPECT_EQ(ParseTraceIdHex("1"), 1u);  // short form accepted
  EXPECT_EQ(ParseTraceIdHex("ABCD"), 0xabcdu);
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = NextTraceId();
    EXPECT_EQ(ParseTraceIdHex(TraceIdHex(id)), id);
  }
  // Malformed inputs parse to 0 (no request context).
  EXPECT_EQ(ParseTraceIdHex(""), 0u);
  EXPECT_EQ(ParseTraceIdHex("xyz"), 0u);
  EXPECT_EQ(ParseTraceIdHex("12g4"), 0u);
  EXPECT_EQ(ParseTraceIdHex("0123456789abcdef0"), 0u);  // 17 digits
}

TEST_F(TraceTest, TraceIdScopeNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    TraceIdScope outer(0x11);
    EXPECT_EQ(CurrentTraceId(), 0x11u);
    {
      TraceIdScope inner(0x22);
      EXPECT_EQ(CurrentTraceId(), 0x22u);
    }
    EXPECT_EQ(CurrentTraceId(), 0x11u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST_F(TraceTest, TraceIdIsThreadLocal) {
  TraceIdScope scope(0x33);
  uint64_t on_other_thread = 1;
  std::thread([&] { on_other_thread = CurrentTraceId(); }).join();
  EXPECT_EQ(on_other_thread, 0u);
  EXPECT_EQ(CurrentTraceId(), 0x33u);
}

TEST_F(TraceTest, SpansCaptureTheActiveTraceId) {
  TraceRecorder::Global().Enable(16);
  { SOMR_TRACE_SCOPE("test/unowned"); }
  {
    TraceIdScope scope(0xabc);
    SOMR_TRACE_SCOPE("test/owned");
  }
  std::vector<TraceEvent> events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0xabcu);
}

TEST_F(TraceTest, ChromeJsonCarriesTraceIdArg) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(16);
  {
    TraceIdScope scope(0xdeadbeef12345678ULL);
    SOMR_TRACE_SCOPE("test/traced");
  }
  { SOMR_TRACE_SCOPE("test/untraced"); }
  recorder.Disable();

  std::string json = recorder.ExportChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"trace_id\": \"deadbeef12345678\""),
            std::string::npos)
      << json;
  // Exactly one event has the arg: the untraced span omits it.
  EXPECT_EQ(json.find("trace_id"), json.rfind("trace_id"));
}

TEST_F(TraceTest, EventsSinceFiltersByStartTime) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(16);
  recorder.Record("test/early", "test", 100, 1);
  recorder.Record("test/late", "test", 500, 1);
  std::vector<TraceEvent> all = recorder.EventsSince(0);
  ASSERT_EQ(all.size(), 2u);
  std::vector<TraceEvent> late = recorder.EventsSince(200);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_STREQ(late[0].name, "test/late");
  EXPECT_TRUE(recorder.EventsSince(501).empty());
}

}  // namespace
}  // namespace somr::obs
