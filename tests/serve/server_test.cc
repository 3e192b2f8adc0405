#include "serve/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../obs/json_checker.h"
#include "core/pipeline.h"
#include "matching/graph_io.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "serve/http.h"
#include "state/context_store.h"
#include "state/incremental_pipeline.h"
#include "wikigen/corpus.h"
#include "xmldump/dump.h"

namespace somr::serve {
namespace {

using somr::testutil::JsonChecker;

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

// Small but non-trivial corpus: several pages, enough revisions that
// splitting each history in half is meaningful.
xmldump::Dump TestDump() {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3};
  config.pages_per_stratum = 3;
  config.min_revisions = 10;
  config.max_revisions = 16;
  config.seed = 11;
  return wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
}

std::string PageXml(const xmldump::PageHistory& page) {
  xmldump::Dump one;
  one.pages.push_back(page);
  return xmldump::WriteDump(one);
}

// The server's /graph body for comparison against batch results.
std::string BatchGraphs(const core::PageResult& result) {
  std::string out;
  for (extract::ObjectType type : kAllTypes) {
    out += matching::SerializeIdentityGraph(result.GraphFor(type));
  }
  return out;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/somr-serve-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    StopServer();
    std::string cmd = "rm -rf '" + dir_ + "'";
    std::system(cmd.c_str());
  }

  // Opens (or reopens) the fixture-owned store. The fixture owns it so
  // it outlives the server: shard threads checkpoint into the store
  // during shutdown, which happens in TearDown — after any stack local
  // in the test body would already be gone.
  void OpenStore(bool create) {
    StopServer();  // never leave a server pointing at a dying store
    store_ = std::make_unique<state::ContextStore>(dir_);
    ASSERT_TRUE(store_->Open(create).ok());
  }

  // Starts a server over the fixture store and a client connected to it.
  void StartServer(size_t cache_capacity) {
    ServeOptions options;
    options.shards = 2;
    options.cache_capacity = cache_capacity;
    options.connection_workers = 2;
    options.socket_timeout_millis = 50;
    server_ = std::make_unique<Server>(store_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
    ASSERT_TRUE(client_.Connect(server_->port()).ok());
  }

  void StopServer() {
    client_.Close();
    if (server_ != nullptr) server_->Stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    if (server_ != nullptr) {
      EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
    }
    server_.reset();
  }

  ClientResponse Post(const std::string& target, const std::string& body,
                      bool chunked = false) {
    StatusOr<ClientResponse> response =
        client_.Request("POST", target, body, chunked);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : ClientResponse{};
  }

  ClientResponse Get(const std::string& target) {
    StatusOr<ClientResponse> response = client_.Request("GET", target);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : ClientResponse{};
  }

  std::string dir_;
  std::unique_ptr<state::ContextStore> store_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  Status serve_status_;
  HttpClient client_;
};

TEST_F(ServerTest, HealthzAndMetricsAnswer) {
  OpenStore(/*create=*/true);
  StartServer(8);

  ClientResponse health = Get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_TRUE(JsonChecker(health.body).Valid()) << health.body;
  EXPECT_NE(health.body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"version\""), std::string::npos);
  EXPECT_NE(health.body.find("\"uptime_seconds\""), std::string::npos);
  // Every response is stamped with the request's trace id: 16 hex digits.
  const std::string& trace_id = health.Header("x-somr-trace-id");
  ASSERT_EQ(trace_id.size(), 16u);
  EXPECT_NE(obs::ParseTraceIdHex(trace_id), 0u);

  ClientResponse metrics = Get("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("somr_serve_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.body.find("somr_build_info"), std::string::npos);
  EXPECT_NE(metrics.body.find("somr_uptime_seconds"), std::string::npos);
  EXPECT_NE(metrics.body.find("somr_serve_slo_violations_total"),
            std::string::npos);
}

TEST_F(ServerTest, DebugEndpointsAnswerWellFormedJson) {
  OpenStore(/*create=*/true);
  StartServer(8);

  ClientResponse vars = Get("/debug/vars");
  EXPECT_EQ(vars.status, 200);
  EXPECT_TRUE(JsonChecker(vars.body).Valid()) << vars.body;
  EXPECT_NE(vars.body.find("\"config_fingerprint\""), std::string::npos);
  EXPECT_NE(vars.body.find("\"shards\": [") , std::string::npos);
  EXPECT_NE(vars.body.find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(vars.body.find("\"trace_recorded\""), std::string::npos);

  ClientResponse requests = Get("/debug/requests");
  EXPECT_EQ(requests.status, 200);
  EXPECT_TRUE(JsonChecker(requests.body).Valid()) << requests.body;
  EXPECT_NE(requests.body.find("\"in_flight\""), std::string::npos);
  EXPECT_NE(requests.body.find("\"recent\""), std::string::npos);
  // The /debug/vars request just finished: it is in the recent ring.
  EXPECT_NE(requests.body.find("\"target\": \"/debug/vars\""),
            std::string::npos)
      << requests.body;

  ClientResponse window = Get("/metrics/window");
  EXPECT_EQ(window.status, 200);
  EXPECT_TRUE(JsonChecker(window.body).Valid()) << window.body;
  EXPECT_NE(window.body.find("\"windows\""), std::string::npos);
  EXPECT_NE(window.body.find("\"p95\""), std::string::npos);

  EXPECT_EQ(Post("/debug/vars", "").status, 405);
  EXPECT_EQ(Get("/debug/nope").status, 404);
}

TEST_F(ServerTest, DebugTraceCapturesLiveSpansAsChromeJson) {
  OpenStore(/*create=*/true);
  StartServer(8);

  // Generate traffic on a second connection while /debug/trace's capture
  // window is open, so freshly started spans land inside it.
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    HttpClient side;
    if (!side.Connect(server_->port()).ok()) return;
    while (!stop.load()) {
      if (!side.Request("GET", "/healthz").ok()) break;
    }
  });
  StatusOr<ClientResponse> trace =
      client_.Request("GET", "/debug/trace?ms=200");
  stop.store(true);
  traffic.join();

  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->status, 200);
  EXPECT_TRUE(JsonChecker(trace->body).Valid()) << trace->body;
  EXPECT_NE(trace->body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace->body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(trace->body.find("serve/request"), std::string::npos)
      << trace->body;
  // Served spans carry their request's trace id into the export.
  EXPECT_NE(trace->body.find("\"trace_id\": \""), std::string::npos)
      << trace->body;

  EXPECT_EQ(Get("/debug/trace?ms=abc").status, 400);
  EXPECT_EQ(Get("/debug/trace?ms=9999999").status, 400);
}

TEST_F(ServerTest, UnknownRoutesAndMethodsAreCleanErrors) {
  OpenStore(/*create=*/true);
  StartServer(8);

  EXPECT_EQ(Get("/nope").status, 404);
  EXPECT_EQ(Post("/healthz", "").status, 405);
  EXPECT_EQ(Get("/context/missing/graph").status, 404);
  EXPECT_EQ(Get("/context/missing/history/table:0").status, 404);
  EXPECT_EQ(Get("/context/missing/history/table").status, 400);
  EXPECT_EQ(Get("/context/missing/history/widget:0").status, 400);
  // All digits but past int64: must answer 400, not throw out of stoll
  // and take the daemon down.
  EXPECT_EQ(
      Get("/context/missing/history/table:99999999999999999999999").status,
      400);
  ClientResponse bad = Post("/context/x/revision", "not xml at all");
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("error"), std::string::npos);
}

TEST_F(ServerTest, MalformedHttpGets400NotAbort) {
  OpenStore(/*create=*/true);
  StartServer(8);

  // Raw malformed requests over a bare socket; the server must answer
  // 400 (not crash, not hang) and keep serving healthy connections.
  for (const char* wire :
       {"GARBAGE\r\n\r\n",
        "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"}) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_GT(::send(fd, wire, std::strlen(wire), MSG_NOSIGNAL), 0);
    char buf[512];
    ssize_t n = ::recv(fd, buf, sizeof(buf) - 1, 0);
    ASSERT_GT(n, 0) << "no response for: " << wire;
    buf[n] = '\0';
    EXPECT_NE(std::string(buf).find("400 Bad Request"), std::string::npos)
        << "request: " << wire << " response: " << buf;
    ::close(fd);
  }

  // The healthy client still works afterwards.
  EXPECT_EQ(Get("/healthz").status, 200);
}

// The tentpole acceptance gate: ingestion through the HTTP daemon —
// including forced LRU evictions mid-context (cache_capacity=1 with 3+
// pages interleaved), an /admin/checkpoint, and a full server restart —
// must produce identity graphs byte-identical to the batch pipeline.
TEST_F(ServerTest, ServeIngestMatchesBatchByteForByte) {
  xmldump::Dump dump = TestDump();
  ASSERT_GE(dump.pages.size(), 3u);

  // Batch reference.
  core::Pipeline pipeline;
  StatusOr<std::vector<core::PageResult>> batch =
      pipeline.ProcessDumpXml(xmldump::WriteDump(dump));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  OpenStore(/*create=*/true);
  // capacity 1 per shard: every interleaved POST below evicts the
  // previous context, spilling and faulting constantly.
  StartServer(1);

  // Phase 1: first half of every page, interleaved.
  for (const xmldump::PageHistory& page : dump.pages) {
    xmldump::PageHistory half = page;
    half.revisions.resize(half.revisions.size() / 2);
    ClientResponse response =
        Post("/context/" + PercentEncode(page.title) + "/revision",
             PageXml(half), /*chunked=*/true);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_NE(response.body.find("\"page_skipped\": false"),
              std::string::npos);
    EXPECT_NE(response.body.find("\"decisions\": ["), std::string::npos);
  }
  EXPECT_EQ(Post("/admin/checkpoint", "").status, 200);

  // Restart: the second phase must resume from checkpoints alone.
  OpenStore(/*create=*/false);
  StartServer(1);

  // Phase 2: full histories restated; the server skips the seen half.
  for (const xmldump::PageHistory& page : dump.pages) {
    ClientResponse response = Post(
        "/context/" + PercentEncode(page.title) + "/revision", PageXml(page));
    ASSERT_EQ(response.status, 200) << response.body;
    // The first-half revisions were ingested before the restart; the
    // restated history must surface them as skipped (nonzero count).
    EXPECT_EQ(response.body.find("\"skipped_revisions\": 0,"),
              std::string::npos)
        << "expected skips to be surfaced: " << response.body;
  }

  // Restating a page yet again skips everything: surfaced per response.
  ClientResponse skipped = Post(
      "/context/" + PercentEncode(dump.pages[0].title) + "/revision",
      PageXml(dump.pages[0]));
  ASSERT_EQ(skipped.status, 200);
  EXPECT_NE(skipped.body.find("\"page_skipped\": true"), std::string::npos);
  EXPECT_NE(skipped.body.find("\"new_revisions\": 0"), std::string::npos);

  // The gate: per-page graphs over HTTP == batch graphs, byte for byte.
  for (size_t i = 0; i < dump.pages.size(); ++i) {
    ClientResponse graph =
        Get("/context/" + PercentEncode(dump.pages[i].title) + "/graph");
    ASSERT_EQ(graph.status, 200);
    EXPECT_EQ(graph.body, BatchGraphs((*batch)[i]))
        << "graph mismatch for page " << dump.pages[i].title;
  }

  // History and provenance answer for a context that went through
  // eviction, faulting and restart.
  ClientResponse history =
      Get("/context/" + PercentEncode(dump.pages[0].title) +
          "/history/table:0");
  ASSERT_EQ(history.status, 200);
  EXPECT_NE(history.body.find("\"versions\": ["), std::string::npos);

  ClientResponse provenance =
      Get("/context/" + PercentEncode(dump.pages[0].title) +
          "/provenance?limit=5");
  ASSERT_EQ(provenance.status, 200);
}

// Batch, ingest and serve share one per-page step, whose skip watermark
// is read once per call: a 14-revision page whose ids run from 1000 down
// to 987 applies all 14 revisions in every mode, with the same graphs.
TEST_F(ServerTest, DescendingRevisionIdsApplyEveryRevisionInEveryMode) {
  wikigen::CorpusConfig config;
  config.focal_type = extract::ObjectType::kTable;
  config.strata_caps = {3};
  config.pages_per_stratum = 1;
  config.min_revisions = 14;
  config.max_revisions = 14;
  config.seed = 23;
  xmldump::Dump dump =
      wikigen::CorpusToDump(wikigen::GenerateGoldCorpus(config));
  xmldump::PageHistory page = dump.pages.at(0);
  ASSERT_EQ(page.revisions.size(), 14u);
  for (size_t r = 0; r < page.revisions.size(); ++r) {
    page.revisions[r].id = 1000 - static_cast<int64_t>(r);
  }

  const core::PageResult batch = core::Pipeline().ProcessPage(page);
  ASSERT_EQ(batch.revisions.size(), 14u);

  OpenStore(/*create=*/true);
  state::IncrementalPipeline ingest(store_.get());
  StatusOr<core::IngestReport> ingested = ingest.IngestPage(page);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(ingested->new_revisions, 14u);
  EXPECT_EQ(ingested->skipped_revisions, 0u);
  StatusOr<core::PageResult> stored = ingest.ResultFor(page.title);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(BatchGraphs(*stored), BatchGraphs(batch));

  xmldump::PageHistory served = page;
  served.title = "served";
  StartServer(4);
  ClientResponse response =
      Post("/context/served/revision", PageXml(served));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"new_revisions\": 14,"), std::string::npos)
      << response.body;
  ClientResponse graph = Get("/context/served/graph");
  ASSERT_EQ(graph.status, 200);
  EXPECT_EQ(graph.body, BatchGraphs(batch));
}

// Sends one raw HTTP/1.1 request (the HttpClient has no custom-header
// support) and returns the full response text; `Connection: close` in
// the request bounds the read at EOF.
std::string RawRoundTrip(uint16_t port, const std::string& wire) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// The tracing acceptance gate: a caller-supplied x-somr-trace-id must be
// adopted for the whole request — echoed in the response header, stamped
// on every match decision (response body and provenance ring), and
// carried by the spans recorded on the connection, shard, and pipeline
// layers.
TEST_F(ServerTest, CallerTraceIdReachesSpansDecisionsAndProvenance) {
  xmldump::Dump dump = TestDump();
  OpenStore(/*create=*/true);
  StartServer(8);

  const std::string kHex = "deadbeef12345678";
  const std::string body = PageXml(dump.pages[0]);
  const std::string target =
      "/context/" + PercentEncode(dump.pages[0].title) + "/revision";
  std::string wire = "POST " + target +
                     " HTTP/1.1\r\n"
                     "Host: test\r\n"
                     "x-somr-trace-id: " +
                     kHex +
                     "\r\n"
                     "Content-Length: " +
                     std::to_string(body.size()) +
                     "\r\n"
                     "Connection: close\r\n\r\n" +
                     body;
  std::string response = RawRoundTrip(server_->port(), wire);
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  // Echoed back on the wire.
  EXPECT_NE(response.find("x-somr-trace-id: " + kHex), std::string::npos);
  // Stamped on every decision in the ingest response body.
  EXPECT_NE(response.find("\"trace_id\": \"" + kHex + "\""),
            std::string::npos);

  // The provenance ring remembers the id.
  ClientResponse provenance =
      Get("/context/" + PercentEncode(dump.pages[0].title) +
          "/provenance?limit=5");
  ASSERT_EQ(provenance.status, 200);
  EXPECT_NE(provenance.body.find("\"trace_id\": \"" + kHex + "\""),
            std::string::npos)
      << provenance.body;

  // The spans recorded while serving the request carry the id across
  // every layer: connection handling, the shard hop, and the state
  // pipeline that ran the matcher.
  const uint64_t id = obs::ParseTraceIdHex(kHex);
  std::vector<std::string> spans;
  for (const obs::TraceEvent& event :
       obs::TraceRecorder::Global().Events()) {
    if (event.trace_id == id) spans.emplace_back(event.name);
  }
  for (const char* expected :
       {"serve/request", "serve/shard_job", "state/apply_page"}) {
    EXPECT_NE(std::find(spans.begin(), spans.end(), expected), spans.end())
        << "no span named " << expected << " carries the caller trace id";
  }
}

TEST_F(ServerTest, MetricsWindowReportsIngestLatency) {
  xmldump::Dump dump = TestDump();
  OpenStore(/*create=*/true);
  StartServer(8);
  ASSERT_EQ(Post("/context/" + PercentEncode(dump.pages[0].title) +
                     "/revision",
                 PageXml(dump.pages[0]))
                .status,
            200);

  ClientResponse window = Get("/metrics/window");
  ASSERT_EQ(window.status, 200);
  EXPECT_TRUE(JsonChecker(window.body).Valid()) << window.body;
  // The ingest endpoint has a rolling-window entry with percentiles,
  // and both horizons saw at least the POST above.
  const size_t at =
      window.body.find("\"somr_serve_request_seconds_revision\"");
  ASSERT_NE(at, std::string::npos) << window.body;
  const size_t end = window.body.find("}}", at);
  ASSERT_NE(end, std::string::npos);
  const std::string entry = window.body.substr(at, end - at);
  EXPECT_NE(entry.find("\"1m\""), std::string::npos);
  EXPECT_NE(entry.find("\"5m\""), std::string::npos);
  EXPECT_NE(entry.find("\"p95\": "), std::string::npos);
  EXPECT_EQ(entry.find("\"count\": 0,"), std::string::npos) << entry;
}

TEST_F(ServerTest, DrainCheckpointsEveryDirtyContext) {
  xmldump::Dump dump = TestDump();
  OpenStore(/*create=*/true);
  // Capacity high enough that nothing spills by pressure: only the
  // drain checkpoint can have persisted the contexts.
  StartServer(64);
  for (const xmldump::PageHistory& page : dump.pages) {
    ASSERT_EQ(Post("/context/" + PercentEncode(page.title) + "/revision",
                   PageXml(page))
                  .status,
              200);
  }
  ClientResponse drain = Post("/admin/drain", "");
  EXPECT_EQ(drain.status, 200);
  if (serve_thread_.joinable()) serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  server_.reset();
  client_.Close();

  OpenStore(/*create=*/false);
  for (const xmldump::PageHistory& page : dump.pages) {
    auto info = store_->Lookup(page.title);
    ASSERT_TRUE(info.has_value()) << page.title;
    EXPECT_EQ(info->revisions_ingested, page.revisions.size());
  }
}

// Drain must shut the server down however the target is spelled, as
// long as it routes: a query string (or an extra slash, or a percent-
// escaped byte) must not leave the server stuck permanently draining.
TEST_F(ServerTest, DrainWithQueryStringStillStopsServer) {
  OpenStore(/*create=*/true);
  StartServer(8);
  ClientResponse drain = Post("/admin/drain?source=test", "");
  EXPECT_EQ(drain.status, 200);
  EXPECT_NE(drain.body.find("\"draining\": true"), std::string::npos);
  // Pre-fix this join hung: the raw-target comparison missed the query
  // string, so Stop() was never called.
  if (serve_thread_.joinable()) serve_thread_.join();
  EXPECT_TRUE(serve_status_.ok()) << serve_status_.ToString();
  server_.reset();
  client_.Close();
}

TEST_F(ServerTest, IngestRejectsMismatchedTitleAndMultiPageBodies) {
  OpenStore(/*create=*/true);
  StartServer(8);

  xmldump::Dump dump = TestDump();
  // Title mismatch between URL and body.
  ClientResponse mismatch =
      Post("/context/SomethingElse/revision", PageXml(dump.pages[0]));
  EXPECT_EQ(mismatch.status, 400);
  // Two pages in one body.
  xmldump::Dump two;
  two.pages.push_back(dump.pages[0]);
  two.pages.push_back(dump.pages[1]);
  ClientResponse multi =
      Post("/context/" + PercentEncode(dump.pages[0].title) + "/revision",
           xmldump::WriteDump(two));
  EXPECT_EQ(multi.status, 400);
}

TEST_F(ServerTest, TruncatedBodyIs400AndLeavesContextUntouched) {
  OpenStore(/*create=*/true);
  StartServer(8);

  const xmldump::PageHistory page = TestDump().pages[0];
  const std::string target =
      "/context/" + PercentEncode(page.title) + "/revision";
  xmldump::PageHistory half = page;
  half.revisions.resize(half.revisions.size() / 2);
  ASSERT_EQ(Post(target, PageXml(half)).status, 200);
  const std::string graph_target =
      "/context/" + PercentEncode(page.title) + "/graph";
  const ClientResponse before = Get(graph_target);
  ASSERT_EQ(before.status, 200);

  // The full history cut three bytes into its last revision's text: the
  // body ends inside the <page>, so none of it may be ingested.
  const std::string xml = PageXml(page);
  const size_t text = xml.rfind("<text");
  ASSERT_NE(text, std::string::npos);
  const size_t cut = xml.find('>', text) + 4;
  const ClientResponse truncated = Post(target, xml.substr(0, cut));
  EXPECT_EQ(truncated.status, 400) << truncated.body;
  EXPECT_NE(truncated.body.find("unterminated <page> element"),
            std::string::npos)
      << truncated.body;

  const ClientResponse after = Get(graph_target);
  ASSERT_EQ(after.status, 200);
  EXPECT_EQ(after.body, before.body);
}

// A crawl capture nested 100,000 <div> deep around a table: parsing and
// every walk over the document are loops, so the capture costs heap, not
// the shard worker's stack. The table is matched into the context's
// graph, and the daemon stays up to answer /healthz.
TEST_F(ServerTest, DeeplyNestedHtmlCaptureIsIngested) {
  OpenStore(/*create=*/true);
  StartServer(8);

  xmldump::PageHistory page;
  page.title = "Deep capture";
  page.page_id = 7;
  xmldump::Revision capture;
  capture.id = 1;
  capture.timestamp = 1000000;
  capture.model = "html";
  for (int i = 0; i < 100000; ++i) capture.text += "<div>";
  capture.text +=
      "<table><tr><th>year</th><th>title</th></tr>"
      "<tr><td>2001</td><td>A Film</td></tr></table>";
  page.revisions.push_back(capture);
  const std::string context = "/context/" + PercentEncode(page.title);
  const ClientResponse response =
      Post(context + "/revision", PageXml(page));
  EXPECT_EQ(response.status, 200) << response.body;

  const ClientResponse graph = Get(context + "/graph");
  ASSERT_EQ(graph.status, 200);
  EXPECT_NE(graph.body.find("type=table\nobject 0\n0 0\n"),
            std::string::npos)
      << graph.body;
  EXPECT_EQ(Get(context + "/history/table:0").status, 200);
  EXPECT_EQ(Get("/healthz").status, 200);
}

}  // namespace
}  // namespace somr::serve
