#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/page_step.h"
#include "matching/graph_io.h"
#include "obs/build_info.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xmldump/dump.h"

namespace somr::serve {

namespace {

constexpr extract::ObjectType kAllTypes[] = {
    extract::ObjectType::kTable, extract::ObjectType::kInfobox,
    extract::ObjectType::kList};

struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* http_errors;
  obs::Counter* slo_violations;
  obs::Gauge* resident;
  obs::Gauge* evicted;
  obs::Gauge* faulted;
  obs::Gauge* dirty;
  obs::Gauge* spilled;
};

const ServeMetrics& GetServeMetrics() {
  static const ServeMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    ServeMetrics m;
    m.requests = reg.GetCounter("somr_serve_requests_total",
                                "HTTP requests handled by somr_serve");
    m.http_errors = reg.GetCounter(
        "somr_serve_http_errors_total",
        "Requests answered with a 4xx/5xx status (incl. parse errors)");
    m.slo_violations = reg.GetCounter(
        "somr_serve_slo_violations_total",
        "Requests slower than the configured SLO threshold");
    m.resident = reg.GetGauge("somr_serve_contexts_resident",
                              "Matcher contexts live in shard LRU caches");
    m.evicted = reg.GetGauge(
        "somr_serve_contexts_evicted",
        "Contexts dropped from residency to stay within capacity");
    m.faulted = reg.GetGauge(
        "somr_serve_contexts_faulted",
        "Contexts restored from ContextStore snapshots on demand");
    m.dirty = reg.GetGauge(
        "somr_serve_contexts_dirty",
        "Resident contexts holding un-checkpointed changes");
    m.spilled = reg.GetGauge(
        "somr_serve_context_spills",
        "Evictions that had to write a snapshot before dropping");
    return m;
  }();
  return metrics;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\": \"" + JsonEscape(message) + "\"}\n";
  return response;
}

HttpResponse JsonResponse(std::string body) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

/// Per-request sink: collects rendered decisions for the ingest response
/// and forwards every record to the server-wide provenance ring.
class CollectSink : public obs::ProvenanceSink {
 public:
  explicit CollectSink(RingProvenanceSink* ring) : ring_(ring) {}

  void Record(const obs::MatchDecision& decision) override {
    collected_.push_back(obs::MatchDecisionToJson(decision));
    ring_->Record(decision);
  }

  const std::vector<std::string>& collected() const { return collected_; }

 private:
  RingProvenanceSink* ring_;
  std::vector<std::string> collected_;
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// --- RingProvenanceSink ----------------------------------------------------

void RingProvenanceSink::Record(const obs::MatchDecision& decision) {
  Row row{decision.page, obs::MatchDecisionToJson(decision)};
  std::lock_guard<std::mutex> lock(mu_);
  rows_.push_back(std::move(row));
  if (rows_.size() > capacity_) rows_.pop_front();
}

std::string RingProvenanceSink::RenderJsonl(const std::string& page,
                                            size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Row*> selected;
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (!page.empty() && it->page != page) continue;
    selected.push_back(&*it);
    if (selected.size() >= limit) break;
  }
  std::string out;
  for (auto it = selected.rbegin(); it != selected.rend(); ++it) {
    out += (*it)->json;
    out += '\n';
  }
  return out;
}

size_t RingProvenanceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

// --- RequestTracker --------------------------------------------------------

RequestTracker::RequestTracker(size_t recent_capacity,
                               double slow_threshold_seconds)
    : recent_capacity_(recent_capacity < 1 ? 1 : recent_capacity),
      slow_threshold_seconds_(slow_threshold_seconds) {}

void RequestTracker::Begin(uint64_t trace_id, const std::string& method,
                           const std::string& target) {
  Row row;
  row.trace_id = trace_id;
  row.method = method;
  row.target = target;
  row.start_ns = obs::TraceNowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_.push_back(std::move(row));
}

void RequestTracker::Stage(uint64_t trace_id, const char* stage,
                           const std::string& context, int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Row& row : in_flight_) {
    if (row.trace_id != trace_id) continue;
    row.stage = stage;
    row.context = context;
    row.shard = shard;
    return;
  }
}

void RequestTracker::End(uint64_t trace_id, const char* endpoint,
                         int status, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < in_flight_.size(); ++i) {
    if (in_flight_[i].trace_id != trace_id) continue;
    Row row = std::move(in_flight_[i]);
    in_flight_.erase(in_flight_.begin() +
                     static_cast<std::ptrdiff_t>(i));
    row.stage = "done";
    row.endpoint = endpoint;
    row.status = status;
    row.seconds = seconds;
    if (slow_threshold_seconds_ <= 0.0 ||
        seconds >= slow_threshold_seconds_) {
      recent_.push_front(std::move(row));
      if (recent_.size() > recent_capacity_) recent_.pop_back();
    }
    return;
  }
}

std::string RequestTracker::RenderJson() const {
  const int64_t now_ns = obs::TraceNowNanos();
  char buf[128];
  std::string out = "{\n  \"in_flight\": [";
  std::lock_guard<std::mutex> lock(mu_);
  const auto render_common = [&](const Row& row) {
    std::string json = "{\"trace_id\": \"";
    json += obs::TraceIdHex(row.trace_id);
    json += "\", \"method\": \"" + JsonEscape(row.method) + "\"";
    json += ", \"target\": \"" + JsonEscape(row.target) + "\"";
    if (!row.context.empty()) {
      json += ", \"context\": \"" + JsonEscape(row.context) + "\"";
    }
    if (row.shard >= 0) {
      json += ", \"shard\": " + std::to_string(row.shard);
    }
    json += std::string(", \"stage\": \"") + row.stage + "\"";
    return json;
  };
  bool first = true;
  for (const Row& row : in_flight_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += render_common(row);
    std::snprintf(buf, sizeof(buf), ", \"age_ms\": %.3f}",
                  static_cast<double>(now_ns - row.start_ns) / 1e6);
    out += buf;
  }
  out += "\n  ],\n  \"recent\": [";
  first = true;
  for (const Row& row : recent_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += render_common(row);
    std::snprintf(buf, sizeof(buf),
                  ", \"endpoint\": \"%s\", \"status\": %d, "
                  "\"duration_ms\": %.3f}",
                  row.endpoint, row.status, row.seconds * 1e3);
    out += buf;
  }
  out += "\n  ]\n}\n";
  return out;
}

// --- Server ----------------------------------------------------------------

Server::Server(state::ContextStore* store, ServeOptions options)
    : store_(store),
      options_(options),
      provenance_(options.provenance_capacity),
      tracker_(options.slow_request_capacity,
               options.slow_threshold_seconds) {
  if (options_.shards < 1) options_.shards = 1;
  if (options_.connection_workers < 1) options_.connection_workers = 1;
  std::string config = "shards=" + std::to_string(options_.shards);
  config += ";cache_capacity=" + std::to_string(options_.cache_capacity);
  config += ";connection_workers=" +
            std::to_string(options_.connection_workers);
  config += ";provenance_capacity=" +
            std::to_string(options_.provenance_capacity);
  config += ";trace_capacity=" + std::to_string(options_.trace_capacity);
  config += ";slo_threshold_seconds=" +
            std::to_string(options_.slo_threshold_seconds);
  config_fingerprint_ = obs::TraceIdHex(Fnv1a64(config));
  // 100 µs .. ~26 s in x4 steps. The registry is process-wide, so the SLO
  // threshold of the first server to register an endpoint wins.
  for (size_t e = 0; e < kEndpointCount; ++e) {
    const std::string name = kEndpointNames[e];
    latency_[e] = obs::MetricsRegistry::Global().GetWindowedHistogram(
        "somr_serve_request_seconds_" + name,
        "Request latency of the " + name + " serve endpoint in seconds",
        1e-4, 4.0, 10, options_.slo_threshold_seconds);
  }
}

Server::~Server() {
  Stop();
  // Serve() normally joins everything; cover the Start()-without-Serve()
  // and failed-Start() paths.
  for (auto& shard : shards_) {
    shard->queue.Close();
    if (shard->thread.joinable()) shard->thread.join();
  }
  if (executor_ != nullptr) store_->set_executor(nullptr);
  executor_.reset();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

Status Server::Start() {
  // /debug/trace needs a live span ring. Respect a recorder the CLI
  // already enabled (--trace-out picks its own capacity).
  if (!obs::TracingEnabled()) {
    obs::TraceRecorder::Global().Enable(
        options_.trace_capacity != 0
            ? options_.trace_capacity
            : obs::TraceRecorder::kDefaultCapacity);
  }
  obs::RegisterProcessMetrics();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  bound_port_ = ntohs(addr.sin_port);

  shards_.reserve(options_.shards);
  for (unsigned s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>(/*queue_capacity=*/64);
    shard->cache = std::make_unique<ContextCache>(store_,
                                                  options_.cache_capacity);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] {
      ShardMain(*raw);
    });
  }
  executor_ = std::make_unique<parallel::Executor>(
      options_.connection_workers);
  // Checkpoint-triggered record-log compactions ride the connection
  // pool instead of blocking a shard worker mid-checkpoint.
  store_->set_executor(executor_.get());
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::PublishResidencyGauges() {
  // Sums the per-shard mirror counters, never the caches themselves: a
  // cache belongs to its shard worker alone, and this runs on whichever
  // shard finished a job last.
  uint64_t resident = 0, evicted = 0, faulted = 0;
  uint64_t dirty = 0, spilled = 0;
  for (const auto& shard : shards_) {
    resident += shard->resident.load(std::memory_order_relaxed);
    evicted += shard->evicted.load(std::memory_order_relaxed);
    faulted += shard->faulted.load(std::memory_order_relaxed);
    dirty += shard->dirty.load(std::memory_order_relaxed);
    spilled += shard->spilled.load(std::memory_order_relaxed);
  }
  const ServeMetrics& metrics = GetServeMetrics();
  metrics.resident->Set(static_cast<double>(resident));
  metrics.evicted->Set(static_cast<double>(evicted));
  metrics.faulted->Set(static_cast<double>(faulted));
  metrics.dirty->Set(static_cast<double>(dirty));
  metrics.spilled->Set(static_cast<double>(spilled));
}

void Server::ShardMain(Shard& shard) {
  const auto mirror_counters = [&shard] {
    shard.resident.store(shard.cache->resident(),
                         std::memory_order_relaxed);
    shard.evicted.store(shard.cache->stats().evictions,
                        std::memory_order_relaxed);
    shard.faulted.store(shard.cache->stats().faults,
                        std::memory_order_relaxed);
    shard.dirty.store(shard.cache->dirty(), std::memory_order_relaxed);
    shard.spilled.store(shard.cache->stats().spills,
                        std::memory_order_relaxed);
  };
  std::function<void()> job;
  while (shard.queue.Pop(job)) {
    job();
    job = nullptr;
    mirror_counters();
    PublishResidencyGauges();
  }
  // Graceful shutdown: every dirty resident context gets a snapshot.
  Status status = shard.cache->CheckpointAll();
  if (!status.ok()) {
    SOMR_LOG(Error) << "shard checkpoint failed at shutdown: "
                    << status.ToString();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (shutdown_error_.ok()) shutdown_error_ = status;
  }
  mirror_counters();
  PublishResidencyGauges();
}

Status Server::Serve() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down (Stop) or broken beyond repair
    }
    timeval timeout{};
    timeout.tv_sec = options_.socket_timeout_millis / 1000;
    timeout.tv_usec = (options_.socket_timeout_millis % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      ++active_connections_;
    }
    executor_->Submit([this, fd] { HandleConnection(fd); });
  }
  stopping_.store(true, std::memory_order_relaxed);

  // Connections first (they feed the shard queues), then the shards —
  // each shard checkpoints its dirty contexts on the way out.
  {
    std::unique_lock<std::mutex> lock(conn_mu_);
    conn_cv_.wait(lock, [&] { return active_connections_ == 0; });
  }
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Detach the store from the pool (waits for in-flight compactions)
  // before the pool dies.
  store_->set_executor(nullptr);
  executor_.reset();
  std::lock_guard<std::mutex> lock(conn_mu_);
  return shutdown_error_;
}

void Server::HandleConnection(int fd) {
  const ServeMetrics& metrics = GetServeMetrics();
  HttpRequestParser parser;
  std::string pending;
  char buf[8192];

  while (true) {
    if (pending.empty()) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) break;  // peer closed
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Idle poll tick: keep waiting unless the server is stopping.
          if (stopping_.load(std::memory_order_relaxed)) break;
          continue;
        }
        break;
      }
      pending.assign(buf, static_cast<size_t>(n));
    }
    size_t used = parser.Feed(pending.data(), pending.size());
    pending.erase(0, used);
    if (parser.error()) {
      metrics.requests->Increment();
      metrics.http_errors->Increment();
      HttpResponse bad = ErrorResponse(400, parser.error_message());
      bad.close_connection = true;
      SendAll(fd, SerializeResponse(bad));
      break;
    }
    if (!parser.done()) continue;

    HttpRequest request = std::move(parser.request());
    parser.Reset();
    metrics.requests->Increment();
    const bool peer_close = request.Header("connection") == "close" ||
                            request.version == "HTTP/1.0";

    // Request context: adopt the caller's trace id (distributed callers
    // pass x-somr-trace-id) or mint a fresh one, and bind it to this
    // thread so every span and provenance record below carries it.
    uint64_t trace_id =
        obs::ParseTraceIdHex(request.Header("x-somr-trace-id"));
    if (trace_id == 0) trace_id = obs::NextTraceId();
    obs::TraceIdScope trace_scope(trace_id);
    tracker_.Begin(trace_id, request.method, request.target);

    Timer timer;
    Endpoint endpoint = kOther;
    HttpResponse response;
    {
      SOMR_TRACE_SCOPE_CAT("serve", "serve/request");
      response = Route(request, &endpoint);
    }
    const double seconds = timer.ElapsedSeconds();
    tracker_.End(trace_id, kEndpointNames[endpoint], response.status,
                 seconds);
    response.extra_headers.emplace_back("x-somr-trace-id",
                                        obs::TraceIdHex(trace_id));
    latency_[endpoint]->Observe(seconds);
    if (options_.slo_threshold_seconds > 0.0 &&
        seconds > options_.slo_threshold_seconds) {
      metrics.slo_violations->Increment();
    }
    if (response.status >= 400) metrics.http_errors->Increment();

    response.close_connection =
        response.close_connection || peer_close ||
        stopping_.load(std::memory_order_relaxed);
    const bool ok = SendAll(fd, SerializeResponse(response));

    // /admin/drain: the response is out; now take the server down. The
    // flag comes from Route (which matches decoded, normalized segments)
    // so no raw-target re-match can disagree with the routing decision.
    if (response.shutdown_after_send) {
      Stop();
      break;
    }
    if (!ok || response.close_connection) break;
  }

  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    --active_connections_;
  }
  conn_cv_.notify_all();
}

HttpResponse Server::Route(const HttpRequest& request,
                           Endpoint* endpoint) {
  std::vector<std::string> segments;
  std::string query;
  SplitTarget(request.target, &segments, &query);

  if (segments.size() == 1 && segments[0] == "healthz") {
    *endpoint = kHealthz;
    if (request.method != "GET") return ErrorResponse(405, "GET only");
    HttpResponse response;
    response.content_type = "application/json";
    response.body =
        "{\"status\": \"ok\", \"build\": " + obs::BuildInfoJson() + "}\n";
    return response;
  }
  if (segments.size() == 1 && segments[0] == "metrics") {
    *endpoint = kMetrics;
    if (request.method != "GET") return ErrorResponse(405, "GET only");
    obs::TouchProcessMetrics();
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::RenderMetricsText(obs::MetricsRegistry::Global().Scrape());
    return response;
  }
  if (segments.size() == 2 && segments[0] == "metrics" &&
      segments[1] == "window") {
    *endpoint = kMetrics;
    if (request.method != "GET") return ErrorResponse(405, "GET only");
    return JsonResponse(
        obs::RenderWindowJson(obs::MetricsRegistry::Global().Scrape()));
  }
  if (segments.size() == 2 && segments[0] == "debug") {
    *endpoint = kDebug;
    if (request.method != "GET") return ErrorResponse(405, "GET only");
    if (segments[1] == "vars") return HandleDebugVars();
    if (segments[1] == "requests") {
      return JsonResponse(tracker_.RenderJson());
    }
    if (segments[1] == "trace") return HandleDebugTrace(query);
    return ErrorResponse(404, "unknown debug endpoint");
  }
  if (segments.size() == 2 && segments[0] == "admin") {
    *endpoint = kAdmin;
    if (request.method != "POST") return ErrorResponse(405, "POST only");
    if (segments[1] == "checkpoint") return HandleCheckpoint();
    if (segments[1] == "drain") {
      draining_.store(true, std::memory_order_relaxed);
      HttpResponse response = HandleCheckpoint();
      if (response.status != 200) return response;
      response.body = "{\"draining\": true}\n";
      response.close_connection = true;
      response.shutdown_after_send = true;
      return response;
    }
    return ErrorResponse(404, "unknown admin action");
  }
  if (segments.size() >= 3 && segments[0] == "context") {
    const std::string& id = segments[1];
    if (segments.size() == 3 && segments[2] == "revision") {
      *endpoint = kRevision;
      if (request.method != "POST") return ErrorResponse(405, "POST only");
      if (draining_.load(std::memory_order_relaxed)) {
        return ErrorResponse(503, "server is draining");
      }
      return HandleIngest(id, request);
    }
    if (request.method != "GET") return ErrorResponse(405, "GET only");
    if (segments.size() == 3 && segments[2] == "graph") {
      *endpoint = kGraph;
      return HandleGraph(id);
    }
    if (segments.size() == 4 && segments[2] == "history") {
      *endpoint = kHistory;
      return HandleHistory(id, segments[3]);
    }
    if (segments.size() == 3 && segments[2] == "provenance") {
      *endpoint = kProvenance;
      return HandleProvenance(id, query);
    }
  }
  return ErrorResponse(404, "no route for " + request.method + " " +
                                request.target);
}

HttpResponse Server::OnShard(const std::string& id,
                             std::function<HttpResponse(ContextCache&)> fn) {
  const size_t shard_index = Fnv1a64(id) % shards_.size();
  Shard& shard = *shards_[shard_index];

  // The shard worker is a different thread: carry the request's trace id
  // across the queue hop explicitly and rebind it inside the job.
  const uint64_t trace_id = obs::CurrentTraceId();
  tracker_.Stage(trace_id, "shard_queue", id,
                 static_cast<int>(shard_index));

  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done SOMR_GUARDED_BY(mu) = false;
    HttpResponse response SOMR_GUARDED_BY(mu);
  };
  auto waiter = std::make_shared<Waiter>();
  ContextCache* cache = shard.cache.get();
  const bool pushed = shard.queue.Push([this, waiter, cache, trace_id, id,
                                        shard_index,
                                        fn = std::move(fn)]() mutable {
    obs::TraceIdScope trace_scope(trace_id);
    tracker_.Stage(trace_id, "shard_run", id,
                   static_cast<int>(shard_index));
    HttpResponse response;
    {
      SOMR_TRACE_SCOPE_CAT("serve", "serve/shard_job");
      response = fn(*cache);
    }
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->response = std::move(response);
      waiter->done = true;
    }
    waiter->cv.notify_one();
  });
  if (!pushed) return ErrorResponse(503, "server is shutting down");
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->done; });
  return std::move(waiter->response);
}

HttpResponse Server::HandleIngest(const std::string& id,
                                  const HttpRequest& request) {
  StatusOr<xmldump::Dump> dump = xmldump::ReadDump(request.body);
  if (!dump.ok()) return ErrorResponse(400, dump.status().ToString());
  if (dump->pages.size() != 1) {
    return ErrorResponse(400, "body must hold exactly one <page>, got " +
                                  std::to_string(dump->pages.size()));
  }
  xmldump::PageHistory page = std::move(dump->pages[0]);
  if (page.title.empty()) {
    page.title = id;
  } else if (page.title != id) {
    return ErrorResponse(400, "body page title \"" + page.title +
                                  "\" does not match context id \"" + id +
                                  "\"");
  }

  return OnShard(id, [this, id, page = std::move(page)](
                         ContextCache& cache) -> HttpResponse {
    StatusOr<core::PageState*> resident =
        cache.GetOrLoad(id, /*create=*/true);
    if (!resident.ok()) {
      return ErrorResponse(500, resident.status().ToString());
    }
    CollectSink sink(&provenance_);
    core::IngestReport report =
        core::ApplyPageToState(**resident, page, &sink, nullptr);
    if (report.new_revisions > 0) cache.MarkDirty(id);

    const bool page_skipped =
        report.new_revisions == 0 && report.skipped_revisions > 0;
    std::string body = "{\"context\": \"" + JsonEscape(id) + "\"";
    body += ", \"new_revisions\": " + std::to_string(report.new_revisions);
    body += ", \"skipped_revisions\": " +
            std::to_string(report.skipped_revisions);
    body += std::string(", \"page_skipped\": ") +
            (page_skipped ? "true" : "false");
    body += ", \"revisions_ingested\": " +
            std::to_string((*resident)->revisions_ingested);
    body += ", \"decisions\": [";
    for (size_t i = 0; i < sink.collected().size(); ++i) {
      if (i > 0) body += ", ";
      body += sink.collected()[i];
    }
    body += "]}\n";
    return JsonResponse(std::move(body));
  });
}

HttpResponse Server::HandleGraph(const std::string& id) {
  return OnShard(id, [id](ContextCache& cache) -> HttpResponse {
    StatusOr<core::PageState*> resident =
        cache.GetOrLoad(id, /*create=*/false);
    if (!resident.ok()) {
      const int status =
          resident.status().code() == StatusCode::kNotFound ? 404 : 500;
      return ErrorResponse(status, resident.status().ToString());
    }
    HttpResponse response;
    for (extract::ObjectType type : kAllTypes) {
      response.body += matching::SerializeIdentityGraph(
          (*resident)->matcher.GraphFor(type));
    }
    return response;
  });
}

HttpResponse Server::HandleHistory(const std::string& id,
                                   const std::string& object_spec) {
  // "<type>:<object-id>", e.g. "table:0".
  size_t colon = object_spec.find(':');
  if (colon == std::string::npos) {
    return ErrorResponse(400, "object spec must be <type>:<id>");
  }
  const std::string type_name = object_spec.substr(0, colon);
  extract::ObjectType type;
  if (type_name == "table") {
    type = extract::ObjectType::kTable;
  } else if (type_name == "infobox") {
    type = extract::ObjectType::kInfobox;
  } else if (type_name == "list") {
    type = extract::ObjectType::kList;
  } else {
    return ErrorResponse(400, "unknown object type \"" + type_name + "\"");
  }
  int64_t object_id = 0;
  const std::string id_digits = object_spec.substr(colon + 1);
  if (id_digits.empty() ||
      id_digits.find_first_not_of("0123456789") != std::string::npos) {
    return ErrorResponse(400, "object id must be a non-negative integer");
  }
  // from_chars, not stoll: an all-digit id can still overflow int64, and
  // stoll would throw out of the handler instead of answering 400.
  const char* digits_end = id_digits.data() + id_digits.size();
  const std::from_chars_result parsed =
      std::from_chars(id_digits.data(), digits_end, object_id);
  if (parsed.ec != std::errc() || parsed.ptr != digits_end) {
    return ErrorResponse(400, "object id out of range");
  }

  return OnShard(id, [id, type, type_name,
                      object_id](ContextCache& cache) -> HttpResponse {
    StatusOr<core::PageState*> resident =
        cache.GetOrLoad(id, /*create=*/false);
    if (!resident.ok()) {
      const int status =
          resident.status().code() == StatusCode::kNotFound ? 404 : 500;
      return ErrorResponse(status, resident.status().ToString());
    }
    const matching::IdentityGraph& graph =
        (*resident)->matcher.GraphFor(type);
    for (const matching::TrackedObjectRecord& object : graph.objects()) {
      if (object.object_id != object_id) continue;
      std::string body = "{\"context\": \"" + JsonEscape(id) + "\"";
      body += ", \"type\": \"" + type_name + "\"";
      body += ", \"object\": " + std::to_string(object_id);
      body += ", \"versions\": [";
      for (size_t i = 0; i < object.versions.size(); ++i) {
        if (i > 0) body += ", ";
        body += "{\"revision\": " +
                std::to_string(object.versions[i].revision) +
                ", \"position\": " +
                std::to_string(object.versions[i].position) + "}";
      }
      body += "]}\n";
      return JsonResponse(std::move(body));
    }
    return ErrorResponse(404, "no " + type_name + " object " +
                                  std::to_string(object_id) +
                                  " in context \"" + id + "\"");
  });
}

HttpResponse Server::HandleProvenance(const std::string& id,
                                      const std::string& query) {
  size_t limit = 256;
  const std::string limit_param = QueryParam(query, "limit");
  if (!limit_param.empty()) {
    if (limit_param.find_first_not_of("0123456789") != std::string::npos ||
        limit_param.size() > 9) {
      return ErrorResponse(400, "limit must be a small integer");
    }
    limit = static_cast<size_t>(std::stoul(limit_param));
  }
  HttpResponse response;
  response.content_type = "application/jsonl";
  response.body = provenance_.RenderJsonl(id, limit);
  return response;
}

HttpResponse Server::HandleCheckpoint() {
  // Fan one checkpoint job out per shard so each cache is touched only
  // by its own worker, and wait for all of them.
  struct Waiter {
    explicit Waiter(size_t n) : pending(n) {}
    std::mutex mu;
    std::condition_variable cv;
    size_t pending SOMR_GUARDED_BY(mu);
    Status first_error SOMR_GUARDED_BY(mu);
  };
  auto waiter = std::make_shared<Waiter>(shards_.size());
  for (auto& shard : shards_) {
    ContextCache* cache = shard->cache.get();
    const bool pushed = shard->queue.Push([waiter, cache] {
      Status status = cache->CheckpointAll();
      {
        std::lock_guard<std::mutex> lock(waiter->mu);
        if (!status.ok() && waiter->first_error.ok()) {
          waiter->first_error = status;
        }
        --waiter->pending;
      }
      waiter->cv.notify_one();
    });
    if (!pushed) {
      std::lock_guard<std::mutex> lock(waiter->mu);
      --waiter->pending;
    }
  }
  std::unique_lock<std::mutex> lock(waiter->mu);
  waiter->cv.wait(lock, [&] { return waiter->pending == 0; });
  if (!waiter->first_error.ok()) {
    return ErrorResponse(500, waiter->first_error.ToString());
  }
  return JsonResponse("{\"checkpointed_shards\": " +
                      std::to_string(shards_.size()) + "}\n");
}

HttpResponse Server::HandleDebugVars() {
  std::string body = "{\n  \"build\": " + obs::BuildInfoJson() + ",\n";
  body += "  \"config_fingerprint\": \"" + config_fingerprint_ + "\",\n";
  body += "  \"config\": {\"shards\": " + std::to_string(options_.shards);
  body +=
      ", \"cache_capacity\": " + std::to_string(options_.cache_capacity);
  body += ", \"connection_workers\": " +
          std::to_string(options_.connection_workers);
  body += ", \"provenance_capacity\": " +
          std::to_string(options_.provenance_capacity);
  body += ", \"trace_capacity\": " +
          std::to_string(options_.trace_capacity);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"slo_threshold_seconds\": %g},\n",
                options_.slo_threshold_seconds);
  body += buf;
  body += "  \"shards\": [";
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    body += s == 0 ? "\n    " : ",\n    ";
    body += "{\"shard\": " + std::to_string(s);
    body += ", \"resident\": " +
            std::to_string(shard.resident.load(std::memory_order_relaxed));
    body += ", \"dirty\": " +
            std::to_string(shard.dirty.load(std::memory_order_relaxed));
    body += ", \"evicted\": " +
            std::to_string(shard.evicted.load(std::memory_order_relaxed));
    body += ", \"faulted\": " +
            std::to_string(shard.faulted.load(std::memory_order_relaxed));
    body += ", \"spilled\": " +
            std::to_string(shard.spilled.load(std::memory_order_relaxed));
    body += ", \"queue_depth\": " + std::to_string(shard.queue.size());
    body += "}";
  }
  body += "\n  ],\n";
  body += "  \"storage\": " + store_->StatsJson() + ",\n";
  body += "  \"provenance_ring\": " + std::to_string(provenance_.size());
  body += ",\n  \"trace_recorded\": " +
          std::to_string(obs::TraceRecorder::Global().recorded());
  body += ",\n  \"trace_dropped\": " +
          std::to_string(obs::TraceRecorder::Global().dropped());
  body += "\n}\n";
  return JsonResponse(std::move(body));
}

HttpResponse Server::HandleDebugTrace(const std::string& query) {
  // Capture window: spans STARTING from now on, rendered after ms have
  // elapsed. Clamped hard — this parks one connection worker.
  int64_t ms = 100;
  const std::string ms_param = QueryParam(query, "ms");
  if (!ms_param.empty()) {
    if (ms_param.find_first_not_of("0123456789") != std::string::npos ||
        ms_param.size() > 6) {
      return ErrorResponse(400, "ms must be a small non-negative integer");
    }
    ms = static_cast<int64_t>(std::stol(ms_param));
  }
  if (ms > 2000) ms = 2000;
  const int64_t since_ns = obs::TraceNowNanos();
  if (ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  return JsonResponse(obs::ChromeTraceJson(
      obs::TraceRecorder::Global().EventsSince(since_ns)));
}

}  // namespace somr::serve
