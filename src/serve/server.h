#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "parallel/executor.h"
#include "parallel/mpmc_channel.h"
#include "serve/context_cache.h"
#include "serve/http.h"
#include "state/context_store.h"

namespace somr::serve {

/// Keeps the most recent rendered match-decision records in memory so
/// `GET /context/<id>/provenance` can answer without a file sink. Ring
/// semantics: once full, the oldest record falls out. Thread-safe (shard
/// workers record concurrently).
class RingProvenanceSink : public obs::ProvenanceSink {
 public:
  explicit RingProvenanceSink(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  void Record(const obs::MatchDecision& decision) override;

  /// Newest-last JSONL of up to `limit` records whose page equals
  /// `page`; empty `page` matches every record.
  std::string RenderJsonl(const std::string& page, size_t limit) const;

  size_t size() const;

 private:
  struct Row {
    std::string page;
    std::string json;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Row> rows_ SOMR_GUARDED_BY(mu_);
};

struct ServeOptions {
  /// TCP port; 0 binds an ephemeral port (see Server::port()).
  uint16_t port = 0;
  /// Shard workers. Contexts map to shards by FNV-1a of the context id,
  /// so one context's requests always serialize onto one shard.
  unsigned shards = 4;
  /// Resident contexts per shard before LRU spill kicks in.
  size_t cache_capacity = 256;
  /// Executor workers handling connections (also the cap on concurrently
  /// served connections, since handlers block on their sockets).
  unsigned connection_workers = 4;
  /// Recent match-decision records kept for /context/<id>/provenance.
  size_t provenance_capacity = 4096;
  /// Idle-read poll granularity; shutdown latency is bounded by it.
  int socket_timeout_millis = 200;
  /// Trace ring capacity (events) for /debug/trace. 0 uses the recorder
  /// default; an already-enabled recorder (--trace-out) is left alone.
  size_t trace_capacity = 0;
  /// Request latency above this counts as an SLO violation (rolling
  /// window burn counter + somr_serve_slo_violations_total). <= 0
  /// disables SLO accounting.
  double slo_threshold_seconds = 0.5;
  /// Finished requests at least this slow enter the /debug/requests
  /// recent ring; <= 0 records every finished request.
  double slow_threshold_seconds = 0.0;
  /// Capacity of that recent-request ring.
  size_t slow_request_capacity = 64;
};

/// Tracks requests for /debug/requests: an in-flight table keyed by
/// trace id plus a bounded ring of recently finished requests with
/// endpoint, status, duration and stage/shard/context attribution.
/// Thread-safe (connection workers and shard workers update rows).
class RequestTracker {
 public:
  RequestTracker(size_t recent_capacity, double slow_threshold_seconds);

  void Begin(uint64_t trace_id, const std::string& method,
             const std::string& target);
  /// Stage transition ("shard_queue" -> "shard_run"), stamping the shard
  /// and context once routing resolved them. `stage` must be a literal.
  void Stage(uint64_t trace_id, const char* stage,
             const std::string& context, int shard);
  void End(uint64_t trace_id, const char* endpoint, int status,
           double seconds);

  /// {"in_flight": [...], "recent": [...]} — newest-first recent ring.
  std::string RenderJson() const;

 private:
  struct Row {
    uint64_t trace_id = 0;
    std::string method;
    std::string target;
    std::string context;
    const char* stage = "route";
    const char* endpoint = "";
    int shard = -1;
    int status = 0;
    int64_t start_ns = 0;  // trace-epoch nanoseconds
    double seconds = 0.0;  // finished rows only
  };

  const size_t recent_capacity_;
  const double slow_threshold_seconds_;
  mutable std::mutex mu_;
  std::vector<Row> in_flight_ SOMR_GUARDED_BY(mu_);
  std::deque<Row> recent_ SOMR_GUARDED_BY(mu_);  // front = newest
};

/// The somr matching daemon: a dependency-free HTTP/1.1 server holding
/// many matcher contexts resident. Connections are accepted on the
/// Serve() thread and handled on executor workers (blocking sockets);
/// context endpoints hop onto one of N shard workers, each of which owns
/// a ContextCache, so per-context work is serialized and resident memory
/// stays bounded via LRU spill to the ContextStore.
///
/// Endpoints:
///   POST /context/<id>/revision   ingest page XML, match, JSON decisions
///   GET  /context/<id>/graph      identity graphs (somr text format)
///   GET  /context/<id>/history/<type>:<object>   object version history
///   GET  /context/<id>/provenance[?limit=N]      recent decisions JSONL
///   GET  /metrics                 Prometheus text exposition
///   GET  /metrics/window          rolling-window latency JSON (p50/95/99)
///   GET  /healthz                 liveness probe (JSON, build + uptime)
///   GET  /debug/vars              build info, config, per-shard state
///   GET  /debug/requests          in-flight + recent request table
///   GET  /debug/trace?ms=N        capture spans for N ms, Chrome JSON
///   POST /admin/checkpoint        snapshot every dirty context now
///   POST /admin/drain             checkpoint, then shut the server down
///
/// Every request runs under a 64-bit trace id (minted per request, or
/// adopted from an x-somr-trace-id header) that is propagated across the
/// shard hop into matcher spans and provenance records, and echoed back
/// as the x-somr-trace-id response header.
class Server {
 public:
  /// `store` must be Open()ed and outlive the server.
  Server(state::ContextStore* store, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; after an OK return port() is live and Serve()
  /// may be called.
  Status Start();

  /// Runs the accept loop until Stop() (or /admin/drain), then drains
  /// connections and shard queues, checkpoints every dirty context, and
  /// returns. Call from the thread that owns the server (blocks).
  Status Serve();

  /// Requests shutdown from any thread (also safe from a signal handler
  /// via shutdown(2) on the listen fd — see somr_serve). Idempotent.
  void Stop();

  /// The bound port (resolves port 0 after Start()).
  uint16_t port() const { return bound_port_; }

 private:
  struct Shard {
    explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

    parallel::Channel<std::function<void()>> queue;
    std::unique_ptr<ContextCache> cache;
    std::thread thread;
    // Residency counters mirrored from `cache` by the owning worker
    // after every job: the cache itself is single-owner and must never
    // be read from another shard's thread, but the metrics publisher
    // sums across all shards.
    std::atomic<uint64_t> resident{0};
    std::atomic<uint64_t> evicted{0};
    std::atomic<uint64_t> faulted{0};
    std::atomic<uint64_t> dirty{0};
    std::atomic<uint64_t> spilled{0};
  };

  /// What Route() counts a request under. Each endpoint has one
  /// windowed latency histogram, somr_serve_request_seconds_<name>.
  enum Endpoint : size_t {
    kHealthz,
    kMetrics,
    kDebug,
    kAdmin,
    kRevision,
    kGraph,
    kHistory,
    kProvenance,
    kOther,
    kEndpointCount,
  };
  static constexpr const char* kEndpointNames[kEndpointCount] = {
      "healthz", "metrics", "debug",      "admin", "revision",
      "graph",   "history", "provenance", "other"};

  void ShardMain(Shard& shard);
  void HandleConnection(int fd);

  /// Routes one parsed request to a response; sets `*endpoint` to the
  /// endpoint it counts under (left alone for unrouted requests).
  /// Context endpoints block on their shard; everything else answers
  /// inline.
  HttpResponse Route(const HttpRequest& request, Endpoint* endpoint);

  /// Runs `fn` on `id`'s shard and returns its response; serializes all
  /// work for one context.
  HttpResponse OnShard(const std::string& id,
                       std::function<HttpResponse(ContextCache&)> fn);

  HttpResponse HandleIngest(const std::string& id,
                            const HttpRequest& request);
  HttpResponse HandleGraph(const std::string& id);
  HttpResponse HandleHistory(const std::string& id,
                             const std::string& object_spec);
  HttpResponse HandleProvenance(const std::string& id,
                                const std::string& query);
  HttpResponse HandleCheckpoint();
  HttpResponse HandleDebugVars();
  HttpResponse HandleDebugTrace(const std::string& query);

  void PublishResidencyGauges();

  // Set by the constructor / Start() before any worker thread exists,
  // immutable while Serve() runs; the objects behind shards_, executor_,
  // provenance_ and tracker_ are internally synchronized.
  state::ContextStore* store_ SOMR_NOT_GUARDED;
  ServeOptions options_ SOMR_NOT_GUARDED;
  int listen_fd_ SOMR_NOT_GUARDED = -1;
  uint16_t bound_port_ SOMR_NOT_GUARDED = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};

  std::vector<std::unique_ptr<Shard>> shards_ SOMR_NOT_GUARDED;
  std::unique_ptr<parallel::Executor> executor_ SOMR_NOT_GUARDED;
  RingProvenanceSink provenance_ SOMR_NOT_GUARDED;
  RequestTracker tracker_ SOMR_NOT_GUARDED;
  // FNV-1a64 hex of the options; computed in the constructor.
  std::string config_fingerprint_ SOMR_NOT_GUARDED;
  // Registered in the constructor, indexed by Endpoint; the histograms
  // are internally synchronized.
  obs::Histogram* latency_[kEndpointCount] SOMR_NOT_GUARDED = {};

  // Open connections, so shutdown can wait for handlers to finish.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  size_t active_connections_ SOMR_GUARDED_BY(conn_mu_) = 0;
  // First checkpoint failure seen during drain.
  Status shutdown_error_ SOMR_GUARDED_BY(conn_mu_);
};

}  // namespace somr::serve
