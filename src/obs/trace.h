#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace somr::obs {

/// Nanoseconds since the process-wide trace epoch (steady clock).
int64_t TraceNowNanos();

/// Runtime master switch, read on every span entry. Relaxed load + one
/// predictable branch when off — that plus a pointer store is the entire
/// disabled-path cost of SOMR_TRACE_SCOPE.
bool TracingEnabled();

/// One completed span. `name` and `cat` must be string literals (or
/// otherwise outlive the recorder): the ring stores the pointers only,
/// so recording never allocates.
struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  uint32_t tid = 0;      // small sequential thread id, stable per thread
  int64_t start_ns = 0;  // relative to the trace epoch
  int64_t dur_ns = 0;
  uint64_t trace_id = 0;  // owning request (0 = no request context)
};

/// The request trace id bound to the calling thread (0 when the thread
/// is not serving a traced request). Every span recorded and every
/// provenance decision stamped while a TraceIdScope is active carries
/// this id, which is what ties a slow span in the matcher back to the
/// HTTP request that caused it.
uint64_t CurrentTraceId();

/// RAII binding of a request trace id to the calling thread. Nests:
/// the previous id is restored on destruction. The executor propagates
/// the current id into submitted tasks, so spans on worker threads stay
/// attributed to the originating request.
class TraceIdScope {
 public:
  explicit TraceIdScope(uint64_t trace_id);
  ~TraceIdScope();
  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  uint64_t previous_;
};

/// Mints a fresh process-unique nonzero 64-bit trace id (splitmix64 over
/// an atomic counter seeded from the clock, so ids are unique across
/// restarts with overwhelming probability and never influence matching).
uint64_t NextTraceId();

/// Canonical wire format of a trace id: 16 lowercase hex digits.
std::string TraceIdHex(uint64_t trace_id);

/// Parses the TraceIdHex format (1..16 hex digits); 0 on malformed input.
uint64_t ParseTraceIdHex(const std::string& hex);

/// Process-wide lock-free ring buffer of completed spans. Writers claim
/// slots with one fetch_add; when the ring wraps, the oldest events are
/// overwritten and counted in dropped(). Each slot carries a sequence
/// number (a seqlock): a writer marks its slot busy, stores the fields
/// and publishes the slot for its lap, and readers copy a slot only if
/// its sequence number names the expected lap before and after the copy,
/// so an export running beside live writers never returns a torn event
/// (it skips slots that are mid-write or already overwritten).
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Clears the buffer, sizes it to `capacity` events and turns the
  /// runtime switch on.
  void Enable(size_t capacity = kDefaultCapacity);
  void Disable();
  void Clear();

  void Record(const char* name, const char* cat, int64_t start_ns,
              int64_t dur_ns, uint64_t trace_id = 0);

  /// Events currently retained, oldest first.
  std::vector<TraceEvent> Events() const;
  size_t recorded() const { return next_.load(std::memory_order_relaxed); }
  size_t dropped() const;

  /// Chrome trace_event JSON ("X" complete events, microsecond
  /// timestamps): loadable by chrome://tracing and https://ui.perfetto.dev.
  std::string ExportChromeTraceJson() const;

  /// Retained events whose start is at or after `since_ns` (trace-epoch
  /// nanoseconds), oldest first — the /debug/trace capture primitive.
  std::vector<TraceEvent> EventsSince(int64_t since_ns) const;

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  TraceRecorder() = default;

  /// One ring slot. `seq` is 0 before the first write, 2 * index + 1
  /// while the writer of event `index` fills the fields, and
  /// 2 * index + 2 once that event is published.
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> cat{nullptr};
    std::atomic<uint32_t> tid{0};
    std::atomic<int64_t> start_ns{0};
    std::atomic<int64_t> dur_ns{0};
    std::atomic<uint64_t> trace_id{0};
  };

  mutable std::mutex mu_;  // guards resize (Enable/Clear) only
  // Deliberately lock-free: writers claim slots via next_ and publish
  // them through the per-slot sequence numbers, without mu_. mu_ only
  // serialises resizes against each other and against exports.
  std::vector<Slot> ring_ SOMR_NOT_GUARDED;
  std::atomic<uint64_t> next_{0};
};

/// RAII span: captures the start time on entry when tracing is enabled
/// and records one complete event on exit. Use via SOMR_TRACE_SCOPE.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "somr") {
    if (TracingEnabled()) {
      name_ = name;
      cat_ = cat;
      start_ns_ = TraceNowNanos();
      trace_id_ = CurrentTraceId();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      TraceRecorder::Global().Record(name_, cat_, start_ns_,
                                     TraceNowNanos() - start_ns_,
                                     trace_id_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = "somr";
  int64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;
};

/// Renders `events` as Chrome trace_event JSON. Events carrying a trace
/// id expose it as args.trace_id (TraceIdHex format) so chrome://tracing
/// and Perfetto can filter one request's spans.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

}  // namespace somr::obs

// Compile-time kill switch: building with -DSOMR_OBS_NO_TRACING compiles
// every SOMR_TRACE_SCOPE site down to nothing (used to bound the
// instrumentation overhead; the runtime switch already makes spans a
// load+branch when off).
#if defined(SOMR_OBS_NO_TRACING)
#define SOMR_TRACE_SCOPE(name) ((void)0)
#define SOMR_TRACE_SCOPE_CAT(cat, name) ((void)0)
#else
#define SOMR_TRACE_CONCAT_INNER(a, b) a##b
#define SOMR_TRACE_CONCAT(a, b) SOMR_TRACE_CONCAT_INNER(a, b)
#define SOMR_TRACE_SCOPE(name) \
  ::somr::obs::TraceSpan SOMR_TRACE_CONCAT(somr_trace_span_, __LINE__)(name)
#define SOMR_TRACE_SCOPE_CAT(cat, name)                                  \
  ::somr::obs::TraceSpan SOMR_TRACE_CONCAT(somr_trace_span_, __LINE__)( \
      name, cat)
#endif
