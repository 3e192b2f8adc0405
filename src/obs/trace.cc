#include "obs/trace.h"

#include <chrono>
#include <cstdio>

namespace somr::obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};

int64_t EpochNanos() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

uint32_t LocalThreadId() {
  static std::atomic<uint32_t> next_tid{1};
  thread_local uint32_t tid = next_tid.fetch_add(1);
  return tid;
}

thread_local uint64_t tl_trace_id = 0;

// splitmix64 finalizer: bijective, so distinct counter values can never
// collide, and the avalanche spreads sequential counters across the full
// 64-bit space.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int64_t TraceNowNanos() { return EpochNanos(); }

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

uint64_t CurrentTraceId() { return tl_trace_id; }

TraceIdScope::TraceIdScope(uint64_t trace_id) : previous_(tl_trace_id) {
  tl_trace_id = trace_id;
}

TraceIdScope::~TraceIdScope() { tl_trace_id = previous_; }

uint64_t NextTraceId() {
  // Seed the counter from the wall clock once so ids stay unique across
  // process restarts (a flight-recorder dump from a previous run must not
  // alias a live request).
  static std::atomic<uint64_t> counter{static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count())};
  uint64_t id = 0;
  while (id == 0) {
    id = SplitMix64(counter.fetch_add(1, std::memory_order_relaxed));
  }
  return id;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return std::string(buf);
}

uint64_t ParseTraceIdHex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t value = 0;
  for (char c : hex) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint64_t>(c - 'A') + 10;
    } else {
      return 0;
    }
    value = (value << 4) | digit;
  }
  return value;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Enable(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity == 0) capacity = 1;
  ring_ = std::vector<Slot>(capacity);
  next_.store(0, std::memory_order_relaxed);
  g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  g_tracing_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // A slot's fields are only read while its sequence number names a
  // published event, so resetting the sequence numbers empties the ring.
  for (Slot& slot : ring_) slot.seq.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
}

void TraceRecorder::Record(const char* name, const char* cat,
                           int64_t start_ns, int64_t dur_ns,
                           uint64_t trace_id) {
  // The ring is only resized while tracing is off, so the capacity read
  // here is stable for the lifetime of any in-flight Record call.
  const size_t capacity = ring_.size();
  if (capacity == 0) return;
  const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[index % capacity];
  // Claim the slot for this lap. When a writer of another lap is still
  // filling it, or a later lap already published it, this event is
  // dropped rather than interleaved with that writer's fields.
  const uint64_t busy = 2 * index + 1;
  uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  if ((seen & 1) != 0 || seen > busy ||
      !slot.seq.compare_exchange_strong(seen, busy,
                                        std::memory_order_relaxed)) {
    return;
  }
  // Release field stores pair with the reader's acquire field loads: a
  // reader that sees any field of this write also sees the busy mark
  // on its re-check (no standalone fences, which ThreadSanitizer cannot
  // model).
  slot.name.store(name, std::memory_order_release);
  slot.cat.store(cat, std::memory_order_release);
  slot.tid.store(LocalThreadId(), std::memory_order_release);
  slot.start_ns.store(start_ns, std::memory_order_release);
  slot.dur_ns.store(dur_ns, std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_release);
  slot.seq.store(busy + 1, std::memory_order_release);
}

size_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t written = next_.load(std::memory_order_relaxed);
  return written > ring_.size() ? written - ring_.size() : 0;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t written = next_.load(std::memory_order_relaxed);
  const size_t capacity = ring_.size();
  std::vector<TraceEvent> events;
  if (capacity == 0 || written == 0) return events;
  const size_t count = written < capacity ? written : capacity;
  events.reserve(count);
  // Oldest retained event first: event `written - count + i` lives in
  // slot `(written - count + i) % capacity`. A slot is kept only if it
  // holds exactly that event, published, before and after the copy.
  for (uint64_t index = written - count; index < written; ++index) {
    const Slot& slot = ring_[index % capacity];
    const uint64_t published = 2 * index + 2;
    if (slot.seq.load(std::memory_order_acquire) != published) continue;
    TraceEvent e;
    e.name = slot.name.load(std::memory_order_acquire);
    e.cat = slot.cat.load(std::memory_order_acquire);
    e.tid = slot.tid.load(std::memory_order_acquire);
    e.start_ns = slot.start_ns.load(std::memory_order_acquire);
    e.dur_ns = slot.dur_ns.load(std::memory_order_acquire);
    e.trace_id = slot.trace_id.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != published) continue;
    events.push_back(e);
  }
  return events;
}

std::vector<TraceEvent> TraceRecorder::EventsSince(int64_t since_ns) const {
  std::vector<TraceEvent> events = Events();
  size_t kept = 0;
  for (const TraceEvent& e : events) {
    if (e.start_ns >= since_ns) events[kept++] = e;
  }
  events.resize(kept);
  return events;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[320];
  bool first = true;
  for (const TraceEvent& e : events) {
    if (e.trace_id != 0) {
      std::snprintf(
          buf, sizeof(buf),
          "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
          "\"args\": {\"trace_id\": \"%016llx\"}}",
          first ? "" : ",", e.name, e.cat,
          static_cast<double>(e.start_ns) / 1000.0,
          static_cast<double>(e.dur_ns) / 1000.0, e.tid,
          static_cast<unsigned long long>(e.trace_id));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u}",
                    first ? "" : ",", e.name, e.cat,
                    static_cast<double>(e.start_ns) / 1000.0,
                    static_cast<double>(e.dur_ns) / 1000.0, e.tid);
    }
    out += buf;
    first = false;
  }
  out += "\n]}\n";
  return out;
}

std::string TraceRecorder::ExportChromeTraceJson() const {
  return ChromeTraceJson(Events());
}

}  // namespace somr::obs
