#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace somr::obs {

class MetricsRegistry;

/// Summary of a windowed histogram's observations over a recent horizon.
/// Percentiles interpolate linearly inside the histogram's own buckets,
/// so their error is bounded by the bucket growth factor.
struct WindowStats {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  uint64_t slo_violations = 0;  // observations strictly above the SLO
};

/// Ring shape of every windowed histogram: kWindowSlots sub-windows of
/// kWindowSlotSeconds each, so the longest horizon is five minutes.
inline constexpr int64_t kWindowSlotSeconds = 5;
inline constexpr size_t kWindowSlots = 60;

/// The horizons a scrape reports for each windowed histogram, keyed as
/// in the /metrics/window payload.
struct WindowHorizon {
  const char* key;
  int64_t seconds;
};
inline constexpr WindowHorizon kWindowHorizons[] = {{"1m", 60}, {"5m", 300}};

namespace internal {

// Cell budget of one per-thread shard. Counters take one u64 cell each;
// histograms take (buckets + 1) u64 cells (bucket counts incl. overflow)
// plus one f64 cell (sum of observations). Cell 0 of each array is a
// shared scratch sink for counters past the budget, so metric updates
// never fail — the overflowing metric just reads as 0 (a histogram past
// the budget counts nothing at all).
constexpr size_t kMaxU64Cells = 1024;
constexpr size_t kMaxF64Cells = 128;

/// One thread's lock-free slice of every registered metric. Writers touch
/// only their own shard (relaxed atomics, no sharing with other writer
/// threads); a scrape walks all shards and sums.
struct MetricShard {
  std::atomic<uint64_t> u64[kMaxU64Cells] = {};
  std::atomic<double> f64[kMaxF64Cells] = {};
};

/// The calling thread's shard, created and registered on first use and
/// folded into the registry's retired totals when the thread exits.
MetricShard& LocalShard();

inline void AtomicAddDouble(std::atomic<double>& cell, double v) {
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

/// Seconds on the steady clock: the time scale of Histogram::Observe's
/// window and of a scrape's window stats.
int64_t WindowNowSeconds();

/// The rolling window of a windowed Histogram: per sub-window counts
/// over the histogram's own buckets. An observation lands in the
/// sub-window of its epoch (now / kWindowSlotSeconds); a slot left from
/// an older epoch is reset when its epoch comes round again, so old
/// samples age out without a background thread. One mutex per ring: an
/// observation is one served request, so it is never the hot spot.
class WindowRing {
 public:
  /// `slo_threshold` <= 0 turns SLO counting off; `growth` caps the
  /// overflow bucket one step above the last bound for percentiles.
  WindowRing(size_t buckets, double growth, double slo_threshold);

  void Add(size_t bucket, double v, int64_t now_s);
  /// Stats over the sub-windows younger than `horizon_seconds` (at
  /// least one, at most the whole ring) as of `now_s`.
  WindowStats StatsAt(const std::vector<double>& bounds,
                      int64_t horizon_seconds, int64_t now_s) const;
  void Clear();

 private:
  struct Slot {
    int64_t epoch = -1;  // -1 = never written
    uint64_t count = 0;
    double sum = 0.0;
    uint64_t slo_violations = 0;
  };

  const size_t buckets_;
  const double growth_;
  const double slo_threshold_;
  mutable std::mutex mu_;
  Slot slots_[kWindowSlots] SOMR_GUARDED_BY(mu_);
  // Bucket counts, kWindowSlots rows of buckets_ (overflow last).
  std::vector<uint64_t> counts_ SOMR_GUARDED_BY(mu_);
};

}  // namespace internal

/// Monotonically increasing count. Increment is wait-free: one relaxed
/// fetch_add on the calling thread's shard.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    internal::LocalShard().u64[cell_].fetch_add(n,
                                                std::memory_order_relaxed);
  }

  /// Current value merged across all live and retired thread shards.
  uint64_t Value() const;

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  std::string name_;
  std::string help_;
  uint32_t cell_ = 0;
};

/// Last-write-wins instantaneous value (not sharded: sets are rare).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  std::string name_;
  std::string help_;
  std::atomic<double> value_{0.0};
};

/// Histogram over fixed exponential buckets chosen at registration:
/// finite upper bounds first_bound * growth^i for i in [0, bucket_count),
/// plus an implicit +Inf overflow bucket. Observe is wait-free (two
/// relaxed shard updates; the sum uses a CAS loop). A windowed histogram
/// (MetricsRegistry::GetWindowedHistogram) also counts each observation,
/// in the same bucket, into a rolling window under the window's mutex.
class Histogram {
 public:
  void Observe(double v) {
    const size_t bucket = Count(v);
    if (window_ != nullptr) {
      window_->Add(bucket, v, internal::WindowNowSeconds());
    }
  }

  /// Observe with the window's clock injected: `now_s` is seconds on the
  /// scale of WindowNowSeconds (tests use their own, consistently).
  void ObserveAt(double v, int64_t now_s) {
    const size_t bucket = Count(v);
    if (window_ != nullptr) window_->Add(bucket, v, now_s);
  }

  /// The window's stats over the last `horizon_seconds` as of `now_s`;
  /// all zero for a histogram registered without a window.
  WindowStats WindowStatsAt(int64_t horizon_seconds, int64_t now_s) const {
    return window_ != nullptr
               ? window_->StatsAt(bounds_, horizon_seconds, now_s)
               : WindowStats{};
  }

  /// Index of the bucket counting `v`: the first finite upper bound with
  /// v <= bound, or bounds().size() for the overflow bucket.
  size_t BucketFor(double v) const {
    size_t lo = 0;
    size_t hi = bounds_.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (v <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }

  const std::vector<double>& bounds() const { return bounds_; }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;

  /// Counts `v` in the calling thread's cells; returns its bucket. A
  /// histogram registered past the cell budget has no cells and counts
  /// nothing, so it reads as 0.
  size_t Count(double v) {
    const size_t bucket = BucketFor(v);
    if (first_cell_ == 0) return bucket;
    internal::MetricShard& shard = internal::LocalShard();
    shard.u64[first_cell_ + bucket].fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAddDouble(shard.f64[sum_cell_], v);
    return bucket;
  }

  std::string name_;
  std::string help_;
  std::vector<double> bounds_;  // finite upper bounds, ascending
  uint32_t first_cell_ = 0;     // bounds_.size() + 1 consecutive u64 cells
  uint32_t sum_cell_ = 0;       // one f64 cell
  std::unique_ptr<internal::WindowRing> window_;  // windowed kind only
};

/// Point-in-time merged view of every registered metric, safe to render
/// or diff after the fact. Rows are sorted by name.
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    std::string help;
    uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    std::string help;
    double value = 0.0;
  };
  struct HistogramRow {
    std::string name;
    std::string help;
    std::vector<double> bounds;    // finite upper bounds
    std::vector<uint64_t> counts;  // bounds.size() + 1, overflow last
    uint64_t total_count = 0;
    double sum = 0.0;
    // Windowed histograms only: stats at scrape time, one per
    // kWindowHorizons entry.
    std::vector<WindowStats> windows;
  };
  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
};

/// Process-wide metric registry. Registration is idempotent by name and
/// returns stable pointers; updates go through per-thread shards so the
/// hot path never takes a lock or shares a cache line between writer
/// threads. Scrape() merges all shards under the registry mutex.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Finds or creates; the first registration of a name fixes its help
  /// text, its buckets and whether it has a window (and that window's
  /// SLO threshold). Never returns nullptr (budget exhaustion falls back
  /// to a shared scratch cell and reports the metric as 0).
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          double first_bound, double growth,
                          int bucket_count);
  /// A histogram that also keeps a rolling window over its buckets (the
  /// /metrics/window view). An observation strictly above
  /// `slo_threshold` counts as an SLO violation; <= 0 turns that off.
  Histogram* GetWindowedHistogram(const std::string& name,
                                  const std::string& help,
                                  double first_bound, double growth,
                                  int bucket_count, double slo_threshold);

  MetricsSnapshot Scrape() const;

  /// Zeroes every metric value (definitions stay registered). Testing
  /// only — racy against concurrent writers.
  void ResetValuesForTest();

  /// Shard lifecycle, driven by the thread_local handle in metrics.cc —
  /// not for direct use. Adopt registers a fresh shard as live; Retire
  /// folds its cells into the retired totals and deletes it.
  internal::MetricShard* AdoptShard();
  void RetireShard(internal::MetricShard* shard);

 private:
  friend class Counter;

  MetricsRegistry() = default;

  Histogram* FindOrAddHistogram(const std::string& name,
                                const std::string& help, double first_bound,
                                double growth, int bucket_count,
                                bool windowed, double slo_threshold);
  void WarnBudgetLocked(const std::string& name) SOMR_REQUIRES(mu_);
  uint64_t SumU64Locked(uint32_t cell) const SOMR_REQUIRES(mu_);
  double SumF64Locked(uint32_t cell) const SOMR_REQUIRES(mu_);

  mutable std::mutex mu_;
  std::deque<Counter> counters_ SOMR_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ SOMR_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ SOMR_GUARDED_BY(mu_);
  std::vector<internal::MetricShard*> live_shards_ SOMR_GUARDED_BY(mu_);
  // Merged cells of exited threads. The cells are atomics, but the
  // struct is only reached under mu_ (retire fold + locked sums).
  internal::MetricShard retired_ SOMR_GUARDED_BY(mu_);
  uint32_t next_u64_cell_ SOMR_GUARDED_BY(mu_) = 1;  // cell 0 is the
                                                     // overflow sink
  uint32_t next_f64_cell_ SOMR_GUARDED_BY(mu_) = 1;
  bool budget_warning_emitted_ SOMR_GUARDED_BY(mu_) = false;
};

/// Prometheus-style text exposition of a snapshot.
std::string RenderMetricsText(const MetricsSnapshot& snapshot);

/// Single JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
std::string RenderMetricsJson(const MetricsSnapshot& snapshot);

/// The windowed histograms' stats: {"windows": {<name>: {"1m": {...},
/// "5m": {...}}}}, each horizon holding count, sum, p50, p95, p99 and
/// slo_violations (values in the histogram's unit).
std::string RenderWindowJson(const MetricsSnapshot& snapshot);

/// Scrapes the global registry and writes it to `path` — JSON when the
/// path ends in ".json", text exposition otherwise.
Status WriteMetricsFile(const std::string& path);

}  // namespace somr::obs
