#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"

namespace somr::obs {

namespace internal {

namespace {

/// Registers the thread's shard on construction and folds it into the
/// registry's retired totals on thread exit, so counts from short-lived
/// worker threads survive the threads themselves.
struct ShardHandle {
  ShardHandle() : shard(MetricsRegistry::Global().AdoptShard()) {}
  ~ShardHandle() { MetricsRegistry::Global().RetireShard(shard); }
  MetricShard* shard;
};

}  // namespace

MetricShard& LocalShard() {
  thread_local ShardHandle handle;
  return *handle.shard;
}

int64_t WindowNowSeconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WindowRing::WindowRing(size_t buckets, double growth, double slo_threshold)
    : buckets_(buckets),
      growth_(growth),
      slo_threshold_(slo_threshold),
      counts_(kWindowSlots * buckets, 0) {}

void WindowRing::Add(size_t bucket, double v, int64_t now_s) {
  const int64_t epoch = now_s / kWindowSlotSeconds;
  const size_t slot_index = static_cast<size_t>(epoch) % kWindowSlots;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t* counts = &counts_[slot_index * buckets_];
  Slot& slot = slots_[slot_index];
  if (slot.epoch != epoch) {
    // The slot last served an epoch a whole ring ago (or never).
    slot = Slot{};
    slot.epoch = epoch;
    std::fill(counts, counts + buckets_, uint64_t{0});
  }
  ++slot.count;
  slot.sum += v;
  if (slo_threshold_ > 0.0 && v > slo_threshold_) ++slot.slo_violations;
  ++counts[bucket];
}

WindowStats WindowRing::StatsAt(const std::vector<double>& bounds,
                                int64_t horizon_seconds,
                                int64_t now_s) const {
  const int64_t now_epoch = now_s / kWindowSlotSeconds;
  const int64_t epochs = std::clamp<int64_t>(
      (horizon_seconds + kWindowSlotSeconds - 1) / kWindowSlotSeconds, 1,
      static_cast<int64_t>(kWindowSlots));
  WindowStats stats;
  std::vector<uint64_t> merged(buckets_, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t back = 0; back < epochs; ++back) {
      const int64_t epoch = now_epoch - back;
      if (epoch < 0) break;
      const size_t slot_index = static_cast<size_t>(epoch) % kWindowSlots;
      const Slot& slot = slots_[slot_index];
      if (slot.epoch != epoch) continue;  // stale or never written
      stats.count += slot.count;
      stats.sum += slot.sum;
      stats.slo_violations += slot.slo_violations;
      for (size_t b = 0; b < buckets_; ++b) {
        merged[b] += counts_[slot_index * buckets_ + b];
      }
    }
  }
  if (stats.count == 0) return stats;
  // Rank of the target observation, then linear interpolation inside its
  // bucket: bucket 0 spans [0, bounds[0]], bucket b (bounds[b-1],
  // bounds[b]], and the overflow bucket is capped one growth step above
  // the last bound.
  const auto percentile = [&](double q) {
    const double target = q * static_cast<double>(stats.count);
    double cumulative = 0.0;
    for (size_t b = 0; b < buckets_; ++b) {
      const double lower = b == 0 ? 0.0 : bounds[b - 1];
      const double upper =
          b < bounds.size() ? bounds[b] : bounds.back() * growth_;
      const double in_bucket = static_cast<double>(merged[b]);
      if (in_bucket > 0.0 && cumulative + in_bucket >= target) {
        return lower + (target - cumulative) / in_bucket * (upper - lower);
      }
      cumulative += in_bucket;
    }
    return bounds.back() * growth_;  // unreachable when count > 0
  };
  stats.p50 = percentile(0.50);
  stats.p95 = percentile(0.95);
  stats.p99 = percentile(0.99);
  return stats;
}

void WindowRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) slot = Slot{};
  std::fill(counts_.begin(), counts_.end(), uint64_t{0});
}

}  // namespace internal

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked on purpose: metrics may be touched from thread destructors
  // that run during process teardown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

internal::MetricShard* MetricsRegistry::AdoptShard() {
  auto* shard = new internal::MetricShard();
  std::lock_guard<std::mutex> lock(mu_);
  live_shards_.push_back(shard);
  return shard;
}

void MetricsRegistry::RetireShard(internal::MetricShard* shard) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < internal::kMaxU64Cells; ++i) {
    uint64_t v = shard->u64[i].load(std::memory_order_relaxed);
    if (v != 0) retired_.u64[i].fetch_add(v, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < internal::kMaxF64Cells; ++i) {
    double v = shard->f64[i].load(std::memory_order_relaxed);
    if (v != 0.0) internal::AtomicAddDouble(retired_.f64[i], v);
  }
  live_shards_.erase(
      std::remove(live_shards_.begin(), live_shards_.end(), shard),
      live_shards_.end());
  delete shard;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) {
    if (c.name_ == name) return &c;
  }
  Counter c;
  c.name_ = name;
  c.help_ = help;
  if (next_u64_cell_ < internal::kMaxU64Cells) {
    c.cell_ = next_u64_cell_++;
  } else {
    WarnBudgetLocked(name);
    c.cell_ = 0;  // scratch sink
  }
  counters_.push_back(std::move(c));
  return &counters_.back();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Gauge& g : gauges_) {
    if (g.name_ == name) return &g;
  }
  gauges_.emplace_back();
  Gauge& g = gauges_.back();
  g.name_ = name;
  g.help_ = help;
  return &g;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         double first_bound, double growth,
                                         int bucket_count) {
  return FindOrAddHistogram(name, help, first_bound, growth, bucket_count,
                            /*windowed=*/false, 0.0);
}

Histogram* MetricsRegistry::GetWindowedHistogram(
    const std::string& name, const std::string& help, double first_bound,
    double growth, int bucket_count, double slo_threshold) {
  return FindOrAddHistogram(name, help, first_bound, growth, bucket_count,
                            /*windowed=*/true, slo_threshold);
}

Histogram* MetricsRegistry::FindOrAddHistogram(
    const std::string& name, const std::string& help, double first_bound,
    double growth, int bucket_count, bool windowed, double slo_threshold) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Histogram& h : histograms_) {
    if (h.name_ == name) return &h;
  }
  histograms_.emplace_back();
  Histogram& h = histograms_.back();
  h.name_ = name;
  h.help_ = help;
  if (bucket_count < 1) bucket_count = 1;
  if (!(first_bound > 0.0)) first_bound = 1.0;
  if (!(growth > 1.0)) growth = 2.0;
  h.bounds_.reserve(static_cast<size_t>(bucket_count));
  double bound = first_bound;
  for (int i = 0; i < bucket_count; ++i) {
    h.bounds_.push_back(bound);
    bound *= growth;
  }
  const uint32_t cells = static_cast<uint32_t>(bucket_count) + 1;
  const bool fits = next_u64_cell_ + cells <= internal::kMaxU64Cells &&
                    next_f64_cell_ < internal::kMaxF64Cells;
  if (fits) {
    h.first_cell_ = next_u64_cell_;
    next_u64_cell_ += cells;
    h.sum_cell_ = next_f64_cell_++;
  } else {
    WarnBudgetLocked(name);
    h.first_cell_ = 0;
    h.sum_cell_ = 0;
  }
  if (windowed && fits) {
    h.window_ =
        std::make_unique<internal::WindowRing>(cells, growth, slo_threshold);
  }
  return &h;
}

void MetricsRegistry::WarnBudgetLocked(const std::string& name) {
  if (budget_warning_emitted_) return;
  std::fprintf(stderr,
               "somr obs: metric cell budget exhausted at \"%s\"; further "
               "metrics read as 0\n",
               name.c_str());
  budget_warning_emitted_ = true;
}

uint64_t MetricsRegistry::SumU64Locked(uint32_t cell) const {
  if (cell == 0) return 0;  // scratch sink: metrics past the budget
  uint64_t total = retired_.u64[cell].load(std::memory_order_relaxed);
  for (const internal::MetricShard* shard : live_shards_) {
    total += shard->u64[cell].load(std::memory_order_relaxed);
  }
  return total;
}

double MetricsRegistry::SumF64Locked(uint32_t cell) const {
  if (cell == 0) return 0.0;
  double total = retired_.f64[cell].load(std::memory_order_relaxed);
  for (const internal::MetricShard* shard : live_shards_) {
    total += shard->f64[cell].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Counter::Value() const {
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mu_);
  return registry.SumU64Locked(cell_);
}

MetricsSnapshot MetricsRegistry::Scrape() const {
  MetricsSnapshot snapshot;
  const int64_t now_s = internal::WindowNowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  for (const Counter& c : counters_) {
    snapshot.counters.push_back({c.name_, c.help_, SumU64Locked(c.cell_)});
  }
  for (const Gauge& g : gauges_) {
    snapshot.gauges.push_back({g.name_, g.help_, g.Value()});
  }
  for (const Histogram& h : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = h.name_;
    row.help = h.help_;
    row.bounds = h.bounds_;
    row.counts.reserve(h.bounds_.size() + 1);
    for (size_t b = 0; b <= h.bounds_.size(); ++b) {
      uint64_t count =
          h.first_cell_ == 0
              ? 0
              : SumU64Locked(h.first_cell_ + static_cast<uint32_t>(b));
      row.counts.push_back(count);
      row.total_count += count;
    }
    row.sum = SumF64Locked(h.sum_cell_);
    if (h.window_ != nullptr) {
      for (const WindowHorizon& horizon : kWindowHorizons) {
        row.windows.push_back(h.WindowStatsAt(horizon.seconds, now_s));
      }
    }
    snapshot.histograms.push_back(std::move(row));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

void MetricsRegistry::ResetValuesForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  auto zero = [](internal::MetricShard& shard) {
    for (auto& cell : shard.u64) cell.store(0, std::memory_order_relaxed);
    for (auto& cell : shard.f64) cell.store(0.0, std::memory_order_relaxed);
  };
  zero(retired_);
  for (internal::MetricShard* shard : live_shards_) zero(*shard);
  for (Gauge& g : gauges_) g.value_.store(0.0, std::memory_order_relaxed);
  for (Histogram& h : histograms_) {
    if (h.window_ != nullptr) h.window_->Clear();
  }
}

namespace {

/// Shortest round-trippable formatting for bounds/sums in both exporters.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer a shorter form when it round-trips exactly.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  return buf;
}

/// The metric family a series belongs to: its name without labels. The
/// text format names only the family on # HELP and # TYPE lines.
std::string FamilyName(const std::string& series) {
  return series.substr(0, series.find('{'));
}

}  // namespace

std::string RenderMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[256];
  for (const auto& c : snapshot.counters) {
    out += "# HELP " + FamilyName(c.name) + " " + c.help + "\n";
    out += "# TYPE " + FamilyName(c.name) + " counter\n";
    std::snprintf(line, sizeof(line), "%s %" PRIu64 "\n", c.name.c_str(),
                  c.value);
    out += line;
  }
  for (const auto& g : snapshot.gauges) {
    out += "# HELP " + FamilyName(g.name) + " " + g.help + "\n";
    out += "# TYPE " + FamilyName(g.name) + " gauge\n";
    out += g.name + " " + FormatDouble(g.value) + "\n";
  }
  for (const auto& h : snapshot.histograms) {
    out += "# HELP " + h.name + " " + h.help + "\n";
    out += "# TYPE " + h.name + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.counts.size(); ++b) {
      cumulative += h.counts[b];
      std::string le =
          b < h.bounds.size() ? FormatDouble(h.bounds[b]) : "+Inf";
      std::snprintf(line, sizeof(line), "%s_bucket{le=\"%s\"} %" PRIu64 "\n",
                    h.name.c_str(), le.c_str(), cumulative);
      out += line;
    }
    out += h.name + "_sum " + FormatDouble(h.sum) + "\n";
    std::snprintf(line, sizeof(line), "%s_count %" PRIu64 "\n",
                  h.name.c_str(), h.total_count);
    out += line;
  }
  return out;
}

std::string RenderMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  char buf[128];
  bool first = true;
  for (const auto& c : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    std::snprintf(buf, sizeof(buf), "%" PRIu64, c.value);
    out += '"';
    out += JsonEscape(c.name);
    out += "\": ";
    out += buf;
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& g : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    out += '"';
    out += JsonEscape(g.name);
    out += "\": ";
    out += FormatDouble(g.value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& h : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    out += '"';
    out += JsonEscape(h.name);
    out += "\": {\"bounds\": [";
    for (size_t b = 0; b < h.bounds.size(); ++b) {
      if (b > 0) out += ", ";
      out += FormatDouble(h.bounds[b]);
    }
    out += "], \"counts\": [";
    for (size_t b = 0; b < h.counts.size(); ++b) {
      if (b > 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64, h.counts[b]);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "], \"count\": %" PRIu64 ", \"sum\": ",
                  h.total_count);
    out += buf;
    out += FormatDouble(h.sum) + "}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string RenderWindowJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"windows\": {";
  char buf[256];
  bool first = true;
  for (const auto& h : snapshot.histograms) {
    if (h.windows.empty()) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(h.name) + "\": {";
    for (size_t i = 0; i < h.windows.size(); ++i) {
      const WindowStats& w = h.windows[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"count\": %" PRIu64
                    ", \"sum\": %.6f, \"p50\": %.6f, \"p95\": %.6f, "
                    "\"p99\": %.6f, \"slo_violations\": %" PRIu64 "}",
                    i == 0 ? "" : ", ", kWindowHorizons[i].key, w.count,
                    w.sum, w.p50, w.p95, w.p99, w.slo_violations);
      out += buf;
    }
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

Status WriteMetricsFile(const std::string& path) {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Scrape();
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << (json ? RenderMetricsJson(snapshot) : RenderMetricsText(snapshot));
  out.flush();
  if (!out.good()) return Status::Internal("write to " + path + " failed");
  return Status::OK();
}

}  // namespace somr::obs
