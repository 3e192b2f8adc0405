#include "state/context_store.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"

namespace somr::state {

namespace fs = std::filesystem;

namespace {

struct SnapshotMetrics {
  obs::Counter* saves;
  obs::Counter* loads;
  obs::Counter* full_records;
  obs::Counter* delta_records;
  obs::Counter* delta_replays;
  obs::Histogram* snapshot_bytes;
  obs::Histogram* fault_seconds;
};

const SnapshotMetrics& GetSnapshotMetrics() {
  static const SnapshotMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    SnapshotMetrics m;
    m.saves = reg.GetCounter("somr_snapshot_saves_total",
                             "Page snapshots written to a context store");
    m.loads = reg.GetCounter("somr_snapshot_loads_total",
                             "Page snapshots loaded from a context store");
    m.full_records =
        reg.GetCounter("somr_state_full_records_total",
                       "Full snapshot records appended to the record log");
    m.delta_records =
        reg.GetCounter("somr_state_delta_records_total",
                       "Delta records appended to the record log");
    m.delta_replays =
        reg.GetCounter("somr_state_delta_replays_total",
                       "Delta records replayed while faulting contexts");
    m.snapshot_bytes = reg.GetHistogram(
        "somr_snapshot_bytes",
        "Serialized record payload bytes written per page save", 256.0,
        4.0, 12);
    m.fault_seconds = reg.GetHistogram(
        "somr_state_fault_seconds",
        "Context fault latency: record-chain read and replay", 1e-4, 4.0,
        12);
    return m;
  }();
  return metrics;
}

// Stores written before records.idx carried the page rows kept them in a
// manifest.tsv beside it. Its header line names the store's format, and
// so the reason this build cannot read it; every such store is refused
// and pointed at re-ingesting.
constexpr const char* kRetiredManifestName = "manifest.tsv";
struct RetiredManifest {
  const char* header;
  const char* reason;
};
constexpr RetiredManifest kRetiredManifests[] = {
    {"# somr-context-store v1",
     "uses the v1 one-file-per-page layout, which predates the record log"},
    {"# somr-context-store v2",
     "holds format-v3 snapshot records, which predate format v5"},
    {"# somr-context-store v3",
     "holds format-v4 snapshot records, which predate format v5"},
    {"# somr-context-store v4",
     "keeps its page rows in manifest.tsv, which predates the single "
     "records.idx index"},
};

Status RefuseRetiredStore(const std::string& dir) {
  const fs::path path = fs::path(dir) / kRetiredManifestName;
  std::error_code ec;
  if (!fs::exists(path, ec)) return Status::OK();
  std::string header;
  std::ifstream in(path);
  std::getline(in, header);
  const char* reason = "holds a manifest.tsv of an unknown format";
  for (const RetiredManifest& retired : kRetiredManifests) {
    if (header.rfind(retired.header, 0) == 0) reason = retired.reason;
  }
  return Status::InvalidArgument(
      "context store at " + dir + " " + reason +
      "; re-ingest its dumps into a fresh store to migrate (see DESIGN.md "
      "§15)");
}

// A page's row in its index entry: "<page id> <last revision id> <last
// timestamp> <revisions ingested>".
std::string PageRow(const core::PageState& state) {
  return std::to_string(state.page_id) + ' ' +
         std::to_string(state.last_revision_id) + ' ' +
         std::to_string(state.last_timestamp) + ' ' +
         std::to_string(state.revisions_ingested);
}

/// `info` from an index entry; false when the entry's page row is
/// malformed.
bool ParsePageEntry(const ChainEntry& entry, ContextStore::PageInfo* info) {
  const std::vector<std::string_view> fields = SplitString(entry.row, ' ');
  if (fields.size() != 4 || !ParseInteger(fields[0], &info->page_id) ||
      !ParseInteger(fields[1], &info->last_revision_id) ||
      !ParseInteger(fields[2], &info->last_timestamp) ||
      !ParseInteger(fields[3], &info->revisions_ingested)) {
    return false;
  }
  info->title = entry.key;
  info->shard = entry.shard;
  info->delta_depth = entry.depth - 1;
  info->chain_bytes = entry.bytes;
  return true;
}

}  // namespace

ContextStore::ContextStore(std::string dir, matching::MatcherConfig config,
                           StoreOptions options)
    : dir_(std::move(dir)),
      config_(config),
      options_(options),
      log_(dir_,
           RecordLog::Options{options.shard_count, options.compact_ratio,
                              options.compact_min_bytes},
           ConfigFingerprint(config)) {
  if (options_.full_snapshot_every == 0) options_.full_snapshot_every = 1;
}

ContextStore::~ContextStore() { WaitForCompactions(); }

Status ContextStore::Open(bool create) {
  std::lock_guard<std::mutex> lock(mu_);
  watermarks_.clear();
  open_ = false;
  SOMR_RETURN_IF_ERROR(RefuseRetiredStore(dir_));
  SOMR_RETURN_IF_ERROR(log_.Open(create));
  // Checked once here, so Lookup() and Pages() can trust every row.
  for (const ChainEntry& entry : log_.Entries()) {
    PageInfo info;
    if (!ParsePageEntry(entry, &info)) {
      return Status::ParseError(dir_ + "/records.idx: page \"" + entry.key +
                                "\" has a malformed row \"" + entry.row +
                                "\"");
    }
  }
  open_ = true;
  return Status::OK();
}

bool ContextStore::Contains(const std::string& title) const {
  return log_.Contains(title);
}

std::optional<ContextStore::PageInfo> ContextStore::Lookup(
    const std::string& title) const {
  std::optional<ChainEntry> entry = log_.Entry(title);
  PageInfo info;
  if (!entry.has_value() || !ParsePageEntry(*entry, &info)) {
    return std::nullopt;
  }
  return info;
}

std::vector<ContextStore::PageInfo> ContextStore::Pages() const {
  std::vector<PageInfo> out;
  for (const ChainEntry& entry : log_.Entries()) {
    PageInfo info;
    if (ParsePageEntry(entry, &info)) out.push_back(std::move(info));
  }
  return out;
}

StatusOr<core::PageState> ContextStore::Load(const std::string& title) const {
  SOMR_TRACE_SCOPE_CAT("state", "state/snapshot_load");
  const auto started = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::Internal("context store not opened");
  }
  StatusOr<std::vector<ChainRecord>> chain = log_.ReadChain(title);
  SOMR_RETURN_IF_ERROR(chain.status());
  std::vector<std::string_view> records;
  records.reserve(chain->size());
  for (const ChainRecord& record : *chain) records.push_back(record.payload);
  StatusOr<core::PageState> state = DecodePageChain(records, config_);
  SOMR_RETURN_IF_ERROR(state.status());
  GetSnapshotMetrics().delta_replays->Increment(records.size() - 1);
  if (state->title != title) {
    return Status::Internal("record chain holds page \"" + state->title +
                            "\", expected \"" + title + "\"");
  }
  {
    // The replayed state *is* the last persisted record: remember its
    // watermark so the next save of this page can be a delta.
    std::lock_guard<std::mutex> lock(mu_);
    watermarks_[title] = CaptureWatermark(*state);
  }
  const SnapshotMetrics& metrics = GetSnapshotMetrics();
  metrics.loads->Increment();
  metrics.fault_seconds->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count());
  return state;
}

Status ContextStore::Save(const core::PageState& state) {
  return SaveInternal(state, /*commit=*/true);
}

Status ContextStore::SaveUncommitted(const core::PageState& state) {
  return SaveInternal(state, /*commit=*/false);
}

Status ContextStore::SaveInternal(const core::PageState& state, bool commit) {
  SOMR_TRACE_SCOPE_CAT("state", "state/snapshot_save");

  // Decide the record kind: a delta needs a live watermark (this
  // process wrote or replayed the page's last record), room under the
  // chain cap, and a state that actually descends from the base.
  bool as_delta = false;
  SnapshotWatermark base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::Internal("context store not opened");
    auto mark = watermarks_.find(state.title);
    if (mark != watermarks_.end() && options_.full_snapshot_every > 1 &&
        mark->second.revisions_ingested <= state.revisions_ingested) {
      const std::optional<ChainEntry> chain = log_.Entry(state.title);
      as_delta = chain.has_value() &&
                 chain->depth < options_.full_snapshot_every;
      if (as_delta) base = mark->second;
    }
  }

  StatusOr<std::string> record =
      EncodePageRecord(state, as_delta ? &base : nullptr);
  if (as_delta && record.status().code() == StatusCode::kInvalidArgument) {
    // Not a descendant of the persisted base (e.g. the caller saved an
    // older copy): re-anchor with a full snapshot.
    as_delta = false;
    record = EncodePageRecord(state, nullptr);
  }
  SOMR_RETURN_IF_ERROR(record.status());

  SOMR_RETURN_IF_ERROR(
      log_.Append(state.title,
                  as_delta ? RecordKind::kDelta : RecordKind::kFull, *record,
                  PageRow(state))
          .status());
  {
    std::lock_guard<std::mutex> lock(mu_);
    watermarks_[state.title] = CaptureWatermark(state);
  }

  const SnapshotMetrics& metrics = GetSnapshotMetrics();
  metrics.saves->Increment();
  (as_delta ? metrics.delta_records : metrics.full_records)->Increment();
  metrics.snapshot_bytes->Observe(static_cast<double>(record->size()));
  return commit ? Commit() : Status::OK();
}

Status ContextStore::Commit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::Internal("context store not opened");
  }
  SOMR_RETURN_IF_ERROR(log_.Commit());
  ScheduleCompactions();
  return Status::OK();
}

Status ContextStore::CompactNow() {
  while (true) {
    std::vector<uint32_t> due = log_.ShardsNeedingCompaction();
    if (due.empty()) return Status::OK();
    for (uint32_t shard : due) {
      StatusOr<bool> compacted = log_.Compact(shard);
      SOMR_RETURN_IF_ERROR(compacted.status());
      if (!*compacted) return Status::OK();  // a background pass owns it
    }
  }
}

void ContextStore::ScheduleCompactions() {
  const std::vector<uint32_t> due = log_.ShardsNeedingCompaction();
  if (due.empty()) return;
  parallel::Executor* executor = nullptr;
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    executor = executor_;
    if (executor != nullptr) pending_compactions_ += due.size();
  }
  for (uint32_t shard : due) {
    if (executor == nullptr) {
      StatusOr<bool> compacted = log_.Compact(shard);
      if (!compacted.ok()) {
        SOMR_LOG(Error) << "shard " << shard << " compaction failed: "
                        << compacted.status().ToString();
      }
      continue;
    }
    executor->Submit([this, shard] {
      StatusOr<bool> compacted = log_.Compact(shard);
      if (!compacted.ok()) {
        SOMR_LOG(Error) << "shard " << shard << " compaction failed: "
                        << compacted.status().ToString();
      }
      std::lock_guard<std::mutex> lock(compaction_mu_);
      --pending_compactions_;
      compaction_cv_.notify_all();
    });
  }
}

void ContextStore::WaitForCompactions() {
  std::unique_lock<std::mutex> lock(compaction_mu_);
  compaction_cv_.wait(lock, [this] { return pending_compactions_ == 0; });
}

void ContextStore::set_executor(parallel::Executor* executor) {
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    executor_ = executor;
  }
  if (executor == nullptr) WaitForCompactions();
}

ContextStore::StoreStats ContextStore::Stats() const {
  StoreStats stats;
  stats.shards = log_.Shards();
  stats.index = log_.IndexStats();
  for (const ShardStats& shard : stats.shards) {
    stats.size_bytes += shard.size_bytes;
    stats.live_bytes += shard.live_bytes;
    stats.superseded_bytes += shard.superseded_bytes;
    stats.contexts += shard.chains;
    stats.max_delta_depth =
        std::max(stats.max_delta_depth, shard.max_delta_depth);
  }
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    stats.pending_compactions = pending_compactions_;
  }
  return stats;
}

std::string ContextStore::StatsJson() const {
  const StoreStats stats = Stats();
  std::string out = "{";
  out += "\"shard_count\": " + std::to_string(stats.shards.size());
  out += ", \"contexts\": " + std::to_string(stats.contexts);
  out += ", \"size_bytes\": " + std::to_string(stats.size_bytes);
  out += ", \"live_bytes\": " + std::to_string(stats.live_bytes);
  out += ", \"superseded_bytes\": " +
         std::to_string(stats.superseded_bytes);
  out += ", \"max_delta_depth\": " +
         std::to_string(stats.max_delta_depth);
  out += ", \"pending_compactions\": " +
         std::to_string(stats.pending_compactions);
  out += ", \"index\": {\"base_bytes\": " +
         std::to_string(stats.index.base_bytes) + ", \"block_bytes\": " +
         std::to_string(stats.index.block_bytes) + "}";
  out += ", \"shards\": [";
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardStats& s = stats.shards[i];
    if (i > 0) out += ", ";
    out += "{\"shard\": " + std::to_string(s.shard);
    out += ", \"generation\": " + std::to_string(s.generation);
    out += ", \"size_bytes\": " + std::to_string(s.size_bytes);
    out += ", \"live_bytes\": " + std::to_string(s.live_bytes);
    out += ", \"superseded_bytes\": " +
           std::to_string(s.superseded_bytes);
    out += ", \"records\": " + std::to_string(s.records);
    out += ", \"compactions\": " + std::to_string(s.compactions);
    out += ", \"last_compaction_unix\": " +
           std::to_string(s.last_compaction_unix);
    out += ", \"tail_recovered_bytes\": " +
           std::to_string(s.tail_recovered_bytes);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace somr::state
