#include "state/context_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <utility>

#include "common/hash.h"
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

constexpr const char* kManifestName = "manifest.tsv";
// v4: records are snapshot format v5 (see kFormatVersion). Stores
// written under an older header hold records this build cannot read.
constexpr const char* kManifestHeader = "# somr-context-store v4";
// Headers of stores this build cannot read, each with the reason, so an
// old store is refused for its format and pointed at re-ingesting.
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
};

}  // namespace

ContextStore::ContextStore(std::string dir, matching::MatcherConfig config,
                           StoreOptions options)
    : dir_(std::move(dir)),
      config_(config),
      fingerprint_(ConfigFingerprint(config)),
      options_(options),
      log_(dir_, RecordLog::Options{options.shard_count,
                                    options.compact_ratio,
                                    options.compact_min_bytes}),
      manifest_((fs::path(dir_) / kManifestName).string()) {
  if (options_.full_snapshot_every == 0) options_.full_snapshot_every = 1;
}

ContextStore::~ContextStore() { WaitForCompactions(); }

Status ContextStore::Open(bool create) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  pages_.clear();
  watermarks_.clear();
  unwritten_.clear();
  manifest_stats_ = {};
  open_ = false;

  IndexFile::Contents manifest;
  Status loaded = manifest_.Load(&manifest);
  if (loaded.code() == StatusCode::kNotFound) {
    if (!create) {
      return Status::NotFound("no context store at " + dir_ +
                              " (missing " + kManifestName + ")");
    }
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
      return Status::Internal("cannot create state dir " + dir_ + ": " +
                              ec.message());
    }
    SOMR_RETURN_IF_ERROR(log_.Open(/*create=*/true));
    SOMR_RETURN_IF_ERROR(manifest_.Rewrite(ManifestHeader(), ""));
    manifest_stats_ = manifest_.stats();
    open_ = true;
    return Status::OK();
  }
  SOMR_RETURN_IF_ERROR(loaded);

  const std::string& header = manifest.header();
  for (const RetiredManifest& retired : kRetiredManifests) {
    if (header.rfind(retired.header, 0) == 0) {
      return Status::InvalidArgument(
          "context store at " + dir_ + " " + retired.reason +
          "; re-ingest its dumps into a fresh store to migrate (see "
          "DESIGN.md §15)");
    }
  }
  if (header.rfind(kManifestHeader, 0) != 0) {
    return Status::ParseError(manifest_.path() +
                              ": not a context-store manifest");
  }
  // Header carries the fingerprint: "# somr-context-store v4 config=<hex>".
  const std::string marker = "config=";
  size_t at = header.find(marker);
  if (at == std::string::npos) {
    return Status::ParseError(manifest_.path() +
                              ": missing config fingerprint");
  }
  uint64_t stored = 0;
  if (std::sscanf(header.c_str() + at + marker.size(), "%llx",
                  reinterpret_cast<unsigned long long*>(&stored)) != 1) {
    return Status::ParseError(manifest_.path() + ": bad config fingerprint");
  }
  if (stored != fingerprint_) {
    return Status::InvalidArgument(
        "context store at " + dir_ +
        " was built under a different MatcherConfig; refusing to resume");
  }

  SOMR_RETURN_IF_ERROR(log_.Open(/*create=*/false));

  // Replay: a block's row for a page replaces the page's earlier row.
  for (const IndexFile::Row& row : manifest.rows()) {
    std::vector<std::string_view> fields = SplitString(row.text, '\t');
    if (fields.size() != 5) {
      return manifest.Locate(
          row, Status::ParseError("expected 5 tab-separated fields"));
    }
    PageInfo info;
    try {
      info.page_id = std::stoll(std::string(fields[0]));
      info.last_revision_id = std::stoll(std::string(fields[1]));
      info.last_timestamp = std::stoll(std::string(fields[2]));
      info.revisions_ingested =
          static_cast<uint32_t>(std::stoul(std::string(fields[3])));
    } catch (const std::exception&) {
      return manifest.Locate(
          row, Status::ParseError("non-numeric manifest field"));
    }
    info.title = UnescapeKey(fields[4]);
    info.version = 1;
    const size_t depth = log_.ChainDepth(info.title);
    if (depth == 0) {
      return manifest.Locate(
          row, Status::ParseError("manifest row \"" + info.title +
                                  "\" has no record chain in the log"));
    }
    info.shard = log_.ShardFor(info.title);
    info.delta_depth = static_cast<uint32_t>(depth - 1);
    info.chain_bytes = log_.ChainBytes(info.title);
    pages_[info.title] = std::move(info);
  }
  manifest_stats_ = manifest_.stats();
  open_ = true;
  return Status::OK();
}

bool ContextStore::Contains(const std::string& title) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pages_.count(title) > 0;
}

std::optional<ContextStore::PageInfo> ContextStore::Lookup(
    const std::string& title) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pages_.find(title);
  if (it == pages_.end()) return std::nullopt;
  return it->second;
}

std::vector<ContextStore::PageInfo> ContextStore::Pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PageInfo> out;
  out.reserve(pages_.size());
  for (const auto& [title, info] : pages_) out.push_back(info);
  std::sort(out.begin(), out.end(),
            [](const PageInfo& a, const PageInfo& b) {
              return a.title < b.title;
            });
  return out;
}

StatusOr<core::PageState> ContextStore::Load(const std::string& title) const {
  SOMR_TRACE_SCOPE_CAT("state", "state/snapshot_load");
  const auto started = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::Internal("context store not opened");
    if (pages_.find(title) == pages_.end()) {
      return Status::NotFound("no context for page \"" + title + "\"");
    }
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
        log_.ChainDepth(state.title) <
            static_cast<size_t>(options_.full_snapshot_every) &&
        mark->second.revisions_ingested <= state.revisions_ingested) {
      as_delta = true;
      base = mark->second;
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

  PageInfo info;
  info.title = state.title;
  info.page_id = state.page_id;
  info.last_revision_id = state.last_revision_id;
  info.last_timestamp = state.last_timestamp;
  info.revisions_ingested = state.revisions_ingested;
  {
    // The append and the manifest entry land together, between commits,
    // so a commit covers every page it writes a manifest row for.
    std::lock_guard<std::mutex> write_lock(write_mu_);
    StatusOr<RecordRef> ref = log_.Append(
        state.title, as_delta ? RecordKind::kDelta : RecordKind::kFull,
        *record);
    SOMR_RETURN_IF_ERROR(ref.status());
    info.shard = ref->shard;
    std::lock_guard<std::mutex> lock(mu_);
    const size_t depth = log_.ChainDepth(state.title);
    info.delta_depth = depth == 0 ? 0 : static_cast<uint32_t>(depth - 1);
    info.chain_bytes = log_.ChainBytes(state.title);
    auto it = pages_.find(info.title);
    info.version = it == pages_.end() ? 1 : it->second.version + 1;
    pages_[info.title] = std::move(info);
    watermarks_[state.title] = CaptureWatermark(state);
    unwritten_.insert(state.title);
  }

  const SnapshotMetrics& metrics = GetSnapshotMetrics();
  metrics.saves->Increment();
  (as_delta ? metrics.delta_records : metrics.full_records)->Increment();
  metrics.snapshot_bytes->Observe(static_cast<double>(record->size()));
  return commit ? CommitInternal() : Status::OK();
}

Status ContextStore::Commit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return Status::Internal("context store not opened");
  }
  return CommitInternal();
}

Status ContextStore::CommitInternal() {
  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    // Records first, then the manifest: a crash in between leaves chains
    // that are a superset of the manifest (invisible but harmless), never
    // manifest rows pointing at missing records. Holding write_mu_ keeps
    // saves out until both are durable, so a commit that returns covers
    // every save that came before it.
    SOMR_RETURN_IF_ERROR(log_.Commit());
    // The block: the rows of the pages saved since the last commit.
    std::string block, base;
    bool rewrite = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<const PageInfo*> rows;
      rows.reserve(unwritten_.size());
      for (const std::string& title : unwritten_) {
        rows.push_back(&pages_.at(title));
      }
      block = RenderManifestRowsLocked(std::move(rows));
      rewrite = manifest_.RewriteDue(block);
      if (rewrite) {
        rows.clear();
        rows.reserve(pages_.size());
        for (const auto& [title, info] : pages_) rows.push_back(&info);
        base = RenderManifestRowsLocked(std::move(rows));
      }
    }
    Status written = Status::OK();
    if (rewrite) {
      written = manifest_.Rewrite(ManifestHeader(), base);
    } else if (!block.empty()) {
      written = manifest_.Append(block);
    }
    std::lock_guard<std::mutex> lock(mu_);
    manifest_stats_ = manifest_.stats();
    SOMR_RETURN_IF_ERROR(written);
    unwritten_.clear();
  }
  ScheduleCompactions();
  return Status::OK();
}

std::string ContextStore::ManifestHeader() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint_));
  return std::string(kManifestHeader) + " config=" + buf;
}

std::string ContextStore::RenderManifestRowsLocked(
    std::vector<const PageInfo*> rows) const {
  std::sort(rows.begin(), rows.end(),
            [](const PageInfo* a, const PageInfo* b) {
              return a->title < b->title;
            });
  std::string out;
  for (const PageInfo* row : rows) {
    const PageInfo& info = *row;
    out += std::to_string(info.page_id);
    out += '\t';
    out += std::to_string(info.last_revision_id);
    out += '\t';
    out += std::to_string(info.last_timestamp);
    out += '\t';
    out += std::to_string(info.revisions_ingested);
    out += '\t';
    out += EscapeKey(info.title);
    out += '\n';
  }
  return out;
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
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.manifest = manifest_stats_;
    stats.contexts = pages_.size();
    for (const auto& [title, info] : pages_) {
      stats.max_delta_depth =
          std::max<uint64_t>(stats.max_delta_depth, info.delta_depth);
    }
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
  out += ", \"manifest\": {\"base_bytes\": " +
         std::to_string(stats.manifest.base_bytes) + ", \"block_bytes\": " +
         std::to_string(stats.manifest.block_bytes) + "}";
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
