#include "state/record_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "state/file_io.h"
#include "state/serde.h"

namespace somr::state {

namespace fs = std::filesystem;

namespace {

struct RecordLogMetrics {
  obs::Counter* commits;
  obs::Counter* appended_bytes;
  obs::Counter* compactions;
  obs::Counter* reclaimed_bytes;
  obs::Counter* tail_recovered_bytes;
  obs::Counter* index_rewrites;
};

const RecordLogMetrics& GetRecordLogMetrics() {
  static const RecordLogMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    RecordLogMetrics m;
    m.commits = reg.GetCounter("somr_recordlog_commits_total",
                               "Durable record-log index commits");
    m.appended_bytes =
        reg.GetCounter("somr_recordlog_appended_bytes_total",
                       "Record frame bytes appended to shard files");
    m.compactions = reg.GetCounter("somr_recordlog_compactions_total",
                                   "Completed shard compaction passes");
    m.reclaimed_bytes =
        reg.GetCounter("somr_recordlog_reclaimed_bytes_total",
                       "Superseded bytes dropped by shard compaction");
    m.tail_recovered_bytes = reg.GetCounter(
        "somr_recordlog_tail_recovered_bytes_total",
        "Uncommitted/torn shard tail bytes dropped during recovery");
    m.index_rewrites = reg.GetCounter(
        "somr_recordlog_index_rewrites_total",
        "Whole rewrites of records.idx (create, compaction swap, blocks "
        "outgrowing the base)");
    return m;
  }();
  return metrics;
}

constexpr char kFrameMagic[4] = {'S', 'R', 'L', 'F'};
constexpr const char* kIndexName = "records.idx";
// v2: chain rows carry the owner's row, and the header its config tag.
constexpr const char* kIndexHeader = "# somr-record-log v2";
// magic + kind byte + key length prefix + payload length + checksum.
constexpr uint64_t kFrameFixedBytes = 4 + 1 + 8 + 8 + 8;

std::string EncodeFrame(const std::string& key, RecordKind kind,
                        std::string_view payload) {
  ByteWriter w;
  for (char c : kFrameMagic) w.U8(static_cast<uint8_t>(c));
  w.U8(static_cast<uint8_t>(kind));
  w.Str(key);
  w.U64(payload.size());
  w.U64(Fnv1a64(payload));
  std::string frame = w.Take();
  frame.append(payload.data(), payload.size());
  return frame;
}

/// Decodes one frame from `data` starting at `at`. On success fills the
/// outputs (any may be null) and returns the frame length; returns 0 for
/// anything invalid or incomplete — the caller treats that as a torn
/// tail, not an error.
uint64_t DecodeFrame(std::string_view data, uint64_t at, std::string* key,
                     RecordKind* kind, std::string* payload) {
  if (at > data.size() || data.size() - at < kFrameFixedBytes) return 0;
  ByteReader r(data.substr(static_cast<size_t>(at)));
  for (char expected : kFrameMagic) {
    uint8_t byte = 0;
    if (!r.U8(&byte).ok() || byte != static_cast<uint8_t>(expected)) {
      return 0;
    }
  }
  uint8_t kind_byte = 0;
  if (!r.U8(&kind_byte).ok()) return 0;
  if (kind_byte != static_cast<uint8_t>(RecordKind::kFull) &&
      kind_byte != static_cast<uint8_t>(RecordKind::kDelta)) {
    return 0;
  }
  std::string frame_key;
  if (!r.Str(&frame_key).ok()) return 0;
  uint64_t payload_len = 0, checksum = 0;
  if (!r.U64(&payload_len).ok() || !r.U64(&checksum).ok()) return 0;
  std::string_view frame_payload;
  if (!r.Bytes(payload_len, &frame_payload).ok()) return 0;
  if (Fnv1a64(frame_payload) != checksum) return 0;
  const uint64_t frame_len = kFrameFixedBytes + frame_key.size() + payload_len;
  if (key != nullptr) *key = std::move(frame_key);
  if (kind != nullptr) *kind = static_cast<RecordKind>(kind_byte);
  if (payload != nullptr) payload->assign(frame_payload);
  return frame_len;
}

/// The value of the space-separated `name=` field of `header`, parsed
/// in `base`; false when it is absent or malformed.
bool HeaderField(std::string_view header, std::string_view name, int base,
                 uint64_t* out) {
  for (std::string_view field : SplitString(header, ' ')) {
    if (field.size() <= name.size() || field.substr(0, name.size()) != name ||
        field[name.size()] != '=') {
      continue;
    }
    return ParseInteger(field.substr(name.size() + 1), out, base);
  }
  return false;
}

/// "C <shard> <offset:length:kind,...> <owner row> <key>", tab-separated.
void AppendChainRow(const std::string& key,
                    const std::vector<RecordRef>& refs,
                    const std::string& row, std::string* out) {
  *out += "C\t";
  *out += std::to_string(refs.front().shard);
  *out += '\t';
  for (size_t i = 0; i < refs.size(); ++i) {
    const RecordRef& ref = refs[i];
    if (i > 0) *out += ',';
    *out += std::to_string(ref.offset);
    *out += ':';
    *out += std::to_string(ref.length);
    *out += ':';
    *out += std::to_string(static_cast<unsigned>(ref.kind));
  }
  *out += '\t';
  *out += EscapeKey(row);
  *out += '\t';
  *out += EscapeKey(key);
  *out += '\n';
}

/// Releases a shard's `compacting` flag on scope exit.
class CompactionClaim {
 public:
  explicit CompactionClaim(std::atomic_flag* flag) : flag_(flag) {}
  ~CompactionClaim() {
    if (flag_ != nullptr) flag_->clear(std::memory_order_release);
  }
  CompactionClaim(const CompactionClaim&) = delete;
  CompactionClaim& operator=(const CompactionClaim&) = delete;

 private:
  std::atomic_flag* flag_;
};

}  // namespace

RecordLog::RecordLog(std::string dir, Options options, uint64_t config)
    : dir_(std::move(dir)),
      options_(options),
      config_(config),
      index_((fs::path(dir_) / kIndexName).string()) {
  options_.shard_count = std::clamp<uint32_t>(options_.shard_count, 1,
                                              kMaxShards);
  if (options_.compact_ratio <= 0.0) options_.compact_ratio = 0.5;
}

RecordLog::~RecordLog() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& shard : shards_) {
    if (shard->fd >= 0) ::close(shard->fd);
  }
}

std::string RecordLog::ShardPath(uint32_t shard,
                                 uint64_t generation) const {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "records-%04u-g%06llu.rec", shard,
                static_cast<unsigned long long>(generation));
  return (fs::path(dir_) / buf).string();
}

Status RecordLog::OpenShardFile(uint32_t shard, bool truncate) {
  Shard& s = *shards_[shard];
  const std::string path = ShardPath(shard, s.generation);
  s.fd = ::open(path.c_str(), O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0),
                0644);
  if (s.fd < 0) return Status::Internal("cannot open shard file " + path);
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec) return Status::Internal("cannot stat shard file " + path);
  if (size < s.durable_size) {
    return Status::ParseError("shard file " + path + " is " +
                              std::to_string(size) +
                              " bytes, below its committed size " +
                              std::to_string(s.durable_size));
  }
  s.size = size;
  return Status::OK();
}

Status RecordLog::RecoverTailLocked(uint32_t shard) {
  Shard& s = *shards_[shard];
  if (s.size <= s.durable_size) return Status::OK();
  // Everything past the committed prefix was appended but never indexed
  // (a crash before Commit); no chain can reference it. Scan it anyway
  // so torn writes are distinguished from complete-but-uncommitted
  // frames in the log line, then drop the whole tail.
  const uint64_t tail_len = s.size - s.durable_size;
  std::string tail;
  SOMR_RETURN_IF_ERROR(PReadExact(s.fd, s.durable_size, tail_len, &tail));
  uint64_t at = 0;
  size_t complete_frames = 0;
  while (true) {
    const uint64_t frame = DecodeFrame(tail, at, nullptr, nullptr, nullptr);
    if (frame == 0) break;
    at += frame;
    ++complete_frames;
  }
  const uint64_t torn = tail_len - at;
  SOMR_LOG(Warn) << "record log shard " << shard << ": dropping "
                 << tail_len << " uncommitted tail bytes ("
                 << complete_frames << " complete frames, " << torn
                 << " torn bytes)";
  SOMR_RETURN_IF_ERROR(TruncateFile(s.fd, s.durable_size,
                                    "shard " + std::to_string(shard)));
  s.size = s.durable_size;
  s.tail_recovered = tail_len;
  GetRecordLogMetrics().tail_recovered_bytes->Increment(tail_len);
  return Status::OK();
}

Status RecordLog::ApplyIndexRowLocked(const IndexFile::Row& row) {
  const std::string_view line = row.text;
  std::vector<std::string_view> fields = SplitString(line, '\t');
  // Every number is a plain decimal digit run: no sign, no blank, no
  // value past its type.
  uint32_t shard = 0;
  const bool shard_ok = fields.size() > 1 && ParseInteger(fields[1], &shard) &&
                        shard < shards_.size();
  if (line[0] == 'S') {
    if (fields.size() != 6) {
      return Status::ParseError("shard row needs 6 fields");
    }
    uint64_t generation = 0, durable = 0, compactions = 0,
             last_compaction = 0;
    if (!shard_ok || !ParseInteger(fields[2], &generation) ||
        generation == 0 || !ParseInteger(fields[3], &durable) ||
        !ParseInteger(fields[4], &compactions) ||
        !ParseInteger(fields[5], &last_compaction) ||
        last_compaction > static_cast<uint64_t>(INT64_MAX)) {
      return Status::ParseError("bad shard row");
    }
    Shard& s = *shards_[shard];
    s.generation = generation;
    s.durable_size = durable;
    s.compactions = compactions;
    s.last_compaction_unix = static_cast<int64_t>(last_compaction);
    return Status::OK();
  }
  if (line[0] != 'C') return Status::ParseError("unknown row type");
  if (fields.size() != 5) {
    return Status::ParseError("chain row needs 5 fields");
  }
  if (!shard_ok) return Status::ParseError("bad chain shard");
  Chain chain;
  for (std::string_view part : SplitString(fields[2], ',')) {
    std::vector<std::string_view> ref_fields = SplitString(part, ':');
    RecordRef ref;
    ref.shard = shard;
    uint32_t kind = 0;
    if (ref_fields.size() != 3 || !ParseInteger(ref_fields[0], &ref.offset) ||
        !ParseInteger(ref_fields[1], &ref.length) ||
        !ParseInteger(ref_fields[2], &kind) ||
        (kind != static_cast<uint32_t>(RecordKind::kFull) &&
         kind != static_cast<uint32_t>(RecordKind::kDelta))) {
      return Status::ParseError("bad chain ref \"" + std::string(part) +
                                "\"");
    }
    ref.kind = static_cast<RecordKind>(kind);
    chain.refs.push_back(ref);
  }
  if (chain.refs.empty() || chain.refs.front().kind != RecordKind::kFull) {
    return Status::ParseError("chain must start with a full record");
  }
  chain.row = UnescapeKey(fields[3]);
  std::string key = UnescapeKey(fields[4]);
  if (row.in_block) {
    chains_[std::move(key)] = std::move(chain);
  } else if (!chains_.emplace(std::move(key), std::move(chain)).second) {
    return Status::ParseError("duplicate chain key");
  }
  return Status::OK();
}

Status RecordLog::LoadIndexLocked(const IndexFile::Contents& contents) {
  const std::string& header = contents.header();
  if (header.rfind(std::string(kIndexHeader) + ' ', 0) != 0) {
    return Status::ParseError(index_.path() +
                              ":1: not a record-log index of this version");
  }
  uint64_t shard_count = 0, config = 0;
  if (!HeaderField(header, "shards", 10, &shard_count) || shard_count == 0 ||
      shard_count > kMaxShards) {
    return Status::ParseError(index_.path() + ":1: bad shard count");
  }
  if (!HeaderField(header, "config", 16, &config)) {
    return Status::ParseError(index_.path() + ":1: bad config tag");
  }
  if (config != config_) {
    char tags[48];
    std::snprintf(tags, sizeof tags, "%016llx, not %016llx",
                  static_cast<unsigned long long>(config),
                  static_cast<unsigned long long>(config_));
    return Status::InvalidArgument("record log at " + dir_ +
                                   " was written under config " + tags +
                                   "; refusing to resume");
  }
  for (uint64_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Replay: a block's shard and chain rows replace the rows for the same
  // shard or key that came before them.
  for (const IndexFile::Row& row : contents.rows()) {
    Status status = ApplyIndexRowLocked(row);
    if (!status.ok()) return contents.Locate(row, status);
  }
  // Every final chain must lie in its shard's committed bytes, and no two
  // records may share a byte; what they cover is the shard's live bytes.
  struct Owned {
    const RecordRef* ref;
    const std::string* key;
  };
  std::vector<Owned> owned;
  for (const auto& [key, chain] : chains_) {
    for (const RecordRef& ref : chain.refs) {
      Shard& s = *shards_[ref.shard];
      if (ref.length > s.durable_size ||
          ref.offset > s.durable_size - ref.length) {
        return Status::ParseError(index_.path() + ": chain of \"" + key +
                                  "\" refers past the committed bytes of "
                                  "shard " +
                                  std::to_string(ref.shard));
      }
      s.live_bytes += ref.length;
      owned.push_back({&ref, &key});
    }
  }
  std::sort(owned.begin(), owned.end(), [](const Owned& a, const Owned& b) {
    return std::tie(a.ref->shard, a.ref->offset) <
           std::tie(b.ref->shard, b.ref->offset);
  });
  for (size_t i = 1; i < owned.size(); ++i) {
    const RecordRef& prev = *owned[i - 1].ref;
    const RecordRef& ref = *owned[i].ref;
    if (ref.shard == prev.shard && ref.offset < prev.offset + prev.length) {
      return Status::ParseError(
          index_.path() + ": chains of \"" + *owned[i - 1].key + "\" and \"" +
          *owned[i].key + "\" share bytes of shard " +
          std::to_string(ref.shard));
    }
  }
  return Status::OK();
}

std::string RecordLog::IndexHeaderLocked() const {
  char config[24];
  std::snprintf(config, sizeof config, "%016llx",
                static_cast<unsigned long long>(config_));
  return std::string(kIndexHeader) + " shards=" +
         std::to_string(shards_.size()) + " config=" + config;
}

void RecordLog::RenderShardRowLocked(size_t shard, std::string* out) const {
  const Shard& s = *shards_[shard];
  *out += "S\t";
  *out += std::to_string(shard);
  *out += '\t';
  *out += std::to_string(s.generation);
  *out += '\t';
  *out += std::to_string(s.size);  // durable after the commit fsyncs
  *out += '\t';
  *out += std::to_string(s.compactions);
  *out += '\t';
  *out += std::to_string(s.last_compaction_unix);
  *out += '\n';
}

std::string RecordLog::RenderIndexLocked() const {
  std::string out;
  for (size_t i = 0; i < shards_.size(); ++i) RenderShardRowLocked(i, &out);
  std::vector<const std::pair<const std::string, Chain>*> rows;
  rows.reserve(chains_.size());
  for (const auto& entry : chains_) rows.push_back(&entry);
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* row : rows) {
    AppendChainRow(row->first, row->second.refs, row->second.row, &out);
  }
  return out;
}

void RecordLog::RemoveStaleGenerationsLocked() {
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned shard = 0;
    unsigned long long generation = 0;
    if (std::sscanf(name.c_str(), "records-%4u-g%6llu.rec", &shard,
                    &generation) != 2 ||
        name.size() != std::strlen("records-0000-g000000.rec")) {
      continue;
    }
    if (shard < shards_.size() &&
        generation == shards_[shard]->generation) {
      continue;
    }
    // A generation orphaned by a crash mid-compaction (either side of
    // the index commit) or a shard beyond the store's width.
    std::error_code remove_ec;
    fs::remove(entry.path(), remove_ec);
    SOMR_LOG(Warn) << "record log: removed stale shard file " << name;
  }
}

Status RecordLog::Open(bool create) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto& shard : shards_) {
    if (shard->fd >= 0) ::close(shard->fd);
  }
  shards_.clear();
  chains_.clear();
  pending_keys_.clear();
  open_ = false;

  IndexFile::Contents contents;
  Status loaded = index_.Load(&contents);
  if (loaded.code() == StatusCode::kNotFound) {
    if (!create) {
      return Status::NotFound("no record log at " + dir_ + " (missing " +
                              kIndexName + ")");
    }
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
      return Status::Internal("cannot create record-log dir " + dir_ +
                              ": " + ec.message());
    }
    for (uint32_t i = 0; i < options_.shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    RemoveStaleGenerationsLocked();  // leftovers from an unindexed store
    for (uint32_t i = 0; i < options_.shard_count; ++i) {
      // Truncate: with no index, any surviving generation-1 bytes are
      // unreferenced garbage from a crash before the first commit.
      SOMR_RETURN_IF_ERROR(OpenShardFile(i, /*truncate=*/true));
    }
    open_ = true;
    index_.RequireRewrite();
    return CommitLocked();
  }
  SOMR_RETURN_IF_ERROR(loaded);
  SOMR_RETURN_IF_ERROR(LoadIndexLocked(contents));
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    SOMR_RETURN_IF_ERROR(OpenShardFile(i, /*truncate=*/false));
    SOMR_RETURN_IF_ERROR(RecoverTailLocked(i));
  }
  RemoveStaleGenerationsLocked();
  open_ = true;
  return Status::OK();
}

StatusOr<RecordRef> RecordLog::Append(const std::string& key,
                                      RecordKind kind,
                                      std::string_view payload,
                                      std::string row) {
  const std::string frame = EncodeFrame(key, kind, payload);
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!open_) return Status::Internal("record log not opened");
  const uint32_t shard =
      static_cast<uint32_t>(Fnv1a64(key) % shards_.size());
  Shard& s = *shards_[shard];

  const bool start_chain = kind == RecordKind::kFull;
  if (!start_chain && chains_.find(key) == chains_.end()) {
    return Status::Internal("delta append for \"" + key +
                            "\" without an existing chain");
  }

  RecordRef ref;
  ref.shard = shard;
  ref.offset = s.size;
  ref.length = frame.size();
  ref.kind = kind;
  SOMR_RETURN_IF_ERROR(PWriteAll(s.fd, s.size, frame));
  s.size += frame.size();
  s.live_bytes += frame.size();
  GetRecordLogMetrics().appended_bytes->Increment(frame.size());

  pending_keys_.insert(key);
  Chain& chain = chains_[key];
  if (start_chain) {
    for (const RecordRef& old : chain.refs) {
      shards_[old.shard]->live_bytes -= old.length;
    }
    chain.refs.clear();
  }
  chain.refs.push_back(ref);
  chain.row = std::move(row);
  return ref;
}

StatusOr<std::vector<ChainRecord>> RecordLog::ReadChain(
    const std::string& key) const {
  // Shared lock across both the index lookup and the preads: a
  // compaction swap takes the unique lock, so the refs we hold always
  // point into the file the fds still name.
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!open_) return Status::Internal("record log not opened");
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    return Status::NotFound("no record chain for \"" + key + "\"");
  }
  std::vector<ChainRecord> out;
  out.reserve(it->second.refs.size());
  for (const RecordRef& ref : it->second.refs) {
    std::string frame;
    SOMR_RETURN_IF_ERROR(
        PReadExact(shards_[ref.shard]->fd, ref.offset, ref.length, &frame));
    std::string frame_key;
    ChainRecord record;
    const uint64_t decoded =
        DecodeFrame(frame, 0, &frame_key, &record.kind, &record.payload);
    if (decoded != ref.length || frame_key != key ||
        record.kind != ref.kind) {
      return Status::ParseError("record corrupt for \"" + key +
                                "\" (shard " + std::to_string(ref.shard) +
                                " offset " + std::to_string(ref.offset) +
                                ")");
    }
    out.push_back(std::move(record));
  }
  return out;
}

bool RecordLog::Contains(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return chains_.count(key) > 0;
}

ChainEntry RecordLog::MakeEntry(const std::string& key,
                                const Chain& chain) {
  ChainEntry entry;
  entry.key = key;
  entry.row = chain.row;
  entry.shard = chain.refs.front().shard;
  entry.depth = static_cast<uint32_t>(chain.refs.size());
  for (const RecordRef& ref : chain.refs) entry.bytes += ref.length;
  return entry;
}

std::optional<ChainEntry> RecordLog::Entry(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = chains_.find(key);
  if (it == chains_.end()) return std::nullopt;
  return MakeEntry(it->first, it->second);
}

std::vector<ChainEntry> RecordLog::Entries() const {
  std::vector<ChainEntry> out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(chains_.size());
    for (const auto& [key, chain] : chains_) {
      out.push_back(MakeEntry(key, chain));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ChainEntry& a, const ChainEntry& b) {
              return a.key < b.key;
            });
  return out;
}

Status RecordLog::CommitLocked() {
  SOMR_TRACE_SCOPE_CAT("state", "state/record_commit");
  // The block: every shard that moved, then the whole chain of every key
  // appended since the last commit. Shard rows come first so a replayed
  // chain never refers past its shard's committed size.
  std::string block;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    if (s.size == s.durable_size) continue;
    SOMR_RETURN_IF_ERROR(SyncData(s.fd, "shard " + std::to_string(i)));
    RenderShardRowLocked(i, &block);
  }
  std::vector<const std::string*> keys;
  keys.reserve(pending_keys_.size());
  for (const std::string& key : pending_keys_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) {
    const Chain& chain = chains_.at(*key);
    AppendChainRow(*key, chain.refs, chain.row, &block);
  }
  if (index_.RewriteDue(block)) {
    SOMR_RETURN_IF_ERROR(
        index_.Rewrite(IndexHeaderLocked(), RenderIndexLocked()));
    GetRecordLogMetrics().index_rewrites->Increment();
  } else if (!block.empty()) {
    SOMR_RETURN_IF_ERROR(index_.Append(block));
  }
  for (auto& shard : shards_) shard->durable_size = shard->size;
  pending_keys_.clear();
  GetRecordLogMetrics().commits->Increment();
  return Status::OK();
}

Status RecordLog::Commit() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!open_) return Status::Internal("record log not opened");
  return CommitLocked();
}

std::vector<uint32_t> RecordLog::ShardsNeedingCompaction() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<uint32_t> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const uint64_t superseded = s.size - s.live_bytes;
    if (superseded >= options_.compact_min_bytes &&
        static_cast<double>(superseded) >
            options_.compact_ratio * static_cast<double>(s.size)) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

StatusOr<bool> RecordLog::Compact(uint32_t shard) {
  SOMR_TRACE_SCOPE_CAT("state", "state/compact_shard");
  Shard* s = nullptr;
  uint64_t base_size = 0, old_generation = 0;
  int old_fd = -1;
  std::vector<std::pair<uint64_t, uint64_t>> live;  // (offset, length)
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!open_) return Status::Internal("record log not opened");
    if (shard >= shards_.size()) {
      return Status::InvalidArgument("no shard " + std::to_string(shard));
    }
    s = shards_[shard].get();
    if (s->compacting.test_and_set(std::memory_order_acquire)) {
      return false;  // another compaction of this shard is running
    }
    base_size = s->size;
    old_generation = s->generation;
    old_fd = s->fd;
    for (const auto& [key, chain] : chains_) {
      if (chain.refs.front().shard != shard) continue;
      for (const RecordRef& ref : chain.refs) {
        live.emplace_back(ref.offset, ref.length);
      }
    }
  }
  CompactionClaim claim(&s->compacting);
  std::sort(live.begin(), live.end());

  // Bulk phase, no lock held: the snapshot region [0, base_size) is
  // immutable (appends only extend the file; only compaction replaces
  // it, and the claim flag excludes a second compactor), so these
  // preads race with nothing.
  const std::string old_path = ShardPath(shard, old_generation);
  const std::string new_path = ShardPath(shard, old_generation + 1);
  std::remove(new_path.c_str());
  int new_fd = ::open(new_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (new_fd < 0) {
    return Status::Internal("cannot create shard file " + new_path);
  }
  std::unordered_map<uint64_t, uint64_t> relocated;
  relocated.reserve(live.size());
  uint64_t out_offset = 0;
  for (const auto& [offset, length] : live) {
    std::string frame;
    Status status = PReadExact(old_fd, offset, length, &frame);
    if (status.ok() &&
        DecodeFrame(frame, 0, nullptr, nullptr, nullptr) != length) {
      status = Status::ParseError("record corrupt during compaction "
                                  "(shard " +
                                  std::to_string(shard) + " offset " +
                                  std::to_string(offset) + ")");
    }
    if (status.ok()) status = PWriteAll(new_fd, out_offset, frame);
    if (!status.ok()) {
      ::close(new_fd);
      std::remove(new_path.c_str());
      return status;
    }
    relocated.emplace(offset, out_offset);
    out_offset += length;
  }

  uint64_t reclaimed = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto abandon = [&](Status status) {
      ::close(new_fd);
      std::remove(new_path.c_str());
      return status;
    };
    // Catch-up: frames appended while we copied move over verbatim;
    // their offsets shift by a fixed amount.
    const uint64_t tail_base = out_offset;
    const uint64_t current_size = s->size;
    if (current_size > base_size) {
      std::string tail;
      Status status = PReadExact(old_fd, base_size,
                                 current_size - base_size, &tail);
      if (status.ok()) status = PWriteAll(new_fd, tail_base, tail);
      if (!status.ok()) return abandon(status);
      out_offset += current_size - base_size;
    }
    // Every ref of the shard and its offset in the new generation, found
    // before anything changes, so a failure leaves the shard as it was.
    std::vector<std::pair<RecordRef*, uint64_t>> moves;
    uint64_t live_bytes = 0;
    for (auto& [key, chain] : chains_) {
      for (RecordRef& ref : chain.refs) {
        if (ref.shard != shard) continue;
        uint64_t offset = 0;
        if (ref.offset >= base_size) {
          offset = tail_base + (ref.offset - base_size);
        } else {
          auto it = relocated.find(ref.offset);
          if (it == relocated.end()) {
            return abandon(Status::Internal(
                "compaction lost a live record for \"" + key + "\""));
          }
          offset = it->second;
        }
        moves.emplace_back(&ref, offset);
        live_bytes += ref.length;
      }
    }
    // The swap: refs, file and generation change together. The commit
    // below fdatasyncs the new generation (its size moved from the zero
    // durable size) and rewrites the index whole, since every chain of
    // the shard moved. If it fails, the shard goes on reading the new
    // file, the durable index keeps naming the old one (left on disk for
    // the next Open to remove), and the rewrite stays due for the next
    // commit.
    for (const auto& [ref, offset] : moves) ref->offset = offset;
    reclaimed = current_size - out_offset;
    ::close(s->fd);
    s->fd = new_fd;
    s->generation = old_generation + 1;
    s->size = out_offset;
    s->durable_size = 0;  // nothing of the new generation is indexed yet
    s->live_bytes = live_bytes;
    ++s->compactions;
    s->last_compaction_unix = static_cast<int64_t>(std::time(nullptr));
    index_.RequireRewrite();
    SOMR_RETURN_IF_ERROR(CommitLocked());
  }
  std::remove(old_path.c_str());
  const RecordLogMetrics& metrics = GetRecordLogMetrics();
  metrics.compactions->Increment();
  metrics.reclaimed_bytes->Increment(reclaimed);
  return true;
}

std::vector<ShardStats> RecordLog::Shards() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  std::vector<ShardStats> chained(shards_.size());
  for (const auto& [key, chain] : chains_) {
    ShardStats& of = chained[chain.refs.front().shard];
    ++of.chains;
    of.records += chain.refs.size();
    of.max_delta_depth =
        std::max<uint64_t>(of.max_delta_depth, chain.refs.size() - 1);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    ShardStats stats;
    stats.shard = static_cast<uint32_t>(i);
    stats.generation = s.generation;
    stats.size_bytes = s.size;
    stats.live_bytes = s.live_bytes;
    stats.superseded_bytes = s.size - s.live_bytes;
    stats.chains = chained[i].chains;
    stats.records = chained[i].records;
    stats.max_delta_depth = chained[i].max_delta_depth;
    stats.compactions = s.compactions;
    stats.last_compaction_unix = s.last_compaction_unix;
    stats.tail_recovered_bytes = s.tail_recovered;
    out.push_back(stats);
  }
  return out;
}

IndexFileStats RecordLog::IndexStats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return index_.stats();
}

uint32_t RecordLog::shard_count() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return static_cast<uint32_t>(shards_.empty() ? options_.shard_count
                                               : shards_.size());
}

}  // namespace somr::state
