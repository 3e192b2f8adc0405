#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace somr::state {

/// Escapes tabs/newlines/backslashes so arbitrary keys survive a line-
/// and tab-delimited index file; UnescapeKey inverts it.
std::string EscapeKey(std::string_view key);
std::string UnescapeKey(std::string_view escaped);

/// Sizes of an IndexFile's two parts, for status reporting.
struct IndexFileStats {
  uint64_t base_bytes = 0;   // header line + base rows
  uint64_t block_bytes = 0;  // blocks appended since the last rewrite
};

/// The on-disk form of `records.idx`, the record log's index: a base,
/// then one appended block per commit since the base was written.
///
///   <header> base=<N>\n          N = bytes of base rows after this line
///   <N bytes of rows>
///   #block <L> <FNV-1a64 hex>\n   L = bytes of rows; the checksum is theirs
///   <L bytes of rows>
///
/// A row is one '\n'-terminated line. The owner gives rows their meaning;
/// a later row for a key replaces an earlier one, so a commit appends
/// only the rows that changed. Load() replays the base and
/// then every valid block. The first torn or corrupt block ends the
/// replay and is truncated away with everything after it, so the file
/// lands on its last complete commit.
///
/// Rewrite rule: the file is rewritten whole (AtomicWriteDurable) when it
/// is created, when its owner says its rows moved (RequireRewrite), and
/// when its blocks would outgrow its base. The last keeps a commit's cost
/// amortized O(rows changed) and the file under about twice its live
/// rows. A header without a `base=` field is a ParseError.
///
/// Not thread-safe: the owner serializes every call.
class IndexFile {
 public:
  /// One row: a line of the base or of a block, without its '\n'.
  struct Row {
    std::string_view text;
    bool in_block = false;
    size_t line = 0;  // 1-based line number in the file
  };

  /// What Load() read: the header line without its `base=` field, and the
  /// rows of the base and of every valid block. Rows view the Contents'
  /// own bytes, so it is neither copied nor moved.
  class Contents {
   public:
    Contents() = default;
    Contents(const Contents&) = delete;
    Contents& operator=(const Contents&) = delete;

    const std::string& header() const { return header_; }
    /// Base rows first, then each block's in file order; blank and '#'
    /// lines are left out.
    const std::vector<Row>& rows() const { return rows_; }
    /// `status` with the row's "path:line: " in front of its message.
    Status Locate(const Row& row, const Status& status) const;

   private:
    friend class IndexFile;
    std::string path_;
    std::string data_;
    std::string header_;
    std::vector<Row> rows_;
  };

  explicit IndexFile(std::string path);
  ~IndexFile();

  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;

  /// Reads the file into `contents` and opens it for appends, truncating
  /// a torn or corrupt tail. NotFound when the file does not exist.
  Status Load(Contents* contents);

  /// Whether committing `rows` must rewrite the file rather than append
  /// them: the rewrite rule above.
  bool RewriteDue(std::string_view rows) const;

  /// Appends `rows` as one block and fdatasyncs it. A failed append is
  /// cut off before the next one is written.
  Status Append(std::string_view rows);

  /// Replaces the file with `header`, its `base=` field and `rows` as the
  /// new base, then reopens it for appends.
  Status Rewrite(std::string_view header, std::string_view rows);

  /// Makes the next commit a Rewrite: the blocks can no longer describe
  /// the change (a compaction moved every chain of a shard).
  void RequireRewrite() { rewrite_due_ = true; }

  IndexFileStats stats() const;
  const std::string& path() const { return path_; }

 private:
  void Close();

  std::string path_;
  int fd_ = -1;
  uint64_t base_end_ = 0;  // offset of the first block
  uint64_t end_ = 0;       // end of the last complete block
  bool rewrite_due_ = true;
  bool tail_dirty_ = false;  // bytes past end_ may hold a failed append
};

}  // namespace somr::state
