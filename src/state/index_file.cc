#include "state/index_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "obs/log.h"
#include "state/file_io.h"

namespace somr::state {

namespace {

constexpr std::string_view kBaseField = " base=";
constexpr std::string_view kBlockTag = "#block ";
constexpr size_t kChecksumDigits = 16;

std::string BlockHeader(std::string_view rows) {
  char checksum[kChecksumDigits + 1];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(Fnv1a64(rows)));
  std::string header(kBlockTag);
  header += std::to_string(rows.size());
  header += ' ';
  header += checksum;
  header += '\n';
  return header;
}

/// Checks the block that starts at `at`. Returns the offset just past it
/// and sets `rows_begin`, or returns 0 when the block is torn or corrupt.
size_t ParseBlock(std::string_view data, size_t at, size_t* rows_begin) {
  const size_t eol = data.find('\n', at);
  if (eol == std::string_view::npos) return 0;
  std::string_view line = data.substr(at, eol - at);
  if (line.substr(0, kBlockTag.size()) != kBlockTag) return 0;
  line.remove_prefix(kBlockTag.size());
  const size_t space = line.find(' ');
  uint64_t length = 0, checksum = 0;
  if (space == std::string_view::npos ||
      !ParseInteger(line.substr(0, space), &length) ||
      line.size() - space - 1 != kChecksumDigits ||
      !ParseInteger(line.substr(space + 1), &checksum, 16)) {
    return 0;
  }
  const size_t begin = eol + 1;
  if (length == 0 || length > data.size() - begin) return 0;
  const std::string_view rows = data.substr(begin, length);
  if (rows.back() != '\n' || Fnv1a64(rows) != checksum) return 0;
  *rows_begin = begin;
  return begin + length;
}

/// Appends the rows of data[begin, end) to `rows`, the first on line
/// `line`; returns the line after the last.
size_t SplitRows(std::string_view data, size_t begin, size_t end,
                 bool in_block, size_t line,
                 std::vector<IndexFile::Row>* rows) {
  while (begin < end) {
    size_t eol = data.find('\n', begin);
    if (eol == std::string_view::npos || eol > end) eol = end;
    const std::string_view text = data.substr(begin, eol - begin);
    if (!text.empty() && text[0] != '#') {
      rows->push_back({text, in_block, line});
    }
    begin = eol + 1;
    ++line;
  }
  return line;
}

}  // namespace

std::string EscapeKey(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeKey(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '\\' && i + 1 < escaped.size()) {
      ++i;
      switch (escaped[i]) {
        case 't':
          out.push_back('\t');
          break;
        case 'n':
          out.push_back('\n');
          break;
        default:
          out.push_back(escaped[i]);
      }
    } else {
      out.push_back(escaped[i]);
    }
  }
  return out;
}

Status IndexFile::Contents::Locate(const Row& row,
                                   const Status& status) const {
  return Status(status.code(), path_ + ":" + std::to_string(row.line) +
                                   ": " + status.message());
}

IndexFile::IndexFile(std::string path) : path_(std::move(path)) {}

IndexFile::~IndexFile() { Close(); }

void IndexFile::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status IndexFile::Load(Contents* contents) {
  Close();
  rewrite_due_ = true;
  tail_dirty_ = false;
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) {
    return Status::NotFound("missing " + path_);
  }
  StatusOr<std::string> data = ReadFileToString(path_);
  if (!data.ok()) return data.status();

  contents->path_ = path_;
  contents->data_ = std::move(*data);
  contents->rows_.clear();
  const std::string_view d = contents->data_;
  const size_t eol = d.find('\n');
  const size_t header_end = eol == std::string_view::npos ? d.size() : eol + 1;
  std::string_view header = d.substr(0, std::min(eol, d.size()));
  const size_t field = header.rfind(kBaseField);
  uint64_t rows = 0;
  if (field == std::string_view::npos ||
      !ParseInteger(header.substr(field + kBaseField.size()), &rows) ||
      rows > d.size() - header_end) {
    return Status::ParseError(path_ + ":1: missing or bad base= field");
  }
  const size_t base_end = header_end + static_cast<size_t>(rows);
  contents->header_ = std::string(header.substr(0, field));
  size_t line = SplitRows(d, header_end, base_end, /*in_block=*/false, 2,
                          &contents->rows_);
  size_t end = base_end;
  while (end < d.size()) {
    size_t rows_begin = 0;
    const size_t next = ParseBlock(d, end, &rows_begin);
    if (next == 0) break;
    line = SplitRows(d, rows_begin, next, /*in_block=*/true, line + 1,
                     &contents->rows_);
    end = next;
  }

  fd_ = ::open(path_.c_str(), O_WRONLY);
  if (fd_ < 0) {
    return Status::Internal("cannot open " + path_ + " for appends: " +
                            std::strerror(errno));
  }
  if (end < d.size()) {
    SOMR_LOG(Warn) << path_ << ": dropping " << d.size() - end
                   << " bytes of a torn or corrupt final block";
    SOMR_RETURN_IF_ERROR(TruncateFile(fd_, end, path_));
  }
  base_end_ = base_end;
  end_ = end;
  rewrite_due_ = false;
  return Status::OK();
}

bool IndexFile::RewriteDue(std::string_view rows) const {
  if (rewrite_due_ || fd_ < 0) return true;
  const uint64_t block =
      rows.empty() ? 0
                   : kBlockTag.size() + std::to_string(rows.size()).size() +
                         1 + kChecksumDigits + 1 + rows.size();
  return end_ - base_end_ + block > base_end_;
}

Status IndexFile::Append(std::string_view rows) {
  if (rows.empty() || rows.back() != '\n') {
    return Status::InvalidArgument("a block of " + path_ +
                                   " must be whole rows");
  }
  if (fd_ < 0) return Status::Internal(path_ + " is not open for appends");
  if (tail_dirty_) {
    SOMR_RETURN_IF_ERROR(TruncateFile(fd_, end_, path_));
    tail_dirty_ = false;
  }
  std::string block = BlockHeader(rows);
  block.append(rows);
  tail_dirty_ = true;
  SOMR_RETURN_IF_ERROR(PWriteAll(fd_, end_, block));
  SOMR_RETURN_IF_ERROR(SyncData(fd_, path_));
  tail_dirty_ = false;
  end_ += block.size();
  return Status::OK();
}

Status IndexFile::Rewrite(std::string_view header, std::string_view rows) {
  rewrite_due_ = true;  // until the new file is in place and open
  Close();
  std::string content(header);
  content += kBaseField;
  content += std::to_string(rows.size());
  content += '\n';
  content.append(rows);
  SOMR_RETURN_IF_ERROR(AtomicWriteDurable(path_, content));
  fd_ = ::open(path_.c_str(), O_WRONLY);
  if (fd_ < 0) {
    return Status::Internal("cannot reopen " + path_ + ": " +
                            std::strerror(errno));
  }
  base_end_ = end_ = content.size();
  tail_dirty_ = false;
  rewrite_due_ = false;
  return Status::OK();
}

IndexFileStats IndexFile::stats() const {
  IndexFileStats stats;
  stats.base_bytes = base_end_;
  stats.block_bytes = end_ - base_end_;
  return stats;
}

}  // namespace somr::state
