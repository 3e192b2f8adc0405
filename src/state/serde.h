#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace somr::state {

/// Append-only little-endian binary encoder for the snapshot format.
/// Every multi-byte value is written byte-by-byte so the encoding is
/// identical on every platform (snapshots are durable artifacts).
class ByteWriter {
 public:
  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  /// IEEE-754 bit pattern; exact round trip for every double including
  /// NaN payloads.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  /// Length-prefixed byte string.
  void Str(std::string_view s) {
    U64(s.size());
    bytes_.append(s.data(), s.size());
  }

  /// Overwrites the eight bytes at `at` (a U64 written earlier): lets a
  /// section header carry the size and checksum of the payload that
  /// follows it without staging the payload in a second buffer.
  void PatchU64(size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_[at + static_cast<size_t>(i)] = static_cast<char>(v >> (8 * i));
    }
  }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

/// Bounds-checked decoder for ByteWriter output. Every accessor returns
/// ParseError instead of reading past the end, so truncated or corrupt
/// snapshots surface as Status, never as UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return Truncated("u8");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status U32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status U64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status I64(int64_t* out) {
    uint64_t v = 0;
    SOMR_RETURN_IF_ERROR(U64(&v));
    *out = static_cast<int64_t>(v);
    return Status::OK();
  }

  Status F64(double* out) {
    uint64_t v = 0;
    SOMR_RETURN_IF_ERROR(U64(&v));
    *out = std::bit_cast<double>(v);
    return Status::OK();
  }

  Status Str(std::string* out) {
    std::string_view view;
    SOMR_RETURN_IF_ERROR(StrView(&view));
    out->assign(view);
    return Status::OK();
  }

  /// Length-prefixed byte string as a view into the decoded bytes.
  Status StrView(std::string_view* out) {
    uint64_t len = 0;
    SOMR_RETURN_IF_ERROR(U64(&len));
    return Bytes(len, out);
  }

  /// Reads exactly `len` raw bytes as a view into the decoded bytes.
  Status Bytes(uint64_t len, std::string_view* out) {
    if (len > remaining()) return Truncated("byte payload");
    *out = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  /// Reads an element count and rejects values that could not possibly
  /// fit in the remaining bytes (`min_element_size` bytes each) — the
  /// guard that keeps corrupt counts from turning into huge allocations.
  Status Count(uint64_t* out, size_t min_element_size) {
    SOMR_RETURN_IF_ERROR(U64(out));
    if (min_element_size > 0 && *out > remaining() / min_element_size) {
      return Status::ParseError("snapshot corrupt: element count " +
                                std::to_string(*out) +
                                " exceeds remaining payload");
    }
    return Status::OK();
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Truncated(const char* what) {
    return Status::ParseError(std::string("snapshot truncated reading ") +
                              what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// One record container split into its required sections, as views into
/// the record bytes.
struct RecordSections {
  bool delta = false;  // "SOMRDELT" magic; false for "SOMRSNAP"
  uint64_t fingerprint = 0;
  std::string_view meta;
  std::string_view matcher;
  std::string_view history;
};

/// The one container reader, shared by the codec and the offline
/// validator: checks the magic, the format version, the section framing
/// and every section's checksum, skips unknown section tags and requires
/// META, MATCHER and HISTORY. Returns ParseError naming the first
/// violation. Comparing the fingerprint is left to the caller. Defined
/// in snapshot.cc.
Status ReadRecordSections(std::string_view record, RecordSections* out);

}  // namespace somr::state
