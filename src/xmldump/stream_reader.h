#pragma once

#include <istream>
#include <optional>
#include <string>

#include "common/status.h"
#include "xmldump/dump.h"

namespace somr::xmldump {

/// Streaming reader for MediaWiki dumps that do not fit in memory: scans
/// the input stream for `<page> ... </page>` blocks and parses one page
/// history at a time. Only one page (not the whole dump) is ever held in
/// memory. Usage:
///
///   std::ifstream in("enwiki-history.xml");
///   PageStreamReader reader(in);
///   while (auto page = reader.NextPage()) {
///     Process(*page);
///   }
///   if (!reader.status().ok()) { ... }
class PageStreamReader {
 public:
  explicit PageStreamReader(std::istream& input) : input_(input) {}

  /// Returns the next page history, or std::nullopt at end of input.
  /// Check status() after nullopt to distinguish EOF from malformed
  /// input — including input that ends, or reaches its first `<page>`,
  /// without a `<mediawiki>` root (the error ReadDump gives it).
  std::optional<PageHistory> NextPage();

  const Status& status() const { return status_; }

  /// Pages returned so far.
  size_t pages_read() const { return pages_read_; }

 private:
  /// Fills the buffer until `marker` is found or EOF; returns the
  /// position of the marker in buffer_ or npos at EOF.
  size_t FindMarker(const std::string& marker, size_t start);

  std::istream& input_;
  std::string buffer_;
  Status status_;
  size_t pages_read_ = 0;
  bool root_seen_ = false;
  bool done_ = false;
};

}  // namespace somr::xmldump
