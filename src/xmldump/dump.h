#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"

namespace somr::xmldump {

/// One revision of a page, as stored in a MediaWiki export dump.
struct Revision {
  int64_t id = 0;
  UnixSeconds timestamp = 0;
  std::string contributor;
  std::string comment;
  std::string text;  // wikitext (or HTML for archived general-web pages)
  std::string model = "wikitext";
};

/// One page with its full revision history, in chronological order.
struct PageHistory {
  std::string title;
  int64_t page_id = 0;
  int ns = 0;
  std::vector<Revision> revisions;
};

/// A full dump: a set of page histories.
struct Dump {
  std::string site_name = "somr-generated";
  std::vector<PageHistory> pages;
};

/// Parses a MediaWiki XML export. Unknown elements are skipped; pages
/// without revisions are kept (empty history). Returns ParseError for
/// structurally hopeless input: no <mediawiki> root, or a document that
/// ends inside a <page> (the error PageStreamReader gives the same bytes).
StatusOr<Dump> ReadDump(std::string_view xml);

/// Serializes a dump back to MediaWiki XML export format.
std::string WriteDump(const Dump& dump);

/// Streaming variants for dumps too large to assemble in one string:
/// WriteDumpHeader + WritePage per page + WriteDumpFooter produce exactly
/// the output of WriteDump.
void WriteDumpHeader(const Dump& dump, std::ostream& out);
void WritePage(const PageHistory& page, std::ostream& out);
void WriteDumpFooter(std::ostream& out);

}  // namespace somr::xmldump
