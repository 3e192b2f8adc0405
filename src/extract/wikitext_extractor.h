#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "extract/object.h"
#include "wikitext/ast.h"
#include "wikitext/parser.h"

namespace somr::extract {

/// Extracts the structured objects of a parsed wikitext document:
/// `{| ... |}` tables, `{{Infobox ...}}` templates, and item lists. Cell
/// contents are reduced to plain text (links resolved, formatting
/// stripped); section paths follow the `==` heading hierarchy; position
/// ranks are assigned per object type in source order.
PageObjects ExtractFromWikitext(const wikitext::Document& doc);

/// Parse + extract of a single revision: the first revision of a new
/// WikitextHistory, which is dropped on return.
PageObjects ExtractFromWikitextSource(std::string_view source);

/// Extracts one page's wikitext revisions in order, parsing only the
/// object elements (tables, block templates, lists) that changed since
/// the previous revision. Consecutive revisions usually differ by one
/// edit, so most elements reappear byte for byte; each such element's
/// instance is copied from the previous revision, with its section path
/// and position re-derived, instead of being parsed and extracted again.
///
/// Exact: Next(text) returns what ExtractFromWikitext(ParseWikitext(text))
/// does.
/// Every revision is segmented in full, and an element's instance depends
/// only on its own source lines (see wikitext::SegmentBlocks), so equal
/// bytes give an equal instance. Between calls the history holds the last
/// revision's text and object elements, nothing older.
///
/// Each call adds its element counts to
/// `somr_extract_elements_reused_total` and
/// `somr_extract_elements_parsed_total`.
class WikitextHistory {
 public:
  PageObjects Next(std::string_view revision_text);

 private:
  /// One object element of a revision: where its source lies in the
  /// revision text, and what it extracts to (nothing for a template that
  /// is no infobox).
  struct ObjectElement {
    size_t offset = 0;
    size_t size = 0;
    wikitext::BlockKind kind = wikitext::BlockKind::kTable;
    std::optional<ObjectInstance> object;
  };

  /// The object elements of one revision, each distinct source once.
  struct Revision {
    std::string text;  // comments stripped
    std::vector<ObjectElement> elements;
    // Source hash -> the first element with that hash.
    std::unordered_map<size_t, uint32_t> by_hash;

    /// The slot of the element of `kind` whose source is `source`
    /// (`hash` is its hash), if this revision indexed one.
    std::optional<uint32_t> Find(size_t hash, wikitext::BlockKind kind,
                                 std::string_view source) const;
  };

  Revision current_;  // the last revision extracted
};

}  // namespace somr::extract
