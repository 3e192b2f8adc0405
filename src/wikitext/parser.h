#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "wikitext/ast.h"

namespace somr::wikitext {

/// Parses a wikitext page into a flat block-level Document. The parser is
/// total: malformed markup degrades to Paragraph text, mirroring
/// MediaWiki's forgiving rendering. Handles `{| ... |}` tables (with
/// `|-` rows, `|`/`!` cells, `||`/`!!` inline cell separators, `|+`
/// captions, cell attributes), block-level `{{ ... }}` templates with
/// multi-line parameters, `*`/`#`/`;`/`:` lists, and `== ... ==` headings.
///
/// Equivalent to StripComments, SplitLines, SegmentBlocks and ParseBlock
/// on every block, in that order.
Document ParseWikitext(std::string_view input);

/// Parses only the parameter body of a template given its full source
/// (including the surrounding braces). Exposed for tests.
Template ParseTemplateSource(std::string_view source);

/// MediaWiki strips HTML comments before any other parsing; they can span
/// lines and may hide table or list markup. Returns `input` itself when it
/// holds no comment, otherwise the stripped text, written to `storage`.
/// An unterminated comment runs to the end of the input.
std::string_view StripComments(std::string_view input, std::string& storage);

/// Splits `text` into lines without their '\n', dropping one trailing
/// '\r' per line so \r\n dumps parse like \n ones. The views point into
/// `text`.
std::vector<std::string_view> SplitLines(std::string_view text);

enum class BlockKind { kHeading, kParagraph, kTable, kTemplate, kList };

/// One block-level element of a page: lines [begin, end).
struct Block {
  BlockKind kind = BlockKind::kParagraph;
  size_t begin = 0;
  size_t end = 0;
};

/// Splits a page's lines into its block-level elements, in source order.
/// Where a block ends can depend on the lines around it (a `{{` line
/// starts a block template only if its braces balance further down the
/// page), but what a block parses to does not: ParseBlock reads nothing
/// outside [begin, end).
std::vector<Block> SegmentBlocks(const std::vector<std::string_view>& lines);

/// Parses one block that SegmentBlocks found in `lines`.
Element ParseBlock(const std::vector<std::string_view>& lines,
                   const Block& block);

}  // namespace somr::wikitext
