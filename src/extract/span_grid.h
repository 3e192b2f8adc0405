#pragma once

#include <string>
#include <vector>

namespace somr::extract {

/// One cell as delivered by a parser, before grid expansion.
struct SpannedCell {
  std::string text;
  bool header = false;
  int colspan = 1;
  int rowspan = 1;
};

/// Expands rows of spanned cells into a rectangular-ish grid the way
/// browsers lay tables out: a cell with colspan=c occupies c columns of
/// its row; rowspan=r additionally occupies the same columns of the next
/// r-1 rows; spanned positions repeat the cell's text so that column
/// indices stay aligned across rows (the usual web-table normalization).
/// Also returns, per row, whether every originating cell was a header.
struct ExpandedGrid {
  std::vector<std::vector<std::string>> rows;
  std::vector<bool> all_header;
};

ExpandedGrid ExpandSpans(const std::vector<std::vector<SpannedCell>>& rows);

/// Parses a span attribute value ("2", "02", garbage -> 1). Values are
/// clamped to [1, 1000] as browsers do, however many digits they have.
int ParseSpanValue(const std::string& value);

}  // namespace somr::extract
