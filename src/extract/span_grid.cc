#include "extract/span_grid.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <system_error>

#include "common/string_util.h"

namespace somr::extract {

int ParseSpanValue(const std::string& value) {
  // atoi's syntax (leading whitespace, a sign, digits, anything after
  // ignored), but saturating: the value comes from outside input.
  std::string_view text = StripAsciiWhitespace(value);
  bool negative = false;
  if (!text.empty() && (text[0] == '+' || text[0] == '-')) {
    negative = text[0] == '-';
    text.remove_prefix(1);
  }
  unsigned parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error == std::errc::result_out_of_range) {
    parsed = 1000;
  } else if (error != std::errc()) {
    return 1;  // no digits
  }
  if (negative) return 1;
  return static_cast<int>(std::clamp(parsed, 1u, 1000u));
}

ExpandedGrid ExpandSpans(const std::vector<std::vector<SpannedCell>>& rows) {
  ExpandedGrid grid;
  // Pending rowspans: per column, (remaining rows, text) to inject.
  struct Pending {
    int remaining = 0;
    std::string text;
  };
  std::vector<Pending> pending;

  for (const auto& source_row : rows) {
    std::vector<std::string> row;
    bool all_header = !source_row.empty();
    size_t col = 0;
    auto fill_pending = [&]() {
      while (col < pending.size() && pending[col].remaining > 0) {
        row.push_back(pending[col].text);
        --pending[col].remaining;
        ++col;
      }
    };
    fill_pending();
    for (const SpannedCell& cell : source_row) {
      all_header = all_header && cell.header;
      for (int c = 0; c < cell.colspan; ++c) {
        if (col >= pending.size()) pending.resize(col + 1);
        row.push_back(cell.text);
        if (cell.rowspan > 1) {
          pending[col].remaining = cell.rowspan - 1;
          pending[col].text = cell.text;
        }
        ++col;
        fill_pending();
      }
    }
    grid.rows.push_back(std::move(row));
    grid.all_header.push_back(all_header);
  }
  return grid;
}

}  // namespace somr::extract
