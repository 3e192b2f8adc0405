#include "wikitext/parser.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "common/string_util.h"

namespace somr::wikitext {

namespace {

bool IsListMarker(char c) {
  return c == '*' || c == '#' || c == ';' || c == ':';
}

/// Splits `body` on top-level `|`: pipes inside nested `{{...}}`,
/// `[[...]]`, or `{|...|}` do not split.
std::vector<std::string_view> SplitTopLevelPipes(std::string_view body) {
  std::vector<std::string_view> parts;
  int brace_depth = 0;
  int bracket_depth = 0;
  size_t start = 0;
  for (size_t i = 0; i < body.size(); ++i) {
    if (i + 1 < body.size()) {
      if (body[i] == '{' && body[i + 1] == '{') {
        brace_depth++;
        ++i;
        continue;
      }
      if (body[i] == '}' && body[i + 1] == '}' && brace_depth > 0) {
        brace_depth--;
        ++i;
        continue;
      }
      if (body[i] == '[' && body[i + 1] == '[') {
        bracket_depth++;
        ++i;
        continue;
      }
      if (body[i] == ']' && body[i + 1] == ']' && bracket_depth > 0) {
        bracket_depth--;
        ++i;
        continue;
      }
    }
    if (body[i] == '|' && brace_depth == 0 && bracket_depth == 0) {
      parts.push_back(body.substr(start, i - start));
      start = i + 1;
    }
  }
  parts.push_back(body.substr(start));
  return parts;
}

/// Finds the end (index one past "}}") of a template starting at `pos`
/// (which must point at "{{"); npos if unbalanced.
size_t FindTemplateEnd(std::string_view s, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i + 1 < s.size() + 1; ++i) {
    if (i + 1 < s.size() && s[i] == '{' && s[i + 1] == '{') {
      depth++;
      ++i;
    } else if (i + 1 < s.size() && s[i] == '}' && s[i + 1] == '}') {
      depth--;
      ++i;
      if (depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

/// Parses the cells on a table content line. `header` selects `!!` vs `||`
/// as the in-line separator.
void ParseCellLine(std::string_view line, bool header, TableRow& row) {
  // Strip the leading '|' or '!'.
  line.remove_prefix(1);
  std::string_view sep = header ? "!!" : "||";
  std::vector<std::string_view> cells;
  size_t start = 0;
  int bracket_depth = 0;
  int brace_depth = 0;
  for (size_t i = 0; i + 1 < line.size() + 1; ++i) {
    if (i + 1 < line.size()) {
      if (line[i] == '[' && line[i + 1] == '[') bracket_depth++;
      if (line[i] == ']' && line[i + 1] == ']' && bracket_depth > 0) {
        bracket_depth--;
      }
      if (line[i] == '{' && line[i + 1] == '{') brace_depth++;
      if (line[i] == '}' && line[i + 1] == '}' && brace_depth > 0) {
        brace_depth--;
      }
      if (bracket_depth == 0 && brace_depth == 0 &&
          line.substr(i, 2) == sep) {
        cells.push_back(line.substr(start, i - start));
        start = i + 2;
        ++i;
      }
    }
  }
  cells.push_back(line.substr(start));

  for (std::string_view cell_src : cells) {
    TableCell cell;
    cell.header = header;
    // `attrs | content`: a single top-level pipe whose left side contains
    // '=' but no link separates attributes from content.
    size_t pipe = std::string_view::npos;
    int bd = 0, cd = 0;
    for (size_t i = 0; i < cell_src.size(); ++i) {
      if (i + 1 < cell_src.size()) {
        if (cell_src[i] == '[' && cell_src[i + 1] == '[') bd++;
        if (cell_src[i] == ']' && cell_src[i + 1] == ']' && bd > 0) bd--;
        if (cell_src[i] == '{' && cell_src[i + 1] == '{') cd++;
        if (cell_src[i] == '}' && cell_src[i + 1] == '}' && cd > 0) cd--;
      }
      if (cell_src[i] == '|' && bd == 0 && cd == 0) {
        pipe = i;
        break;
      }
    }
    if (pipe != std::string_view::npos) {
      std::string_view maybe_attrs = cell_src.substr(0, pipe);
      if (maybe_attrs.find('=') != std::string_view::npos &&
          maybe_attrs.find("[[") == std::string_view::npos) {
        cell.attrs = std::string(StripAsciiWhitespace(maybe_attrs));
        cell_src = cell_src.substr(pipe + 1);
      }
    }
    cell.content = std::string(StripAsciiWhitespace(cell_src));
    row.cells.push_back(std::move(cell));
  }
}

constexpr size_t kNoLine = static_cast<size_t>(-1);

/// The title of a `== Title ==` line (already trimmed), with its level in
/// `level`; an empty title when the line is no heading.
std::string_view HeadingTitle(std::string_view trimmed, int& level) {
  if (trimmed.size() < 5 || trimmed[0] != '=') return {};
  size_t n = 0;
  while (n < trimmed.size() && trimmed[n] == '=') ++n;
  if (n < 2 || n > 6) return {};
  size_t end = trimmed.size();
  size_t tail = 0;
  while (end > 0 && trimmed[end - 1] == '=') {
    --end;
    ++tail;
  }
  if (tail != n || end <= n) return {};
  level = static_cast<int>(n);
  return StripAsciiWhitespace(trimmed.substr(n, end - n));
}

/// One past the closing `|}` line of the table opening at `begin` (nested
/// tables skipped), or the end of the page when it is never closed.
size_t TableEnd(const std::vector<std::string_view>& lines, size_t begin) {
  int nested_depth = 0;
  for (size_t pos = begin + 1; pos < lines.size(); ++pos) {
    std::string_view line = StripAsciiWhitespace(lines[pos]);
    if (nested_depth > 0) {
      if (line.substr(0, 2) == "{|") nested_depth++;
      if (line == "|}") nested_depth--;
    } else if (line.substr(0, 2) == "{|") {
      nested_depth = 1;
    } else if (line == "|}") {
      return pos + 1;
    }
  }
  return lines.size();
}

/// `{{` minus `}}` in one line, each pair consumed left to right.
int64_t BraceDelta(std::string_view line) {
  int64_t delta = 0;
  size_t i = std::min(line.find('{'), line.find('}'));
  for (; i != std::string_view::npos && i + 1 < line.size(); ++i) {
    if (line[i] == '{' && line[i + 1] == '{') {
      delta++;
      ++i;
    } else if (line[i] == '}' && line[i + 1] == '}') {
      delta--;
      ++i;
    }
  }
  return delta;
}

/// Where the `{{ }}` braces opened at a line balance, for SegmentBlocks,
/// which asks about lines in increasing order. With P the prefix sums of
/// the per-line deltas, braces opened at line b balance after line e - 1
/// for the least e > b with P[e] <= P[b]; one pass with a monotonic stack
/// of the lines not yet balanced finds e for every line it reads. The
/// pass restarts at a line it has not read (earlier lines are never asked
/// about again), so no line is read twice and a page costs linear time.
class TemplateEnds {
 public:
  explicit TemplateEnds(const std::vector<std::string_view>& lines)
      : lines_(lines) {}

  /// One past the line where the braces opened at line `begin` balance,
  /// or kNoLine when they never do on this page.
  size_t At(size_t begin) {
    if (ends_.empty()) ends_.assign(lines_.size(), kNoLine);
    if (begin >= next_) {
      open_.clear();
      next_ = begin;
    }
    while (ends_[begin] == kNoLine && next_ < lines_.size()) {
      open_.emplace_back(next_, sum_);
      sum_ += BraceDelta(lines_[next_++]);
      while (!open_.empty() && open_.back().second >= sum_) {
        ends_[open_.back().first] = next_;
        open_.pop_back();
      }
    }
    return ends_[begin];
  }

 private:
  const std::vector<std::string_view>& lines_;
  std::vector<size_t> ends_;  // by line; kNoLine while not known
  std::vector<std::pair<size_t, int64_t>> open_;  // (line, P at its start)
  size_t next_ = 0;  // the first line not read
  int64_t sum_ = 0;  // P[next_]
};

/// One past the last line of the run of list-item lines at `begin`.
size_t ListEnd(const std::vector<std::string_view>& lines, size_t begin) {
  size_t pos = begin;
  while (pos < lines.size()) {
    std::string_view line = StripAsciiWhitespace(lines[pos]);
    if (line.empty() || !IsListMarker(line[0])) break;
    ++pos;
  }
  return pos;
}

/// The block that starts at non-blank line `pos` (`trimmed` is that line
/// without surrounding whitespace); a one-line kParagraph block when the
/// line is paragraph text.
Block BlockAt(const std::vector<std::string_view>& lines, size_t pos,
              std::string_view trimmed, TemplateEnds& template_ends) {
  int level = 0;
  if (!HeadingTitle(trimmed, level).empty()) {
    return {BlockKind::kHeading, pos, pos + 1};
  }
  if (trimmed.substr(0, 2) == "{|") {
    return {BlockKind::kTable, pos, TableEnd(lines, pos)};
  }
  if (trimmed.substr(0, 2) == "{{") {
    // A block template only when its braces balance within the page; an
    // unbalanced `{{` line is paragraph text.
    const size_t end = template_ends.At(pos);
    if (end == kNoLine) return {BlockKind::kParagraph, pos, pos + 1};
    return {BlockKind::kTemplate, pos, end};
  }
  if (IsListMarker(trimmed[0])) {
    return {BlockKind::kList, pos, ListEnd(lines, pos)};
  }
  return {BlockKind::kParagraph, pos, pos + 1};
}

/// Lines [begin, end) joined with '\n'.
std::string JoinLines(const std::vector<std::string_view>& lines,
                      size_t begin, size_t end) {
  std::string joined;
  for (size_t pos = begin; pos < end; ++pos) {
    if (pos > begin) joined.push_back('\n');
    joined.append(lines[pos]);
  }
  return joined;
}

Table ParseTable(const std::vector<std::string_view>& lines, size_t begin,
                 size_t end) {
  Table table;
  std::string_view first = StripAsciiWhitespace(lines[begin]);
  table.attrs = std::string(StripAsciiWhitespace(first.substr(2)));
  bool have_row = false;
  int nested_depth = 0;
  std::string nested_src;

  auto current_row = [&]() -> TableRow& {
    if (!have_row) {
      table.rows.emplace_back();
      have_row = true;
    }
    return table.rows.back();
  };

  for (size_t pos = begin + 1; pos < end; ++pos) {
    std::string_view raw = lines[pos];
    std::string_view line = StripAsciiWhitespace(raw);

    if (nested_depth > 0) {
      // Inside a nested table: accumulate raw source into the last cell.
      nested_src.append(raw);
      nested_src.push_back('\n');
      if (line.substr(0, 2) == "{|") nested_depth++;
      if (line == "|}") {
        nested_depth--;
        if (nested_depth == 0) {
          TableRow& row = current_row();
          if (row.cells.empty()) row.cells.emplace_back();
          row.cells.back().content.append("\n").append(nested_src);
          nested_src.clear();
        }
      }
      continue;
    }

    // Blank lines inside a table are layout noise.
    if (line.empty()) continue;
    if (line.substr(0, 2) == "{|") {
      nested_depth = 1;
      nested_src.assign(raw);
      nested_src.push_back('\n');
      continue;
    }
    if (line == "|}") break;
    if (line.substr(0, 2) == "|+") {
      // `|+ attrs | Caption` carries attributes before a single pipe.
      std::string_view caption = StripAsciiWhitespace(line.substr(2));
      size_t pipe = caption.find('|');
      if (pipe != std::string_view::npos &&
          caption.substr(0, pipe).find('=') != std::string_view::npos &&
          caption.substr(0, pipe).find("[[") == std::string_view::npos) {
        caption = StripAsciiWhitespace(caption.substr(pipe + 1));
      }
      table.caption = std::string(caption);
      continue;
    }
    if (line.substr(0, 2) == "|-") {
      table.rows.emplace_back();
      table.rows.back().attrs =
          std::string(StripAsciiWhitespace(line.substr(2)));
      have_row = true;
      continue;
    }
    if (line[0] == '!') {
      ParseCellLine(line, /*header=*/true, current_row());
      continue;
    }
    if (line[0] == '|') {
      ParseCellLine(line, /*header=*/false, current_row());
      continue;
    }
    // Continuation of the previous cell's content.
    if (have_row && !table.rows.back().cells.empty()) {
      TableCell& cell = table.rows.back().cells.back();
      if (!cell.content.empty()) cell.content.push_back(' ');
      cell.content.append(line);
    }
  }
  // Drop a leading empty row created by cells before any |- marker when
  // the table begins directly with |-.
  while (!table.rows.empty() && table.rows.front().cells.empty() &&
         table.rows.size() > 1) {
    table.rows.erase(table.rows.begin());
  }
  return table;
}

List ParseList(const std::vector<std::string_view>& lines, size_t begin,
               size_t end) {
  List list;
  for (size_t pos = begin; pos < end; ++pos) {
    std::string_view line = StripAsciiWhitespace(lines[pos]);
    ListItem item;
    size_t level = 0;
    while (level < line.size() && IsListMarker(line[level])) ++level;
    item.markers = std::string(line.substr(0, level));
    item.content = std::string(StripAsciiWhitespace(line.substr(level)));
    list.items.push_back(std::move(item));
  }
  return list;
}

}  // namespace

Template ParseTemplateSource(std::string_view source) {
  Template tmpl;
  std::string_view s = StripAsciiWhitespace(source);
  if (s.substr(0, 2) == "{{") s.remove_prefix(2);
  size_t end = FindTemplateEnd(source, 0);
  if (end != std::string_view::npos) {
    // Strip the trailing braces relative to the trimmed view.
    if (s.size() >= 2 && s.substr(s.size() - 2) == "}}") {
      s.remove_suffix(2);
    }
  }
  std::vector<std::string_view> parts = SplitTopLevelPipes(s);
  if (parts.empty()) return tmpl;
  tmpl.name = std::string(StripAsciiWhitespace(parts[0]));
  int positional = 1;
  for (size_t i = 1; i < parts.size(); ++i) {
    std::string_view part = parts[i];
    size_t eq = part.find('=');
    // '=' inside a link or template does not make a named parameter.
    size_t link = part.find("[[");
    size_t brace = part.find("{{");
    bool named = eq != std::string_view::npos &&
                 (link == std::string_view::npos || eq < link) &&
                 (brace == std::string_view::npos || eq < brace);
    if (named) {
      tmpl.params.emplace_back(
          std::string(StripAsciiWhitespace(part.substr(0, eq))),
          std::string(StripAsciiWhitespace(part.substr(eq + 1))));
    } else {
      tmpl.params.emplace_back(std::to_string(positional++),
                               std::string(StripAsciiWhitespace(part)));
    }
  }
  return tmpl;
}

bool Template::IsInfobox() const {
  return name.size() >= 7 && EqualsIgnoreAsciiCase(
                                 std::string_view(name).substr(0, 7),
                                 "infobox");
}

const std::string& Template::Param(const std::string& key) const {
  static const std::string kEmpty;
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return kEmpty;
}

std::string_view StripComments(std::string_view input,
                               std::string& storage) {
  if (input.find("<!--") == std::string_view::npos) return input;
  storage.clear();
  storage.reserve(input.size());
  size_t pos = 0;
  while (pos < input.size()) {
    size_t open = input.find("<!--", pos);
    if (open == std::string_view::npos) {
      storage.append(input.substr(pos));
      break;
    }
    storage.append(input.substr(pos, open - pos));
    size_t close = input.find("-->", open + 4);
    if (close == std::string_view::npos) break;  // unterminated: drop
    pos = close + 3;
  }
  return storage;
}

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines = SplitString(text, '\n');
  for (std::string_view& line : lines) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  }
  return lines;
}

std::vector<Block> SegmentBlocks(const std::vector<std::string_view>& lines) {
  std::vector<Block> blocks;
  TemplateEnds template_ends(lines);
  // First line of the paragraph being gathered, or kNoLine.
  size_t paragraph = kNoLine;
  auto close_paragraph = [&](size_t end) {
    if (paragraph != kNoLine) {
      blocks.push_back({BlockKind::kParagraph, paragraph, end});
    }
    paragraph = kNoLine;
  };
  size_t pos = 0;
  while (pos < lines.size()) {
    std::string_view trimmed = StripAsciiWhitespace(lines[pos]);
    if (trimmed.empty()) {
      close_paragraph(pos);
      ++pos;
      continue;
    }
    const Block block = BlockAt(lines, pos, trimmed, template_ends);
    if (block.kind == BlockKind::kParagraph) {
      if (paragraph == kNoLine) paragraph = pos;
    } else {
      close_paragraph(pos);
      blocks.push_back(block);
    }
    pos = block.end;
  }
  close_paragraph(pos);
  return blocks;
}

Element ParseBlock(const std::vector<std::string_view>& lines,
                   const Block& block) {
  switch (block.kind) {
    case BlockKind::kHeading: {
      Heading heading;
      heading.title = std::string(HeadingTitle(
          StripAsciiWhitespace(lines[block.begin]), heading.level));
      return heading;
    }
    case BlockKind::kParagraph:
      return Paragraph{std::string(StripAsciiWhitespace(
          JoinLines(lines, block.begin, block.end)))};
    case BlockKind::kTable:
      return ParseTable(lines, block.begin, block.end);
    case BlockKind::kTemplate:
      return ParseTemplateSource(JoinLines(lines, block.begin, block.end));
    case BlockKind::kList:
      return ParseList(lines, block.begin, block.end);
  }
  std::abort();  // unreachable: all BlockKind values handled above
}

Document ParseWikitext(std::string_view input) {
  std::string storage;
  const std::vector<std::string_view> lines =
      SplitLines(StripComments(input, storage));
  Document doc;
  for (const Block& block : SegmentBlocks(lines)) {
    doc.elements.push_back(ParseBlock(lines, block));
  }
  return doc;
}

}  // namespace somr::wikitext
