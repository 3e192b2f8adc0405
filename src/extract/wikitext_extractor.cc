#include "extract/wikitext_extractor.h"

#include <functional>
#include <utility>

#include "extract/span_grid.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "wikitext/inline_markup.h"

namespace somr::extract {

namespace {

/// Maintains the stack of section titles as headings stream by.
class SectionTracker {
 public:
  void OnHeading(const wikitext::Heading& heading) {
    // A heading of level L replaces all sections of level >= L.
    while (!stack_.empty() && stack_.back().level >= heading.level) {
      stack_.pop_back();
    }
    stack_.push_back(
        {heading.level, wikitext::StripInlineMarkup(heading.title)});
  }

  std::vector<std::string> Path() const {
    std::vector<std::string> path;
    path.reserve(stack_.size());
    for (const auto& entry : stack_) path.push_back(entry.title);
    return path;
  }

 private:
  struct Entry {
    int level;
    std::string title;
  };
  std::vector<Entry> stack_;
};

/// Reads colspan/rowspan from a wikitext cell attribute string like
/// `colspan=2` or `rowspan="3" style="..."`.
int SpanFromAttrs(const std::string& attrs, const char* name) {
  size_t pos = attrs.find(name);
  if (pos == std::string::npos) return 1;
  pos = attrs.find('=', pos);
  if (pos == std::string::npos) return 1;
  ++pos;
  while (pos < attrs.size() &&
         (attrs[pos] == ' ' || attrs[pos] == '"' || attrs[pos] == '\'')) {
    ++pos;
  }
  std::string digits;
  while (pos < attrs.size() && attrs[pos] >= '0' && attrs[pos] <= '9') {
    digits.push_back(attrs[pos]);
    ++pos;
  }
  return ParseSpanValue(digits);
}

ObjectInstance ExtractTable(const wikitext::Table& table) {
  ObjectInstance obj;
  obj.type = ObjectType::kTable;
  obj.caption = wikitext::StripInlineMarkup(table.caption);
  std::vector<std::vector<SpannedCell>> spanned;
  for (const wikitext::TableRow& row : table.rows) {
    if (row.cells.empty()) continue;
    std::vector<SpannedCell> cells;
    for (const wikitext::TableCell& cell : row.cells) {
      SpannedCell spanned_cell;
      spanned_cell.text = wikitext::StripInlineMarkup(cell.content);
      spanned_cell.header = cell.header;
      spanned_cell.colspan = SpanFromAttrs(cell.attrs, "colspan");
      spanned_cell.rowspan = SpanFromAttrs(cell.attrs, "rowspan");
      cells.push_back(std::move(spanned_cell));
    }
    spanned.push_back(std::move(cells));
  }
  ExpandedGrid grid = ExpandSpans(spanned);
  for (size_t r = 0; r < grid.rows.size(); ++r) {
    if (grid.all_header[r] && obj.schema.empty() && obj.rows.empty()) {
      obj.schema = grid.rows[r];  // header row doubles as the schema
    }
    obj.rows.push_back(std::move(grid.rows[r]));
  }
  return obj;
}

ObjectInstance ExtractInfobox(const wikitext::Template& tmpl) {
  ObjectInstance obj;
  obj.type = ObjectType::kInfobox;
  obj.caption = tmpl.name;
  for (const auto& [key, value] : tmpl.params) {
    obj.schema.push_back(key);
    obj.rows.push_back({key, wikitext::StripInlineMarkup(value)});
  }
  return obj;
}

ObjectInstance ExtractList(const wikitext::List& list) {
  ObjectInstance obj;
  obj.type = ObjectType::kList;
  for (const wikitext::ListItem& item : list.items) {
    obj.rows.push_back({wikitext::StripInlineMarkup(item.content)});
  }
  return obj;
}

/// What one element extracts to: nothing for headings, paragraphs and
/// templates that are no infobox.
std::optional<ObjectInstance> ExtractObject(
    const wikitext::Element& element) {
  if (const auto* table = std::get_if<wikitext::Table>(&element)) {
    return ExtractTable(*table);
  }
  if (const auto* tmpl = std::get_if<wikitext::Template>(&element)) {
    if (!tmpl->IsInfobox()) return std::nullopt;
    return ExtractInfobox(*tmpl);
  }
  if (const auto* list = std::get_if<wikitext::List>(&element)) {
    return ExtractList(*list);
  }
  return std::nullopt;
}

/// Appends `obj` to its type's bucket under the current section, ranked
/// after the objects of its type already there.
void Place(ObjectInstance obj, const SectionTracker& sections,
           PageObjects& objects) {
  obj.section_path = sections.Path();
  std::vector<ObjectInstance>& bucket = objects.OfType(obj.type);
  obj.position = static_cast<int>(bucket.size());
  bucket.push_back(std::move(obj));
}

bool IsObjectBlock(wikitext::BlockKind kind) {
  return kind == wikitext::BlockKind::kTable ||
         kind == wikitext::BlockKind::kTemplate ||
         kind == wikitext::BlockKind::kList;
}

/// The source bytes of `block`: from the start of its first line to the
/// end of its last one. Equal sources mean equal lines, as SplitLines cut
/// them, so the block parses the same.
std::string_view BlockSource(const std::vector<std::string_view>& lines,
                             const wikitext::Block& block) {
  const char* begin = lines[block.begin].data();
  const std::string_view last = lines[block.end - 1];
  return std::string_view(
      begin, static_cast<size_t>(last.data() + last.size() - begin));
}

struct HistoryMetrics {
  obs::Counter* reused;
  obs::Counter* parsed;
};

const HistoryMetrics& GetHistoryMetrics() {
  static const HistoryMetrics metrics = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    HistoryMetrics m;
    m.reused = reg.GetCounter(
        "somr_extract_elements_reused_total",
        "Wikitext object elements (tables, block templates, lists) copied "
        "from the page's previous revision without parsing");
    m.parsed = reg.GetCounter(
        "somr_extract_elements_parsed_total",
        "Wikitext object elements (tables, block templates, lists) parsed "
        "and extracted");
    return m;
  }();
  return metrics;
}

}  // namespace

PageObjects ExtractFromWikitext(const wikitext::Document& doc) {
  SOMR_TRACE_SCOPE_CAT("extract", "extract/wikitext");
  PageObjects objects;
  SectionTracker sections;
  for (const wikitext::Element& element : doc.elements) {
    if (const auto* heading = std::get_if<wikitext::Heading>(&element)) {
      sections.OnHeading(*heading);
    } else if (std::optional<ObjectInstance> obj = ExtractObject(element)) {
      Place(std::move(*obj), sections, objects);
    }
  }
  return objects;
}

PageObjects ExtractFromWikitextSource(std::string_view source) {
  return WikitextHistory().Next(source);
}

std::optional<uint32_t> WikitextHistory::Revision::Find(
    size_t hash, wikitext::BlockKind kind, std::string_view source) const {
  auto it = by_hash.find(hash);
  if (it == by_hash.end()) return std::nullopt;
  const ObjectElement& element = elements[it->second];
  if (element.kind != kind ||
      std::string_view(text).substr(element.offset, element.size) !=
          source) {
    return std::nullopt;  // a hash collision: parse this one
  }
  return it->second;
}

PageObjects WikitextHistory::Next(std::string_view revision_text) {
  // The last revision's elements, released when this call returns.
  Revision previous = std::exchange(current_, Revision());

  std::vector<std::string_view> lines;
  std::vector<wikitext::Block> blocks;
  std::vector<wikitext::Heading> headings;  // heading blocks, in order
  std::vector<uint32_t> slots;  // object blocks' elements, in order
  // Elements this revision had to parse, by slot, extracted below.
  std::vector<std::pair<uint32_t, wikitext::Element>> parsed;
  size_t reused = 0;
  {
    SOMR_TRACE_SCOPE_CAT("extract", "parse/wikitext");
    // The next revision looks element sources up in the history's own
    // copy of the text.
    const std::string_view stripped =
        wikitext::StripComments(revision_text, current_.text);
    if (stripped.data() != current_.text.data()) {
      current_.text.assign(stripped);
    }
    const std::string_view text = current_.text;
    lines = wikitext::SplitLines(text);
    blocks = wikitext::SegmentBlocks(lines);
    for (const wikitext::Block& block : blocks) {
      if (block.kind == wikitext::BlockKind::kHeading) {
        headings.push_back(
            std::get<wikitext::Heading>(wikitext::ParseBlock(lines, block)));
        continue;
      }
      if (!IsObjectBlock(block.kind)) continue;
      const std::string_view source = BlockSource(lines, block);
      const size_t hash = std::hash<std::string_view>{}(source);
      if (std::optional<uint32_t> twin =
              current_.Find(hash, block.kind, source)) {
        slots.push_back(*twin);  // a copy of an element earlier on the page
        ++reused;
        continue;
      }
      const uint32_t slot = static_cast<uint32_t>(current_.elements.size());
      current_.elements.push_back(
          {static_cast<size_t>(source.data() - text.data()), source.size(),
           block.kind, std::nullopt});
      current_.by_hash.emplace(hash, slot);
      slots.push_back(slot);
      if (std::optional<uint32_t> kept =
              previous.Find(hash, block.kind, source)) {
        current_.elements[slot].object =
            std::move(previous.elements[*kept].object);
        // Moved out, so it must not be found again.
        previous.by_hash.erase(hash);
        ++reused;
      } else {
        parsed.emplace_back(slot, wikitext::ParseBlock(lines, block));
      }
    }
  }

  SOMR_TRACE_SCOPE_CAT("extract", "extract/wikitext");
  for (const auto& [slot, element] : parsed) {
    current_.elements[slot].object = ExtractObject(element);
  }
  PageObjects objects;
  SectionTracker sections;
  size_t next_heading = 0;
  size_t next_slot = 0;
  for (const wikitext::Block& block : blocks) {
    if (block.kind == wikitext::BlockKind::kHeading) {
      sections.OnHeading(headings[next_heading++]);
      continue;
    }
    if (!IsObjectBlock(block.kind)) continue;
    const std::optional<ObjectInstance>& object =
        current_.elements[slots[next_slot++]].object;
    // Copied: the next revision may reuse it.
    if (object) Place(*object, sections, objects);
  }
  const HistoryMetrics& metrics = GetHistoryMetrics();
  metrics.reused->Increment(reused);
  metrics.parsed->Increment(parsed.size());
  return objects;
}

}  // namespace somr::extract
