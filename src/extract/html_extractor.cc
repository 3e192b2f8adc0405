#include "extract/html_extractor.h"

#include "extract/span_grid.h"
#include "html/parser.h"
#include "obs/trace.h"

namespace somr::extract {

namespace {

int HeadingLevel(html::Node node) {
  const std::string_view tag = node.tag();
  if (tag.size() == 2 && tag[0] == 'h' && tag[1] >= '1' && tag[1] <= '6') {
    return tag[1] - '0';
  }
  return 0;
}

class HtmlWalker {
 public:
  explicit HtmlWalker(PageObjects& out) : out_(out) {}

  void Walk(html::Node root) {
    for (html::Node node = root; node; node = node.Next(root, Visit(node))) {
    }
  }

 private:
  /// Handles one node of the walk; true when its children are walked too.
  bool Visit(html::Node node) {
    if (node.type() != html::NodeType::kElement) return true;
    // Page chrome is not content: navigation menus, site headers,
    // footers and sidebars hold lists/tables that no human would call
    // objects of the page.
    if (node.IsElement("nav") || node.IsElement("header") ||
        node.IsElement("footer") || node.IsElement("aside") ||
        node.Attribute("role") == "navigation") {
      return false;
    }
    // Layout tables are presentation, not data.
    if (node.IsElement("table") &&
        (node.Attribute("role") == "presentation" ||
         node.HasClass("layout") || node.HasClass("navbox"))) {
      return false;
    }
    int level = HeadingLevel(node);
    if (level == 1) {
      // <h1> is the page title, not a section (the wikitext side has no
      // level-1 headings either); it resets any open sections.
      sections_.clear();
      return false;
    }
    if (level > 1) {
      while (!sections_.empty() && sections_.back().level >= level) {
        sections_.pop_back();
      }
      sections_.push_back({level, node.InnerText()});
      return false;  // heading content handled
    }
    if (node.IsElement("table")) {
      if (node.HasClass("infobox")) {
        Emit(ExtractInfobox(node));
      } else {
        Emit(ExtractTable(node));
      }
      return false;  // do not extract nested objects separately
    }
    if (IsList(node)) {
      Emit(ExtractList(node));
      return false;
    }
    return true;
  }

  struct Section {
    int level;
    std::string title;
  };

  void Emit(ObjectInstance obj) {
    obj.section_path.clear();
    for (const Section& s : sections_) obj.section_path.push_back(s.title);
    std::vector<ObjectInstance>& bucket = out_.OfType(obj.type);
    obj.position = static_cast<int>(bucket.size());
    bucket.push_back(std::move(obj));
  }

  static std::vector<html::Node> TableRows(html::Node table) {
    std::vector<html::Node> rows;
    // Direct rows plus rows under thead/tbody/tfoot.
    for (html::Node child = table.first_child(); child;
         child = child.next_sibling()) {
      if (child.IsElement("tr")) {
        rows.push_back(child);
      } else if (child.IsElement("thead") || child.IsElement("tbody") ||
                 child.IsElement("tfoot")) {
        std::vector<html::Node> trs = child.ChildElements("tr");
        rows.insert(rows.end(), trs.begin(), trs.end());
      }
    }
    return rows;
  }

  static std::string Caption(html::Node table) {
    std::vector<html::Node> captions = table.ChildElements("caption");
    return captions.empty() ? std::string() : captions[0].InnerText();
  }

  static ObjectInstance ExtractTable(html::Node table) {
    ObjectInstance obj;
    obj.type = ObjectType::kTable;
    obj.caption = Caption(table);
    std::vector<std::vector<SpannedCell>> spanned;
    for (html::Node tr : TableRows(table)) {
      std::vector<SpannedCell> cells;
      for (html::Node cell = tr.first_child(); cell;
           cell = cell.next_sibling()) {
        if (cell.IsElement("td") || cell.IsElement("th")) {
          SpannedCell spanned_cell;
          spanned_cell.text = cell.InnerText();
          spanned_cell.header = cell.IsElement("th");
          spanned_cell.colspan =
              ParseSpanValue(std::string(cell.Attribute("colspan")));
          spanned_cell.rowspan =
              ParseSpanValue(std::string(cell.Attribute("rowspan")));
          cells.push_back(std::move(spanned_cell));
        }
      }
      if (!cells.empty()) spanned.push_back(std::move(cells));
    }
    ExpandedGrid grid = ExpandSpans(spanned);
    for (size_t r = 0; r < grid.rows.size(); ++r) {
      if (grid.all_header[r] && obj.schema.empty() && obj.rows.empty()) {
        obj.schema = grid.rows[r];
      }
      obj.rows.push_back(std::move(grid.rows[r]));
    }
    return obj;
  }

  static ObjectInstance ExtractInfobox(html::Node table) {
    ObjectInstance obj;
    obj.type = ObjectType::kInfobox;
    obj.caption = Caption(table);
    for (html::Node tr : TableRows(table)) {
      std::string key, value;
      for (html::Node cell = tr.first_child(); cell;
           cell = cell.next_sibling()) {
        if (cell.IsElement("th")) {
          key = cell.InnerText();
        } else if (cell.IsElement("td")) {
          value = cell.InnerText();
        }
      }
      if (key.empty() && value.empty()) continue;
      obj.schema.push_back(key);
      obj.rows.push_back({key, value});
    }
    return obj;
  }

  static bool IsList(html::Node node) {
    return node.IsElement("ul") || node.IsElement("ol");
  }

  /// One item per <li> of the list or of a sub-list, in document order. A
  /// sub-list can be nested inside an <li> or appear as a direct child of
  /// the list (both occur in the wild); an item's own text excludes its
  /// sub-lists, whose items follow it in the same object.
  static ObjectInstance ExtractList(html::Node list) {
    ObjectInstance obj;
    obj.type = ObjectType::kList;
    html::Node node = list;
    while (node) {
      bool descend = IsList(node);
      if (node.IsElement("li") && IsList(node.parent())) {
        std::string own_text;
        for (html::Node child = node.first_child(); child;
             child = child.next_sibling()) {
          if (IsList(child)) continue;
          std::string piece = child.InnerText();
          if (piece.empty()) continue;
          if (!own_text.empty()) own_text.push_back(' ');
          own_text.append(piece);
        }
        obj.rows.push_back({std::move(own_text)});
        descend = true;  // to its sub-lists; other children are skipped
      }
      node = node.Next(list, descend);
    }
    return obj;
  }

  PageObjects& out_;
  std::vector<Section> sections_;
};

}  // namespace

PageObjects ExtractFromHtml(const html::Document& document) {
  SOMR_TRACE_SCOPE_CAT("extract", "extract/html");
  PageObjects objects;
  HtmlWalker walker(objects);
  walker.Walk(document.root());
  return objects;
}

PageObjects ExtractFromHtmlSource(std::string_view source) {
  const html::Document doc = [source] {
    SOMR_TRACE_SCOPE_CAT("extract", "parse/html");
    return html::ParseHtml(source);
  }();
  return ExtractFromHtml(doc);
}

}  // namespace somr::extract
