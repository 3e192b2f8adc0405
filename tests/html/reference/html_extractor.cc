#include "html_extractor.h"

#include "extract/span_grid.h"
#include "parser.h"
#include "obs/trace.h"

namespace somr::extract::reference {

namespace {

int HeadingLevel(const html::Node& node) {
  const std::string& tag = node.tag();
  if (tag.size() == 2 && tag[0] == 'h' && tag[1] >= '1' && tag[1] <= '6') {
    return tag[1] - '0';
  }
  return 0;
}

class HtmlWalker {
 public:
  explicit HtmlWalker(PageObjects& out) : out_(out) {}

  void Walk(const html::Node& node) {
    if (node.type() == html::NodeType::kElement) {
      // Page chrome is not content: navigation menus, site headers,
      // footers and sidebars hold lists/tables that no human would call
      // objects of the page.
      if (node.IsElement("nav") || node.IsElement("header") ||
          node.IsElement("footer") || node.IsElement("aside") ||
          node.Attribute("role") == "navigation") {
        return;
      }
      // Layout tables are presentation, not data.
      if (node.IsElement("table") &&
          (node.Attribute("role") == "presentation" ||
           node.HasClass("layout") || node.HasClass("navbox"))) {
        return;
      }
      int level = HeadingLevel(node);
      if (level == 1) {
        // <h1> is the page title, not a section (the wikitext side has no
        // level-1 headings either); it resets any open sections.
        sections_.clear();
        return;
      }
      if (level > 1) {
        while (!sections_.empty() && sections_.back().level >= level) {
          sections_.pop_back();
        }
        sections_.push_back({level, node.InnerText()});
        return;  // heading content handled
      }
      if (node.IsElement("table")) {
        if (node.HasClass("infobox")) {
          Emit(ExtractInfobox(node));
        } else {
          Emit(ExtractTable(node));
        }
        return;  // do not extract nested objects separately
      }
      if (node.IsElement("ul") || node.IsElement("ol")) {
        Emit(ExtractList(node));
        return;
      }
    }
    for (const auto& child : node.children()) Walk(*child);
  }

 private:
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

  static std::vector<const html::Node*> TableRows(const html::Node& table) {
    std::vector<const html::Node*> rows;
    // Direct rows plus rows under thead/tbody/tfoot.
    for (const auto& child : table.children()) {
      if (child->IsElement("tr")) {
        rows.push_back(child.get());
      } else if (child->IsElement("thead") || child->IsElement("tbody") ||
                 child->IsElement("tfoot")) {
        for (const auto& grandchild : child->children()) {
          if (grandchild->IsElement("tr")) rows.push_back(grandchild.get());
        }
      }
    }
    return rows;
  }

  static ObjectInstance ExtractTable(const html::Node& table) {
    ObjectInstance obj;
    obj.type = ObjectType::kTable;
    for (const auto& child : table.children()) {
      if (child->IsElement("caption")) {
        obj.caption = child->InnerText();
        break;
      }
    }
    std::vector<std::vector<SpannedCell>> spanned;
    for (const html::Node* tr : TableRows(table)) {
      std::vector<SpannedCell> cells;
      for (const auto& cell : tr->children()) {
        if (cell->IsElement("td") || cell->IsElement("th")) {
          SpannedCell spanned_cell;
          spanned_cell.text = cell->InnerText();
          spanned_cell.header = cell->IsElement("th");
          spanned_cell.colspan =
              ParseSpanValue(std::string(cell->Attribute("colspan")));
          spanned_cell.rowspan =
              ParseSpanValue(std::string(cell->Attribute("rowspan")));
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

  static ObjectInstance ExtractInfobox(const html::Node& table) {
    ObjectInstance obj;
    obj.type = ObjectType::kInfobox;
    for (const auto& child : table.children()) {
      if (child->IsElement("caption")) {
        obj.caption = child->InnerText();
        break;
      }
    }
    for (const html::Node* tr : TableRows(table)) {
      std::string key, value;
      for (const auto& cell : tr->children()) {
        if (cell->IsElement("th")) {
          key = cell->InnerText();
        } else if (cell->IsElement("td")) {
          value = cell->InnerText();
        }
      }
      if (key.empty() && value.empty()) continue;
      obj.schema.push_back(key);
      obj.rows.push_back({key, value});
    }
    return obj;
  }

  static ObjectInstance ExtractList(const html::Node& list) {
    ObjectInstance obj;
    obj.type = ObjectType::kList;
    CollectItems(list, obj);
    return obj;
  }

  static void CollectItems(const html::Node& list, ObjectInstance& obj) {
    for (const auto& child : list.children()) {
      // A sub-list can be nested inside an <li> or appear as a direct
      // child of the list (both occur in the wild).
      if (child->IsElement("ul") || child->IsElement("ol")) {
        CollectItems(*child, obj);
        continue;
      }
      if (!child->IsElement("li")) continue;
      // The item's own text excludes nested sub-lists, which become
      // additional items of the same object below.
      std::string own_text;
      for (const auto& grandchild : child->children()) {
        if (grandchild->IsElement("ul") || grandchild->IsElement("ol")) {
          continue;
        }
        std::string piece = grandchild->InnerText();
        if (piece.empty()) continue;
        if (!own_text.empty()) own_text.push_back(' ');
        own_text.append(piece);
      }
      obj.rows.push_back({std::move(own_text)});
      for (const auto& grandchild : child->children()) {
        if (grandchild->IsElement("ul") || grandchild->IsElement("ol")) {
          CollectItems(*grandchild, obj);
        }
      }
    }
  }

  PageObjects& out_;
  std::vector<Section> sections_;
};

}  // namespace

PageObjects ExtractFromHtml(const html::Node& document) {
  SOMR_TRACE_SCOPE_CAT("extract", "extract/html");
  PageObjects objects;
  HtmlWalker walker(objects);
  walker.Walk(document);
  return objects;
}

PageObjects ExtractFromHtmlSource(std::string_view source) {
  std::unique_ptr<html::Node> doc;
  {
    SOMR_TRACE_SCOPE_CAT("extract", "parse/html");
    doc = html::ParseHtml(source);
  }
  return ExtractFromHtml(*doc);
}

}  // namespace somr::extract::reference
