#include "html/dom.h"

#include "common/string_util.h"
#include "html/entities.h"

namespace somr::html {

bool IsVoidElement(std::string_view tag) {
  return tag == "area" || tag == "base" || tag == "br" || tag == "col" ||
         tag == "embed" || tag == "hr" || tag == "img" || tag == "input" ||
         tag == "link" || tag == "meta" || tag == "source" ||
         tag == "track" || tag == "wbr";
}

std::string_view Node::Attribute(std::string_view key) const {
  for (const html::Attribute& attribute : attributes()) {
    if (attribute.name == key) return attribute.value;
  }
  return {};
}

bool Node::HasAttribute(std::string_view key) const {
  for (const html::Attribute& attribute : attributes()) {
    if (attribute.name == key) return true;
  }
  return false;
}

std::vector<Node> Node::Descendants(std::string_view tag_name) const {
  std::vector<Node> result;
  for (Node node = Next(*this); node; node = node.Next(*this)) {
    if (node.IsElement(tag_name)) result.push_back(node);
  }
  return result;
}

std::vector<Node> Node::ChildElements(std::string_view tag_name) const {
  std::vector<Node> result;
  for (Node child = first_child(); child; child = child.next_sibling()) {
    if (child.IsElement(tag_name)) result.push_back(child);
  }
  return result;
}

std::string Node::InnerText() const {
  std::string raw;
  for (Node node = *this; node; node = node.Next(*this)) {
    if (node.type() == NodeType::kText) {
      raw.append(node.data().name);
      raw.push_back(' ');
    }
  }
  return CollapseWhitespace(raw);
}

std::string Node::OuterHtml() const {
  std::string out;
  // An element's end tag is written when the walk leaves it: at once when
  // it has no children, else on the climb back from its last descendant.
  auto close = [&out](Node node) {
    if (node.type() == NodeType::kElement && !IsVoidElement(node.tag())) {
      out.append("</").append(node.tag()).push_back('>');
    }
  };
  Node node = *this;
  while (true) {
    switch (node.type()) {
      case NodeType::kDocument:
        break;
      case NodeType::kText:
        out.append(EscapeEntities(node.text()));
        break;
      case NodeType::kComment:
        out.append("<!--").append(node.text()).append("-->");
        break;
      case NodeType::kElement:
        out.push_back('<');
        out.append(node.tag());
        for (const html::Attribute& attribute : node.attributes()) {
          out.push_back(' ');
          out.append(attribute.name);
          out.append("=\"");
          out.append(EscapeEntities(attribute.value));
          out.push_back('"');
        }
        out.push_back('>');
        break;
    }
    if (node.first_child()) {
      node = node.first_child();
      continue;
    }
    close(node);
    while (node != *this && !node.next_sibling()) {
      node = node.parent();
      close(node);
    }
    if (node == *this) return out;
    node = node.next_sibling();
  }
}

bool Node::HasClass(std::string_view cls) const {
  std::string_view classes = Attribute("class");
  for (std::string_view piece : SplitAndTrim(classes, ' ')) {
    if (piece == cls) return true;
  }
  return false;
}

size_t Node::SubtreeSize() const {
  size_t total = 0;
  for (Node node = *this; node; node = node.Next(*this)) ++total;
  return total;
}

}  // namespace somr::html
