#include "dom.h"

#include "common/string_util.h"
#include "html/entities.h"

namespace somr::html::reference {

namespace {

// Elements that never have children and are serialized without end tags.
bool IsVoidElement(std::string_view tag) {
  return tag == "area" || tag == "base" || tag == "br" || tag == "col" ||
         tag == "embed" || tag == "hr" || tag == "img" || tag == "input" ||
         tag == "link" || tag == "meta" || tag == "source" ||
         tag == "track" || tag == "wbr";
}

}  // namespace

std::unique_ptr<Node> Node::MakeDocument() {
  return std::unique_ptr<Node>(new Node(NodeType::kDocument));
}

std::unique_ptr<Node> Node::MakeElement(std::string tag) {
  auto node = std::unique_ptr<Node>(new Node(NodeType::kElement));
  node->tag_ = std::move(tag);
  return node;
}

std::unique_ptr<Node> Node::MakeText(std::string text) {
  auto node = std::unique_ptr<Node>(new Node(NodeType::kText));
  node->text_ = std::move(text);
  return node;
}

std::unique_ptr<Node> Node::MakeComment(std::string text) {
  auto node = std::unique_ptr<Node>(new Node(NodeType::kComment));
  node->text_ = std::move(text);
  return node;
}

Node* Node::AppendChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

std::string_view Node::Attribute(std::string_view key) const {
  for (const auto& [name, value] : attributes_) {
    if (name == key) return value;
  }
  return {};
}

bool Node::HasAttribute(std::string_view key) const {
  for (const auto& [name, value] : attributes_) {
    if (name == key) return true;
  }
  return false;
}

void Node::SetAttribute(std::string key, std::string value) {
  for (auto& [name, existing] : attributes_) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  attributes_.emplace_back(std::move(key), std::move(value));
}

std::vector<const Node*> Node::Descendants(std::string_view tag_name) const {
  std::vector<const Node*> result;
  // Iterative DFS in document order.
  std::vector<const Node*> stack;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    stack.push_back(it->get());
  }
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->IsElement(tag_name)) result.push_back(node);
    for (auto it = node->children_.rbegin(); it != node->children_.rend();
         ++it) {
      stack.push_back(it->get());
    }
  }
  return result;
}

std::vector<const Node*> Node::ChildElements(std::string_view tag_name) const {
  std::vector<const Node*> result;
  for (const auto& child : children_) {
    if (child->IsElement(tag_name)) result.push_back(child.get());
  }
  return result;
}

void Node::CollectText(std::string& out) const {
  if (type_ == NodeType::kText) {
    out.append(text_);
    out.push_back(' ');
    return;
  }
  for (const auto& child : children_) child->CollectText(out);
}

std::string Node::InnerText() const {
  std::string raw;
  CollectText(raw);
  return CollapseWhitespace(raw);
}

void Node::SerializeTo(std::string& out) const {
  switch (type_) {
    case NodeType::kDocument:
      for (const auto& child : children_) child->SerializeTo(out);
      break;
    case NodeType::kText:
      out.append(EscapeEntities(text_));
      break;
    case NodeType::kComment:
      out.append("<!--").append(text_).append("-->");
      break;
    case NodeType::kElement: {
      out.push_back('<');
      out.append(tag_);
      for (const auto& [name, value] : attributes_) {
        out.push_back(' ');
        out.append(name);
        out.append("=\"");
        out.append(EscapeEntities(value));
        out.push_back('"');
      }
      out.push_back('>');
      if (IsVoidElement(tag_)) return;
      for (const auto& child : children_) child->SerializeTo(out);
      out.append("</").append(tag_).push_back('>');
      break;
    }
  }
}

std::string Node::OuterHtml() const {
  std::string out;
  SerializeTo(out);
  return out;
}

bool Node::HasClass(std::string_view cls) const {
  std::string_view classes = Attribute("class");
  for (std::string_view piece : SplitAndTrim(classes, ' ')) {
    if (piece == cls) return true;
  }
  return false;
}

size_t Node::SubtreeSize() const {
  size_t total = 1;
  for (const auto& child : children_) total += child->SubtreeSize();
  return total;
}

}  // namespace somr::html::reference
