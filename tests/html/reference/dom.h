#pragma once

// Part of the differential tests' reference; see html_extractor.h.

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace somr::html::reference {

/// Node kinds in the simplified DOM.
enum class NodeType {
  kDocument,
  kElement,
  kText,
  kComment,
};

/// A DOM node. Children are owned via unique_ptr; parent is a non-owning
/// back pointer valid for the lifetime of the tree.
class Node {
 public:
  /// Creates a document root.
  static std::unique_ptr<Node> MakeDocument();
  /// Creates an element with the given (lowercase) tag name.
  static std::unique_ptr<Node> MakeElement(std::string tag);
  /// Creates a text node.
  static std::unique_ptr<Node> MakeText(std::string text);
  /// Creates a comment node.
  static std::unique_ptr<Node> MakeComment(std::string text);

  NodeType type() const { return type_; }
  const std::string& tag() const { return tag_; }
  const std::string& text() const { return text_; }
  Node* parent() const { return parent_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }

  bool IsElement(std::string_view tag_name) const {
    return type_ == NodeType::kElement && tag_ == tag_name;
  }

  /// Appends `child` and sets its parent pointer. Returns the raw pointer.
  Node* AppendChild(std::unique_ptr<Node> child);

  /// Attribute value, or "" if absent. Keys are lowercase.
  std::string_view Attribute(std::string_view key) const;
  bool HasAttribute(std::string_view key) const;
  void SetAttribute(std::string key, std::string value);
  const std::vector<std::pair<std::string, std::string>>& attributes() const {
    return attributes_;
  }

  /// Depth-first collection of descendant elements with tag `tag_name`.
  /// Does not include this node.
  std::vector<const Node*> Descendants(std::string_view tag_name) const;

  /// Direct children that are elements with tag `tag_name`.
  std::vector<const Node*> ChildElements(std::string_view tag_name) const;

  /// Concatenated text of all descendant text nodes, whitespace-collapsed.
  std::string InnerText() const;

  /// Serializes the subtree back to HTML.
  std::string OuterHtml() const;

  /// True if any attribute "class" contains `cls` as a whitespace-separated
  /// class name.
  bool HasClass(std::string_view cls) const;

  /// Total number of nodes in this subtree, including this node.
  size_t SubtreeSize() const;

 private:
  explicit Node(NodeType type) : type_(type) {}

  void CollectText(std::string& out) const;
  void SerializeTo(std::string& out) const;

  NodeType type_;
  std::string tag_;
  std::string text_;
  std::vector<std::pair<std::string, std::string>> attributes_;
  std::vector<std::unique_ptr<Node>> children_;
  Node* parent_ = nullptr;
};

}  // namespace somr::html::reference
