#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace somr::html {

/// Node kinds in the simplified DOM.
enum class NodeType : uint8_t {
  kDocument,
  kElement,
  kText,
  kComment,
};

/// One attribute of an element: the name lowercase, the value
/// entity-decoded.
struct Attribute {
  std::string_view name;
  std::string_view value;
};

class Node;

/// True for the elements that never have children and are serialized
/// without an end tag (<br>, <img>, ...).
bool IsVoidElement(std::string_view tag);

/// A parsed HTML document (see ParseHtml). Every node sits in one vector,
/// in document order, linked by int32_t parent / first-child /
/// next-sibling indices (-1 for none); node 0 is the document root. The
/// attributes sit in one vector, each element's in one run. Every string
/// is a view of the document's own copy of the input, which the parser
/// lowercases and entity-decodes in place (neither lengthens a string).
/// Moving a document leaves its strings valid but not its Nodes.
class Document {
 public:
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  Node root() const;

 private:
  friend class Node;
  friend class TreeBuilder;

  struct NodeData {
    NodeType type;
    int32_t parent = -1;
    int32_t first_child = -1;
    int32_t next_sibling = -1;
    uint32_t first_attribute = 0;
    uint32_t attribute_count = 0;
    std::string_view name;  // an element's tag, a text or comment's data
  };

  Document() = default;

  std::unique_ptr<char[]> chars_;
  std::vector<NodeData> nodes_;
  std::vector<Attribute> attributes_;
};

/// A node of a Document: the document and an index, cheap to copy. A
/// default-constructed Node is null (tests false) and stands for none.
class Node {
 public:
  Node() = default;

  explicit operator bool() const { return doc_ != nullptr; }
  bool operator==(const Node& other) const = default;

  NodeType type() const { return data().type; }
  /// An element's lowercase tag name; "" for other nodes.
  std::string_view tag() const {
    return type() == NodeType::kElement ? data().name : std::string_view();
  }
  /// A text or comment node's data; "" for other nodes.
  std::string_view text() const {
    return type() == NodeType::kText || type() == NodeType::kComment
               ? data().name
               : std::string_view();
  }
  Node parent() const { return At(data().parent); }
  Node first_child() const { return At(data().first_child); }
  Node next_sibling() const { return At(data().next_sibling); }

  /// The node after this one in document order inside the subtree of
  /// `scope` (this node or an ancestor): the first child when `descend`,
  /// else the next sibling of this node or of its nearest ancestor below
  /// `scope`; null at the subtree's end. Every walk is a loop over Next.
  Node Next(Node scope, bool descend = true) const {
    const std::vector<Document::NodeData>& nodes = doc_->nodes_;
    int32_t i = index_;
    if (descend && nodes[i].first_child >= 0) return At(nodes[i].first_child);
    for (; i != scope.index_; i = nodes[i].parent) {
      if (nodes[i].next_sibling >= 0) return At(nodes[i].next_sibling);
    }
    return Node();
  }

  bool IsElement(std::string_view tag_name) const {
    return type() == NodeType::kElement && data().name == tag_name;
  }

  std::span<const html::Attribute> attributes() const {
    return {doc_->attributes_.data() + data().first_attribute,
            data().attribute_count};
  }
  /// Attribute value, or "" if absent. Keys are lowercase.
  std::string_view Attribute(std::string_view key) const;
  bool HasAttribute(std::string_view key) const;

  /// Descendant elements with tag `tag_name`, in document order. Does not
  /// include this node.
  std::vector<Node> Descendants(std::string_view tag_name) const;

  /// Direct children that are elements with tag `tag_name`.
  std::vector<Node> ChildElements(std::string_view tag_name) const;

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
  friend class Document;

  Node(const Document* doc, int32_t index) : doc_(doc), index_(index) {}

  const Document::NodeData& data() const { return doc_->nodes_[index_]; }
  Node At(int32_t index) const {
    return index >= 0 ? Node(doc_, index) : Node();
  }

  const Document* doc_ = nullptr;
  int32_t index_ = 0;
};

inline Node Document::root() const { return Node(this, 0); }

}  // namespace somr::html
