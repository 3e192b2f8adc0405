#include "parser.h"

#include <vector>

#include "tokenizer.h"

namespace somr::html::reference {

namespace {

bool IsVoidElement(std::string_view tag) {
  return tag == "area" || tag == "base" || tag == "br" || tag == "col" ||
         tag == "embed" || tag == "hr" || tag == "img" || tag == "input" ||
         tag == "link" || tag == "meta" || tag == "source" ||
         tag == "track" || tag == "wbr";
}

/// Returns true if an open element `open` is implicitly closed when a new
/// start tag `incoming` appears. Encodes the optional-end-tag rules that
/// matter for tables, lists and paragraphs.
bool ClosesOnStartTag(std::string_view open, std::string_view incoming) {
  if (open == "li" && incoming == "li") return true;
  if ((open == "dt" || open == "dd") &&
      (incoming == "dt" || incoming == "dd")) {
    return true;
  }
  if (open == "option" && (incoming == "option" || incoming == "optgroup")) {
    return true;
  }
  if (open == "p") {
    // Block-level elements close an open paragraph.
    return incoming == "p" || incoming == "div" || incoming == "table" ||
           incoming == "ul" || incoming == "ol" || incoming == "dl" ||
           incoming == "h1" || incoming == "h2" || incoming == "h3" ||
           incoming == "h4" || incoming == "h5" || incoming == "h6" ||
           incoming == "blockquote" || incoming == "pre" ||
           incoming == "section" || incoming == "article" ||
           incoming == "hr" || incoming == "form";
  }
  if ((open == "td" || open == "th") &&
      (incoming == "td" || incoming == "th" || incoming == "tr" ||
       incoming == "thead" || incoming == "tbody" || incoming == "tfoot")) {
    return true;
  }
  if (open == "tr" && (incoming == "tr" || incoming == "thead" ||
                       incoming == "tbody" || incoming == "tfoot")) {
    return true;
  }
  if ((open == "thead" || open == "tbody" || open == "tfoot") &&
      (incoming == "thead" || incoming == "tbody" || incoming == "tfoot")) {
    return true;
  }
  if (open == "caption" &&
      (incoming == "tr" || incoming == "td" || incoming == "th" ||
       incoming == "thead" || incoming == "tbody" || incoming == "tfoot" ||
       incoming == "colgroup" || incoming == "col")) {
    return true;
  }
  return false;
}

/// True for elements whose implied closing may cascade: closing a <tr>
/// may require first closing an open <td>.
bool HasOptionalEndTag(std::string_view tag) {
  return tag == "li" || tag == "dt" || tag == "dd" || tag == "p" ||
         tag == "td" || tag == "th" || tag == "tr" || tag == "thead" ||
         tag == "tbody" || tag == "tfoot" || tag == "option" ||
         tag == "caption";
}

class TreeBuilder {
 public:
  TreeBuilder() {
    document_ = Node::MakeDocument();
    stack_.push_back(document_.get());
  }

  std::unique_ptr<Node> Run(std::string_view input) {
    for (Token& token : TokenizeHtml(input)) {
      switch (token.type) {
        case TokenType::kStartTag:
          HandleStartTag(token);
          break;
        case TokenType::kEndTag:
          HandleEndTag(token);
          break;
        case TokenType::kText:
          if (!token.text.empty()) {
            Current()->AppendChild(Node::MakeText(std::move(token.text)));
          }
          break;
        case TokenType::kComment:
          Current()->AppendChild(Node::MakeComment(std::move(token.text)));
          break;
        case TokenType::kDoctype:
          break;  // structural no-op
      }
    }
    return std::move(document_);
  }

 private:
  Node* Current() { return stack_.back(); }

  void HandleStartTag(Token& token) {
    // Pop implicitly-closed elements (possibly several: td -> tr -> tbody).
    while (stack_.size() > 1 &&
           HasOptionalEndTag(Current()->tag()) &&
           ClosesOnStartTag(Current()->tag(), token.name)) {
      stack_.pop_back();
    }
    auto element = Node::MakeElement(token.name);
    for (auto& [name, value] : token.attributes) {
      element->SetAttribute(std::move(name), std::move(value));
    }
    Node* raw = Current()->AppendChild(std::move(element));
    if (!token.self_closing && !IsVoidElement(token.name)) {
      stack_.push_back(raw);
    }
  }

  void HandleEndTag(const Token& token) {
    if (IsVoidElement(token.name)) return;
    // Find the nearest matching open element; ignore a stray end tag.
    for (size_t i = stack_.size(); i > 1; --i) {
      if (stack_[i - 1]->tag() == token.name) {
        stack_.resize(i - 1);
        return;
      }
      // Do not let a mismatched end tag escape a table cell boundary —
      // this keeps malformed content inside its cell, as browsers do for
      // most cases via the "special" element scope.
      if (stack_[i - 1]->tag() == "td" || stack_[i - 1]->tag() == "th" ||
          stack_[i - 1]->tag() == "table") {
        return;
      }
    }
  }

  std::unique_ptr<Node> document_;
  std::vector<Node*> stack_;
};

}  // namespace

std::unique_ptr<Node> ParseHtml(std::string_view input) {
  TreeBuilder builder;
  return builder.Run(input);
}

}  // namespace somr::html::reference
