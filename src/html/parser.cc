#include "html/parser.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "html/entities.h"

namespace somr::html {

namespace {

bool IsTagNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsTagNameChar(char c) {
  return IsTagNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':';
}

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f';
}

char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
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

}  // namespace

/// Tokenizes the document's copy of the input and builds its tree in the
/// same pass. Whatever the cursor has passed may be rewritten in place
/// (names lowercased, references decoded); what lies ahead is untouched.
class TreeBuilder {
 public:
  explicit TreeBuilder(std::string_view input) : n_(input.size()) {
    doc_.chars_ = std::make_unique_for_overwrite<char[]>(n_);
    s_ = doc_.chars_.get();
    if (n_ > 0) std::memcpy(s_, input.data(), n_);
    doc_.nodes_.emplace_back().type = NodeType::kDocument;
    open_.push_back({0, -1});
  }

  Document Run() {
    size_t text = 0;  // the pending text run is [text, pos_)
    while (pos_ < n_) {
      if (s_[pos_] != '<') {
        const void* lt = std::memchr(s_ + pos_, '<', n_ - pos_);
        pos_ = lt != nullptr ? static_cast<const char*>(lt) - s_ : n_;
        continue;
      }
      if (Input().substr(pos_, 4) == "<!--") {
        FlushText(text);
        const size_t body = pos_ + 4;
        const size_t end = std::min(Input().find("-->", body), n_);
        Append(NodeType::kComment, View(body, end));
        pos_ = std::min(end + 3, n_);
      } else if (Peek(1) == '!') {  // doctype or other <! declaration
        FlushText(text);
        pos_ = std::min(Input().find('>', pos_ + 2), n_ - 1) + 1;
      } else if (Peek(1) == '/') {
        if (!IsTagNameStart(Peek(2))) {
          ++pos_;  // a literal '<'
          continue;
        }
        FlushText(text);
        pos_ += 2;
        const std::string_view name = ReadTagName();
        pos_ = std::min(Input().find('>', pos_), n_ - 1) + 1;
        EndTag(name);
      } else if (IsTagNameStart(Peek(1))) {
        FlushText(text);
        ++pos_;
        const std::string_view name = ReadTagName();
        const bool self_closing = StartTag(name);
        if (Peek(0) == '>') ++pos_;
        if ((name == "script" || name == "style") && !self_closing) {
          ReadRawText(name);
        }
      } else {
        ++pos_;  // a bare '<' that does not begin a tag
        continue;
      }
      text = pos_;
    }
    FlushText(text);
    return std::move(doc_);
  }

 private:
  struct Open {
    int32_t index;       // the open element (or the document)
    int32_t last_child;  // its last child so far, -1 for none
  };

  std::string_view Input() const { return {s_, n_}; }
  std::string_view View(size_t begin, size_t end) const {
    return {s_ + begin, end - begin};
  }
  char Peek(size_t ahead) const {
    return pos_ + ahead < n_ ? s_[pos_ + ahead] : '\0';
  }
  std::string_view CurrentTag() const {
    return doc_.nodes_[open_.back().index].name;
  }

  void SkipSpace() {
    while (pos_ < n_ && IsSpace(s_[pos_])) ++pos_;
  }

  std::string_view ReadTagName() {
    const size_t begin = pos_;
    for (; pos_ < n_ && IsTagNameChar(s_[pos_]); ++pos_) {
      s_[pos_] = ToLower(s_[pos_]);
    }
    return View(begin, pos_);
  }

  /// Entity-decodes [begin, end) in place: no character reference is
  /// shorter than its UTF-8, so the decoded bytes fit where the raw ones
  /// were.
  std::string_view Decode(size_t begin, size_t end) {
    const std::string_view raw = View(begin, end);
    if (raw.find('&') == std::string_view::npos) return raw;
    const std::string decoded = DecodeEntities(raw);
    std::memcpy(s_ + begin, decoded.data(), decoded.size());
    return View(begin, begin + decoded.size());
  }

  void FlushText(size_t text) {
    if (text < pos_) Append(NodeType::kText, Decode(text, pos_));
  }

  /// Appends a node as the last child of the current open element.
  int32_t Append(NodeType type, std::string_view name) {
    const auto index = static_cast<int32_t>(doc_.nodes_.size());
    Open& parent = open_.back();
    Document::NodeData& node = doc_.nodes_.emplace_back();
    node.type = type;
    node.parent = parent.index;
    node.name = name;
    if (parent.last_child < 0) {
      doc_.nodes_[parent.index].first_child = index;
    } else {
      doc_.nodes_[parent.last_child].next_sibling = index;
    }
    parent.last_child = index;
    return index;
  }

  /// The start tag `name` was just read: pops the elements it implicitly
  /// closes (possibly several: td -> tr -> tbody), appends its element
  /// with its attributes and opens it unless it is void or self-closing.
  /// Returns whether the tag was self-closing.
  bool StartTag(std::string_view name) {
    while (open_.size() > 1 && HasOptionalEndTag(CurrentTag()) &&
           ClosesOnStartTag(CurrentTag(), name)) {
      open_.pop_back();
    }
    const int32_t index = Append(NodeType::kElement, name);
    const bool self_closing = ReadAttributes(doc_.nodes_[index]);
    if (!self_closing && !IsVoidElement(name)) open_.push_back({index, -1});
    return self_closing;
  }

  /// Reads attributes up to the tag's end; returns true at "/>".
  bool ReadAttributes(Document::NodeData& element) {
    element.first_attribute = static_cast<uint32_t>(doc_.attributes_.size());
    while (true) {
      SkipSpace();
      if (pos_ >= n_ || s_[pos_] == '>') return false;
      if (s_[pos_] == '/' && Peek(1) == '>') {
        ++pos_;
        return true;
      }
      // Attribute name: anything up to '=', whitespace, '/' or '>'.
      const size_t name_begin = pos_;
      for (; pos_ < n_; ++pos_) {
        const char ch = s_[pos_];
        if (IsSpace(ch) || ch == '=' || ch == '>' || ch == '/') break;
        s_[pos_] = ToLower(ch);
      }
      if (pos_ == name_begin) {
        ++pos_;  // stray character; skip to avoid an infinite loop
        continue;
      }
      const std::string_view name = View(name_begin, pos_);
      SkipSpace();
      std::string_view value;
      if (Peek(0) == '=') {
        ++pos_;
        SkipSpace();
        const char quote = Peek(0);
        if (quote == '"' || quote == '\'') {
          const size_t begin = ++pos_;
          const size_t end = std::min(Input().find(quote, begin), n_);
          pos_ = std::min(end + 1, n_);
          value = Decode(begin, end);
        } else {
          const size_t begin = pos_;
          while (pos_ < n_ && !IsSpace(s_[pos_]) && s_[pos_] != '>') ++pos_;
          value = Decode(begin, pos_);
        }
      }
      SetAttribute(element, name, value);
    }
  }

  /// A repeated name keeps its first position and takes the last value.
  void SetAttribute(Document::NodeData& element, std::string_view name,
                    std::string_view value) {
    Attribute* first = doc_.attributes_.data() + element.first_attribute;
    for (Attribute* a = first; a != first + element.attribute_count; ++a) {
      if (a->name == name) {
        a->value = value;
        return;
      }
    }
    doc_.attributes_.push_back({name, value});
    ++element.attribute_count;
  }

  void EndTag(std::string_view name) {
    if (IsVoidElement(name)) return;
    // Find the nearest matching open element; ignore a stray end tag.
    for (size_t i = open_.size(); i > 1; --i) {
      const std::string_view tag = doc_.nodes_[open_[i - 1].index].name;
      if (tag == name) {
        open_.resize(i - 1);
        return;
      }
      // Do not let a mismatched end tag escape a table cell boundary —
      // this keeps malformed content inside its cell, as browsers do for
      // most cases via the "special" element scope.
      if (tag == "td" || tag == "th" || tag == "table") return;
    }
  }

  /// The body of a <script> or <style>, raw (no entity decoding), up to
  /// its case-insensitive "</name".
  void ReadRawText(std::string_view name) {
    const std::string close = "</" + std::string(name);
    size_t end = pos_;
    while (end < n_ && !(s_[end] == '<' && end + close.size() <= n_ &&
                         EqualsIgnoreAsciiCase(View(end, end + close.size()),
                                               close))) {
      ++end;
    }
    if (end > pos_) Append(NodeType::kText, View(pos_, end));
    pos_ = end;
  }

  Document doc_;
  char* s_ = nullptr;
  size_t n_ = 0;
  size_t pos_ = 0;
  std::vector<Open> open_;  // the document, then each open element
};

Document ParseHtml(std::string_view input) {
  return TreeBuilder(input).Run();
}

}  // namespace somr::html
