#include "tokenizer.h"

#include <cctype>

#include "common/string_util.h"
#include "html/entities.h"

namespace somr::html::reference {

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

class Cursor {
 public:
  explicit Cursor(std::string_view input) : input_(input) {}

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek(size_t ahead = 0) const {
    size_t p = pos_ + ahead;
    return p < input_.size() ? input_[p] : '\0';
  }
  char Next() { return input_[pos_++]; }
  void Advance(size_t n) { pos_ += n; }
  size_t pos() const { return pos_; }
  void set_pos(size_t p) { pos_ = p; }

  bool StartsWith(std::string_view prefix) const {
    return input_.substr(pos_).substr(0, prefix.size()) == prefix;
  }

  /// Case-insensitive StartsWith for ASCII prefixes.
  bool StartsWithIgnoreCase(std::string_view prefix) const {
    if (pos_ + prefix.size() > input_.size()) return false;
    return EqualsIgnoreAsciiCase(input_.substr(pos_, prefix.size()), prefix);
  }

  std::string_view Remaining() const { return input_.substr(pos_); }

 private:
  std::string_view input_;
  size_t pos_ = 0;
};

void SkipSpace(Cursor& c) {
  while (!c.AtEnd() && IsSpace(c.Peek())) c.Advance(1);
}

std::string ReadTagName(Cursor& c) {
  std::string name;
  while (!c.AtEnd() && IsTagNameChar(c.Peek())) {
    char ch = c.Next();
    if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
    name.push_back(ch);
  }
  return name;
}

void ReadAttributes(Cursor& c, Token& token) {
  while (true) {
    SkipSpace(c);
    if (c.AtEnd() || c.Peek() == '>') return;
    if (c.Peek() == '/' && c.Peek(1) == '>') {
      token.self_closing = true;
      c.Advance(1);
      return;
    }
    // Attribute name: anything up to '=', whitespace, '/' or '>'.
    std::string name;
    while (!c.AtEnd()) {
      char ch = c.Peek();
      if (IsSpace(ch) || ch == '=' || ch == '>' || ch == '/') break;
      if (ch >= 'A' && ch <= 'Z') ch = static_cast<char>(ch - 'A' + 'a');
      name.push_back(ch);
      c.Advance(1);
    }
    if (name.empty()) {
      c.Advance(1);  // stray character; skip to avoid an infinite loop
      continue;
    }
    SkipSpace(c);
    std::string value;
    if (c.Peek() == '=') {
      c.Advance(1);
      SkipSpace(c);
      char quote = c.Peek();
      if (quote == '"' || quote == '\'') {
        c.Advance(1);
        while (!c.AtEnd() && c.Peek() != quote) value.push_back(c.Next());
        if (!c.AtEnd()) c.Advance(1);
      } else {
        while (!c.AtEnd() && !IsSpace(c.Peek()) && c.Peek() != '>') {
          value.push_back(c.Next());
        }
      }
      value = DecodeEntities(value);
    }
    token.attributes.emplace_back(std::move(name), std::move(value));
  }
}

/// Consumes raw text content up to "</name" for script/style elements.
std::string ReadRawText(Cursor& c, std::string_view name) {
  std::string close = "</";
  close.append(name);
  std::string body;
  while (!c.AtEnd()) {
    if (c.Peek() == '<' && c.StartsWithIgnoreCase(close)) break;
    body.push_back(c.Next());
  }
  return body;
}

}  // namespace

std::string_view Token::Attribute(std::string_view key) const {
  for (const auto& [attr_name, value] : attributes) {
    if (attr_name == key) return value;
  }
  return {};
}

std::vector<Token> TokenizeHtml(std::string_view input) {
  std::vector<Token> tokens;
  Cursor c(input);
  std::string pending_text;

  auto flush_text = [&]() {
    if (pending_text.empty()) return;
    Token t;
    t.type = TokenType::kText;
    t.text = DecodeEntities(pending_text);
    tokens.push_back(std::move(t));
    pending_text.clear();
  };

  while (!c.AtEnd()) {
    if (c.Peek() != '<') {
      pending_text.push_back(c.Next());
      continue;
    }
    // Comment.
    if (c.StartsWith("<!--")) {
      flush_text();
      c.Advance(4);
      Token t;
      t.type = TokenType::kComment;
      while (!c.AtEnd() && !c.StartsWith("-->")) t.text.push_back(c.Next());
      if (!c.AtEnd()) c.Advance(3);
      tokens.push_back(std::move(t));
      continue;
    }
    // Doctype or other <! declaration.
    if (c.Peek(1) == '!') {
      flush_text();
      c.Advance(2);
      Token t;
      t.type = TokenType::kDoctype;
      while (!c.AtEnd() && c.Peek() != '>') t.text.push_back(c.Next());
      if (!c.AtEnd()) c.Advance(1);
      tokens.push_back(std::move(t));
      continue;
    }
    // End tag.
    if (c.Peek(1) == '/') {
      size_t mark = c.pos();
      c.Advance(2);
      if (!IsTagNameStart(c.Peek())) {
        c.set_pos(mark);
        pending_text.push_back(c.Next());  // literal '<'
        continue;
      }
      flush_text();
      Token t;
      t.type = TokenType::kEndTag;
      t.name = ReadTagName(c);
      while (!c.AtEnd() && c.Peek() != '>') c.Advance(1);
      if (!c.AtEnd()) c.Advance(1);
      tokens.push_back(std::move(t));
      continue;
    }
    // Start tag.
    if (IsTagNameStart(c.Peek(1))) {
      flush_text();
      c.Advance(1);
      Token t;
      t.type = TokenType::kStartTag;
      t.name = ReadTagName(c);
      ReadAttributes(c, t);
      if (!c.AtEnd() && c.Peek() == '>') c.Advance(1);
      bool rawtext = (t.name == "script" || t.name == "style") &&
                     !t.self_closing;
      std::string raw_name = t.name;
      tokens.push_back(std::move(t));
      if (rawtext) {
        std::string body = ReadRawText(c, raw_name);
        if (!body.empty()) {
          Token text_token;
          text_token.type = TokenType::kText;
          text_token.text = std::move(body);  // raw: no entity decoding
          tokens.push_back(std::move(text_token));
        }
      }
      continue;
    }
    // Bare '<' that does not begin a tag.
    pending_text.push_back(c.Next());
  }
  flush_text();
  return tokens;
}

}  // namespace somr::html::reference
