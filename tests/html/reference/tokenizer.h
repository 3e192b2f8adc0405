#pragma once

// Part of the differential tests' reference; see html_extractor.h.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace somr::html::reference {

/// Kinds of lexical tokens produced by the HTML tokenizer.
enum class TokenType {
  kStartTag,   // <div class="x">  (self_closing for <br/>)
  kEndTag,     // </div>
  kText,       // character data (entity-decoded)
  kComment,    // <!-- ... -->
  kDoctype,    // <!DOCTYPE html>
};

/// One lexical token. Tag names are lowercased; attribute values are
/// entity-decoded; text is entity-decoded raw character data.
struct Token {
  TokenType type = TokenType::kText;
  std::string name;  // tag name for start/end tags
  std::string text;  // character data / comment body / doctype body
  std::vector<std::pair<std::string, std::string>> attributes;
  bool self_closing = false;

  /// First value for attribute `key` (lowercase), or "" if absent.
  std::string_view Attribute(std::string_view key) const;
};

/// Tokenizes an HTML document. This is a pragmatic HTML5-flavoured
/// tokenizer: it handles quoted/unquoted attributes, self-closing tags,
/// comments, doctype, and RAWTEXT content for <script> and <style>. It
/// never fails — bogus markup degrades to text, as in browsers.
std::vector<Token> TokenizeHtml(std::string_view input);

}  // namespace somr::html::reference
