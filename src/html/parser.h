#pragma once

#include <string_view>

#include "html/dom.h"

namespace somr::html {

/// Parses an HTML document into a Document in one pass: the tokenizer
/// feeds the tree builder directly, with no token list between them. The
/// tokenizer is pragmatic and HTML5-flavoured: quoted and unquoted
/// attributes, self-closing tags, comments, doctype (dropped), RAWTEXT
/// content for <script> and <style>; bogus markup degrades to text, as
/// in browsers. Tag and attribute names are lowercased, text and
/// attribute values entity-decoded (script and style bodies stay raw),
/// and a repeated attribute keeps its first position and its last value.
/// The parser follows HTML5 recovery in spirit: it never fails,
/// auto-closes elements with optional end tags (<li>, <p>, <tr>, <td>,
/// <th>, <dt>, <dd>, <option>, <thead>, <tbody>, <tfoot>), ignores stray
/// end tags, and drops void-element end tags. It does NOT implement the
/// full spec's foster parenting — tables written by our generator and by
/// well-formed pages round-trip exactly.
Document ParseHtml(std::string_view input);

}  // namespace somr::html
