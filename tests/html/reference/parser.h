#pragma once

// Part of the differential tests' reference; see html_extractor.h.

#include <memory>
#include <string_view>

#include "dom.h"

namespace somr::html::reference {

/// Parses an HTML document into a DOM tree. The parser follows HTML5
/// recovery in spirit: it never fails, auto-closes elements with optional
/// end tags (<li>, <p>, <tr>, <td>, <th>, <dt>, <dd>, <option>, <thead>,
/// <tbody>, <tfoot>), ignores stray end tags, and drops void-element end
/// tags. It does NOT implement the full spec's foster parenting — tables
/// written by our generator and by well-formed pages round-trip exactly.
std::unique_ptr<Node> ParseHtml(std::string_view input);

}  // namespace somr::html::reference
