#pragma once

// The reference for the differential tests (tests/html/differential_test.cc):
// the HTML tokenizer, tree builder and extractor as they stood before the
// flat html::Document, kept verbatim but for namespaces and includes. A
// std::vector<Token> feeds a unique_ptr<Node> tree that every walk
// recurses over, so inputs stay within about 2,000 nesting levels here.

#include <string_view>

#include "extract/object.h"
#include "dom.h"

namespace somr::extract::reference {

namespace html = somr::html::reference;

/// Extracts structured objects from an HTML DOM:
///   - `<table class="infobox">` elements become infoboxes (th/td pairs);
///   - other `<table>` elements become tables;
///   - top-level `<ul>`/`<ol>` elements (not nested in another list or in
///     a table) become lists.
/// Section paths follow `<h2>`..`<h6>` headings in document order.
PageObjects ExtractFromHtml(const html::Node& document);

/// Convenience: parse + extract in one step.
PageObjects ExtractFromHtmlSource(std::string_view source);

}  // namespace somr::extract::reference
