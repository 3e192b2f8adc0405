#pragma once

#include <string_view>

#include "extract/object.h"
#include "html/dom.h"

namespace somr::extract {

/// Extracts structured objects from an HTML document:
///   - `<table class="infobox">` elements become infoboxes (th/td pairs);
///   - other `<table>` elements become tables;
///   - top-level `<ul>`/`<ol>` elements (not nested in another list or in
///     a table) become lists.
/// Section paths follow `<h2>`..`<h6>` headings in document order.
PageObjects ExtractFromHtml(const html::Document& document);

/// Convenience: parse + extract in one step.
PageObjects ExtractFromHtmlSource(std::string_view source);

}  // namespace somr::extract
