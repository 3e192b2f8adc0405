#include "wikitext/inline_markup.h"

#include "common/string_util.h"
#include "html/entities.h"

namespace somr::wikitext {

namespace {

/// Removes <ref>...</ref> (including attributes and self-closing form).
/// Text between refs is appended in bulk, not char by char.
std::string DropRefs(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    size_t lt = s.find('<', i);
    if (lt == std::string_view::npos) {
      out.append(s.substr(i));
      return out;
    }
    out.append(s.substr(i, lt - i));
    i = lt;
    if (i + 4 <= s.size() && EqualsIgnoreAsciiCase(s.substr(i, 4), "<ref")) {
      size_t close = s.find('>', i);
      if (close == std::string_view::npos) return out;
      if (s[close - 1] == '/') {  // self-closing <ref name=x />
        i = close + 1;
        continue;
      }
      size_t end = std::string_view::npos;
      for (size_t j = close; j + 6 <= s.size(); ++j) {
        if (EqualsIgnoreAsciiCase(s.substr(j, 6), "</ref>")) {
          end = j;
          break;
        }
      }
      if (end == std::string_view::npos) return out;
      i = end + 6;
    } else {
      out.push_back('<');
      ++i;
    }
  }
  return out;
}

/// Removes remaining <...> tags, keeping their inner text. An unclosed
/// tag swallows the rest of the string (as before).
std::string DropTags(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    size_t lt = s.find('<', i);
    if (lt == std::string_view::npos) {
      out.append(s.substr(i));
      break;
    }
    out.append(s.substr(i, lt - i));
    size_t gt = s.find('>', lt + 1);
    if (gt == std::string_view::npos) break;
    i = gt + 1;
  }
  return out;
}

}  // namespace

namespace {

/// Invocations nested deeper than this render as nothing, as an unknown
/// template does: MediaWiki's own limit ($wgMaxTemplateDepth). It bounds
/// the rescans of a cell to this many, and the recursion to this depth.
constexpr int kMaxTemplateDepth = 40;

/// Renders an inline template invocation `{{name|p1|k=v|...}}` the way a
/// reader sees it, approximately: positional parameter values joined by
/// spaces (covers {{start date|2001|2|3}} -> "2001 2 3"); named
/// parameters' values included, keys dropped. Unknown no-parameter
/// templates ({{citation needed}}) render to nothing. Render's `nesting`
/// counts the invocation itself and those around it.
std::string ExpandInlineTemplates(std::string_view s, int nesting);

std::string RenderInlineTemplate(std::string_view body, int nesting) {
  std::string out;
  int brace_depth = 0, bracket_depth = 0;
  size_t start = 0;
  bool first_part = true;  // the template name
  auto emit = [&](std::string_view part) {
    if (first_part) {
      first_part = false;  // drop the name
      return;
    }
    size_t eq = part.find('=');
    std::string_view value =
        eq != std::string_view::npos && part.find("[[") > eq
            ? part.substr(eq + 1)
            : part;
    value = StripAsciiWhitespace(value);
    if (value.empty()) return;
    if (!out.empty()) out.push_back(' ');
    if (value.find("{{") != std::string_view::npos) {
      out.append(ExpandInlineTemplates(value, nesting));  // nested templates
    } else {
      out.append(value);
    }
  };
  for (size_t i = 0; i < body.size(); ++i) {
    if (i + 1 < body.size()) {
      if (body[i] == '{' && body[i + 1] == '{') {
        brace_depth++;
        ++i;
        continue;
      }
      if (body[i] == '}' && body[i + 1] == '}' && brace_depth > 0) {
        brace_depth--;
        ++i;
        continue;
      }
      if (body[i] == '[' && body[i + 1] == '[') {
        bracket_depth++;
        ++i;
        continue;
      }
      if (body[i] == ']' && body[i + 1] == ']' && bracket_depth > 0) {
        bracket_depth--;
        ++i;
        continue;
      }
    }
    if (body[i] == '|' && brace_depth == 0 && bracket_depth == 0) {
      emit(body.substr(start, i - start));
      start = i + 1;
    }
  }
  emit(body.substr(start));
  return out;
}

/// Replaces top-level `{{...}}` invocations with their rendered text;
/// `nesting` invocations enclose `s`.
std::string ExpandInlineTemplates(std::string_view s, int nesting) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (i + 1 < s.size() && s[i] == '{' && s[i + 1] == '{') {
      // Find the matching close, honoring nesting.
      int depth = 0;
      size_t j = i;
      size_t end = std::string_view::npos;
      while (j + 1 < s.size() + 1) {
        if (j + 1 < s.size() && s[j] == '{' && s[j + 1] == '{') {
          depth++;
          j += 2;
          continue;
        }
        if (j + 1 < s.size() && s[j] == '}' && s[j + 1] == '}') {
          depth--;
          j += 2;
          if (depth == 0) {
            end = j;
            break;
          }
          continue;
        }
        ++j;
      }
      if (end != std::string_view::npos) {
        if (nesting < kMaxTemplateDepth) {
          out.append(RenderInlineTemplate(s.substr(i + 2, end - i - 4),
                                          nesting + 1));
        }
        i = end;
        continue;
      }
    }
    out.push_back(s[i]);
    ++i;
  }
  return out;
}

}  // namespace

std::string StripInlineMarkup(std::string_view input) {
  // Each pass runs only when its trigger character is present, so plain
  // cells (the common case) go straight to whitespace collapsing without
  // building any intermediate strings.
  std::string_view s = input;
  std::string refs_buf;
  if (s.find('<') != std::string_view::npos) {
    refs_buf = DropRefs(s);
    s = refs_buf;
  }
  std::string tmpl_buf;
  if (s.find("{{") != std::string_view::npos) {
    tmpl_buf = ExpandInlineTemplates(s, 0);
    s = tmpl_buf;
  }
  std::string link_buf;
  if (s.find_first_of("['") != std::string_view::npos) {
    std::string& out = link_buf;
    out.reserve(s.size());
    size_t i = 0;
    while (i < s.size()) {
      size_t next = s.find_first_of("['", i);
      if (next == std::string_view::npos) {
        out.append(s.substr(i));
        break;
      }
      out.append(s.substr(i, next - i));
      i = next;
      // Internal link [[Target|Label]] or [[Target]].
      if (i + 1 < s.size() && s[i] == '[' && s[i + 1] == '[') {
        size_t end = s.find("]]", i + 2);
        if (end != std::string_view::npos) {
          std::string_view body = s.substr(i + 2, end - i - 2);
          size_t pipe = body.rfind('|');
          std::string_view shown =
              pipe == std::string_view::npos ? body : body.substr(pipe + 1);
          out.append(shown);
          i = end + 2;
          continue;
        }
      }
      // External link [http://... label].
      if (s[i] == '[' && (i + 1 >= s.size() || s[i + 1] != '[')) {
        size_t end = s.find(']', i + 1);
        if (end != std::string_view::npos) {
          std::string_view body = s.substr(i + 1, end - i - 1);
          size_t space = body.find(' ');
          if (space != std::string_view::npos) {
            out.append(body.substr(space + 1));
          }
          // Bare external link: drop the URL entirely.
          i = end + 1;
          continue;
        }
      }
      // Bold/italic quote runs '' ''' '''''.
      if (s[i] == '\'' && i + 1 < s.size() && s[i + 1] == '\'') {
        size_t run = 0;
        while (i + run < s.size() && s[i + run] == '\'') ++run;
        i += run;
        continue;
      }
      out.push_back(s[i]);
      ++i;
    }
    s = link_buf;
  }
  std::string tag_buf;
  if (s.find('<') != std::string_view::npos) {
    tag_buf = DropTags(s);
    s = tag_buf;
  }
  std::string entity_buf;
  if (s.find('&') != std::string_view::npos) {
    entity_buf = html::DecodeEntities(s);
    s = entity_buf;
  }
  return CollapseWhitespace(s);
}

std::vector<std::string> ExtractLinkTargets(std::string_view s) {
  std::vector<std::string> targets;
  size_t i = 0;
  while (i + 1 < s.size()) {
    if (s[i] == '[' && s[i + 1] == '[') {
      size_t end = s.find("]]", i + 2);
      if (end == std::string_view::npos) break;
      std::string_view body = s.substr(i + 2, end - i - 2);
      size_t pipe = body.find('|');
      std::string_view target =
          pipe == std::string_view::npos ? body : body.substr(0, pipe);
      targets.emplace_back(StripAsciiWhitespace(target));
      i = end + 2;
    } else {
      ++i;
    }
  }
  return targets;
}

}  // namespace somr::wikitext
