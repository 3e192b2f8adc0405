// Differential tests of the one-pass parser and the extractor over the
// flat html::Document against the reference tokenizer, tree builder and
// extractor (tests/html/reference): every input must give the same
// OuterHtml, subtree size and extracted objects. Inputs: wikigen pages of
// every theme and focal type with and without web chrome, crawl-sampled
// histories, seeded mutants and tag soup, and nesting up to the
// reference's own recursion limit.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "archive/crawl_sampler.h"
#include "common/rng.h"
#include "extract/html_extractor.h"
#include "html/parser.h"
#include "reference/html_extractor.h"
#include "reference/parser.h"
#include "wikigen/evolver.h"

namespace somr::html {
namespace {

constexpr wikigen::PageTheme kThemes[] = {
    wikigen::PageTheme::kAwards, wikigen::PageTheme::kSettlement,
    wikigen::PageTheme::kSports, wikigen::PageTheme::kDiscography,
    wikigen::PageTheme::kGeneric};
constexpr extract::ObjectType kFocalTypes[] = {extract::ObjectType::kTable,
                                               extract::ObjectType::kInfobox,
                                               extract::ObjectType::kList};

/// Compares one input; on a mismatch, records what differed.
class Differential {
 public:
  void Check(const std::string& input) {
    ++inputs_;
    const Document doc = ParseHtml(input);
    const std::unique_ptr<reference::Node> ref = reference::ParseHtml(input);
    const char* what = nullptr;
    if (doc.root().OuterHtml() != ref->OuterHtml()) {
      what = "OuterHtml";
    } else if (doc.root().SubtreeSize() != ref->SubtreeSize()) {
      what = "SubtreeSize";
    } else if (!(extract::ExtractFromHtmlSource(input) ==
                 extract::reference::ExtractFromHtmlSource(input))) {
      what = "ExtractFromHtmlSource";
    }
    if (what == nullptr) return;
    if (mismatches_.empty()) first_ = input.substr(0, 300);
    mismatches_.push_back(what);
  }

  void ExpectNoMismatch(size_t min_inputs) const {
    EXPECT_GE(inputs_, min_inputs);
    EXPECT_TRUE(mismatches_.empty())
        << mismatches_.size() << " of " << inputs_ << " inputs differ; first "
        << "in " << mismatches_[0] << " on:\n"
        << first_;
  }

 private:
  size_t inputs_ = 0;
  std::vector<const char*> mismatches_;
  std::string first_;
};

wikigen::GeneratedPage Generate(wikigen::PageTheme theme,
                                extract::ObjectType focal, bool chrome,
                                uint64_t seed, int revisions) {
  wikigen::EvolverConfig config;
  config.theme = theme;
  config.focal_type = focal;
  config.max_focal_objects = 6;
  config.num_revisions = revisions;
  config.html_web_chrome = chrome;
  config.seed = seed;
  return wikigen::PageEvolver(config).Generate();
}

TEST(HtmlDifferentialTest, GeneratedPagesOfEveryThemeAndType) {
  Differential diff;
  uint64_t seed = 1;
  for (wikigen::PageTheme theme : kThemes) {
    for (extract::ObjectType focal : kFocalTypes) {
      for (bool chrome : {false, true}) {
        for (const wikigen::GeneratedRevision& rev :
             Generate(theme, focal, chrome, seed++, 8).revisions) {
          diff.Check(rev.html);
        }
      }
    }
  }
  diff.ExpectNoMismatch(5 * 3 * 2 * 8);
}

TEST(HtmlDifferentialTest, CrawlSampledHistories) {
  Differential diff;
  Rng rng(17);
  for (uint64_t seed = 40; seed < 46; ++seed) {
    const wikigen::GeneratedPage page =
        Generate(kThemes[seed % 5], kFocalTypes[seed % 3], true, seed, 40);
    for (const xmldump::Revision& rev :
         archive::SampleCrawls(page, 20.0, rng).page.revisions) {
      diff.Check(rev.text);
    }
  }
  diff.ExpectNoMismatch(60);
}

/// Random markup from pieces that exercise every tokenizer and tree rule:
/// uppercase names, repeated attributes, references in attributes and
/// text, unclosed comments and scripts, stray and implied end tags.
std::string TagSoup(Rng& rng) {
  static const char* const kPieces[] = {
      "<DIV>", "</div>", "<Td>", "</TR>", "<table>", "</TABLE>", "<tr>",
      "<th colspan=2>", "<td rowspan=\"3\" ROWSPAN='1'>", "<caption>",
      "<tbody>", "</tbody>", "<thead>", "<tfoot>", "<li>", "</li>", "<UL>",
      "</ul>", "<ol>", "</ol>", "<p>", "</p>", "<h2>", "</h2>", "<h1>",
      "<h3>", "<nav>", "</nav>", "<aside>", "<header>", "<footer>",
      "<table class=\"infobox\">", "<table role=presentation>",
      "<TABLE CLASS=\"navbox layout\">", "<div role=navigation>",
      "<a HREF=x href='y' Href=\"z\">", "</a>", "<b>", "</i>", "<span>",
      "</span>", "<dl><dt>", "<dd>", "<select><option>", "<optgroup>",
      "&amp;", "&lt;", "&gt;", "&quot;", "&#x41;", "&#65;", "&#0;",
      "&#x110000;", "&#xD800;", "&bogus;", "&nbsp;", "&euro;", "& ", "&",
      "<!-- c ", "-->", "<!---->", "<!DOCTYPE html>", "<!x", "<script>",
      "</SCRIPT>", "</script ", "<style>", "</style>", "<br/>", "</br>",
      "<img src=\"a&amp;b\" alt='&lt;x&gt;'>", "<hr>", "<input checked>",
      "<", "</", "</ ", "<3", "<a", " x=", "='v'", "/>", "/", ">", "=", "'",
      "\"", "text", "Word", " ", "\n", "\t", "\xC3\xA9", "\xFF"};
  constexpr size_t kCount = sizeof(kPieces) / sizeof(kPieces[0]);
  std::string out;
  const size_t pieces = 1 + rng.Index(60);
  for (size_t i = 0; i < pieces; ++i) out += kPieces[rng.Index(kCount)];
  return out;
}

std::string Mutant(const std::vector<std::string>& corpus, Rng& rng) {
  std::string input = corpus[rng.Index(corpus.size())];
  if (input.empty()) return input;
  switch (rng.UniformInt(0, 2)) {
    case 0:  // bit flips
      for (int flips = static_cast<int>(rng.UniformInt(1, 8)); flips > 0;
           --flips) {
        input[rng.Index(input.size())] ^=
            static_cast<char>(1 << rng.UniformInt(0, 7));
      }
      return input;
    case 1:  // truncation
      return input.substr(0, rng.Index(input.size()));
    default: {  // splice: a piece of one input into another
      const std::string& donor = corpus[rng.Index(corpus.size())];
      const size_t from = rng.Index(donor.size() + 1);
      const size_t length = rng.Index(donor.size() - from + 1);
      const size_t at = rng.Index(input.size() + 1);
      input.replace(at, rng.Index(input.size() - at + 1),
                    donor.substr(from, length));
      return input;
    }
  }
}

TEST(HtmlDifferentialTest, SeededMutantsAndTagSoup) {
  Differential diff;
  Rng rng(29);
  std::vector<std::string> corpus;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    corpus.push_back(Generate(kThemes[seed % 5], kFocalTypes[seed % 3],
                              seed % 2 == 0, 100 + seed, 3)
                         .revisions.back()
                         .html);
  }
  for (int i = 0; i < 600; ++i) {
    const std::string soup = TagSoup(rng);
    diff.Check(soup);
    corpus.push_back(soup);
  }
  for (int i = 0; i < 900; ++i) diff.Check(Mutant(corpus, rng));
  diff.ExpectNoMismatch(1500);
}

TEST(HtmlDifferentialTest, NestingUpToTheReferenceLimit) {
  Differential diff;
  constexpr const char* kTable =
      "<table><tr><th>k</th><td>v</td></tr></table>";
  for (int depth : {1, 2, 10, 100, 500, 2000}) {
    std::string divs, lists, cells, closed;
    for (int i = 0; i < depth; ++i) {
      divs += "<div>";
      lists += "<ul><li>item";
      cells += "<table><tr><td>";
      closed += "<span>";
    }
    diff.Check(divs + kTable);
    diff.Check(lists);
    diff.Check(cells + "x");
    diff.Check("<h2>s</h2>" + closed + kTable + "</span>" + divs + "</ul>");
  }
  diff.ExpectNoMismatch(24);
}

}  // namespace
}  // namespace somr::html
