#include "eval/harness.h"

#include "baselines/korn_matcher.h"
#include "baselines/position_baseline.h"
#include "baselines/schema_baseline.h"
#include "extract/html_extractor.h"
#include "extract/wikitext_extractor.h"

namespace somr::eval {

const char* ApproachName(Approach approach) {
  switch (approach) {
    case Approach::kOurs:
      return "Our approach";
    case Approach::kPosition:
      return "Position";
    case Approach::kSchema:
      return "Schema";
    case Approach::kKorn:
      return "Korn et al.";
  }
  return "unknown";
}

bool ApproachApplies(Approach approach, extract::ObjectType type) {
  switch (approach) {
    case Approach::kOurs:
    case Approach::kPosition:
      return true;
    case Approach::kSchema:
      return type != extract::ObjectType::kList;
    case Approach::kKorn:
      return type == extract::ObjectType::kTable;
  }
  return false;
}

std::unique_ptr<matching::RevisionMatcher> MakeMatcher(
    Approach approach, extract::ObjectType type,
    const matching::MatcherConfig& config) {
  switch (approach) {
    case Approach::kOurs:
      return std::make_unique<matching::TemporalMatcher>(type, config);
    case Approach::kPosition:
      return std::make_unique<baselines::PositionBaseline>(type);
    case Approach::kSchema:
      return std::make_unique<baselines::SchemaBaseline>(type);
    case Approach::kKorn:
      return std::make_unique<baselines::KornMatcher>();
  }
  return nullptr;
}

extract::PageObjects ExtractRevision(const xmldump::Revision& revision,
                                     extract::WikitextHistory& wikitext) {
  if (revision.model == "html") {
    return extract::ExtractFromHtmlSource(revision.text);
  }
  return wikitext.Next(revision.text);
}

std::vector<extract::PageObjects> ExtractRevisionObjects(
    const xmldump::PageHistory& page) {
  std::vector<extract::PageObjects> revisions;
  revisions.reserve(page.revisions.size());
  extract::WikitextHistory wikitext;
  for (const xmldump::Revision& rev : page.revisions) {
    revisions.push_back(ExtractRevision(rev, wikitext));
  }
  return revisions;
}

std::vector<std::vector<extract::ObjectInstance>> SliceType(
    const std::vector<extract::PageObjects>& revisions,
    extract::ObjectType type) {
  std::vector<std::vector<extract::ObjectInstance>> sliced;
  sliced.reserve(revisions.size());
  for (const extract::PageObjects& objects : revisions) {
    sliced.push_back(objects.OfType(type));
  }
  return sliced;
}

matching::IdentityGraph RunMatcher(
    matching::RevisionMatcher& matcher,
    const std::vector<std::vector<extract::ObjectInstance>>& per_revision) {
  for (size_t r = 0; r < per_revision.size(); ++r) {
    matcher.ProcessRevision(static_cast<int>(r), per_revision[r]);
  }
  return matcher.graph();
}

matching::IdentityGraph RunApproachOnPage(
    Approach approach, extract::ObjectType type,
    const std::vector<std::vector<extract::ObjectInstance>>& per_revision,
    const matching::MatcherConfig& config) {
  std::unique_ptr<matching::RevisionMatcher> matcher =
      MakeMatcher(approach, type, config);
  return RunMatcher(*matcher, per_revision);
}

}  // namespace somr::eval
