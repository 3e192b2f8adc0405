#pragma once

#include <memory>
#include <string>
#include <vector>

#include "extract/wikitext_extractor.h"
#include "matching/interface.h"
#include "matching/matcher.h"
#include "xmldump/dump.h"

namespace somr::eval {

/// The four matching approaches of the evaluation (Sec. V-B).
enum class Approach {
  kOurs,
  kPosition,
  kSchema,  // tables & infoboxes only
  kKorn,    // tables only
};

const char* ApproachName(Approach approach);

/// True when `approach` is defined for `type` (lists have no schema; Korn
/// et al. applies only to tables).
bool ApproachApplies(Approach approach, extract::ObjectType type);

/// Creates a fresh matcher of the given approach for one page/type run.
/// `config` parameterizes only our approach; baselines use their own
/// published settings.
std::unique_ptr<matching::RevisionMatcher> MakeMatcher(
    Approach approach, extract::ObjectType type,
    const matching::MatcherConfig& config = {});

/// Extracts one revision's object instances: its text is parsed as HTML
/// when `revision.model` is "html", and otherwise as the next revision of
/// `wikitext`.
extract::PageObjects ExtractRevision(const xmldump::Revision& revision,
                                     extract::WikitextHistory& wikitext);

/// Extracts the per-revision object instances of one dump page, through
/// ExtractRevision and one extract::WikitextHistory per call.
std::vector<extract::PageObjects> ExtractRevisionObjects(
    const xmldump::PageHistory& page);

/// Instances of one object type across revisions, position order.
std::vector<std::vector<extract::ObjectInstance>> SliceType(
    const std::vector<extract::PageObjects>& revisions,
    extract::ObjectType type);

/// Runs a matcher over a page's revision stream and returns its graph.
matching::IdentityGraph RunMatcher(
    matching::RevisionMatcher& matcher,
    const std::vector<std::vector<extract::ObjectInstance>>& per_revision);

/// Convenience: extract + run in one call.
matching::IdentityGraph RunApproachOnPage(
    Approach approach, extract::ObjectType type,
    const std::vector<std::vector<extract::ObjectInstance>>& per_revision,
    const matching::MatcherConfig& config = {});

}  // namespace somr::eval
