#pragma once

#include <deque>
#include <vector>

#include "common/check.h"
#include "retrieval/candidate_index.h"
#include "text/flat_bag.h"

namespace somr::retrieval {

/// Cross-checks the inverted index against the matcher's rear-view
/// windows (`windows[object]` = that object's recent FlatBags, oldest
/// first): each live posting carries its token's largest count over the
/// object's window, no (object, token) has two live postings, the live
/// posting total equals the number of distinct window tokens, and an
/// object's empty flag is set exactly when some window version is empty.
/// Run at step boundaries in debug builds and by `somr_process
/// --validate`.
void ValidateCandidateIndex(
    const CandidateIndex& index,
    const std::vector<const std::deque<FlatBag>*>& windows,
    ValidationReport* report);

SOMR_REGISTER_VALIDATOR(retrieval_index, "retrieval_index",
                        "inverted-index postings agree with the rear-view "
                        "FlatBag windows (window-max counts, one posting "
                        "per object and token, totals, empty flags)");

}  // namespace somr::retrieval
