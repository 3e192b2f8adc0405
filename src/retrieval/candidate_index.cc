#include "retrieval/candidate_index.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"

namespace somr::retrieval {
namespace {

/// Compaction triggers once stale postings outnumber live ones AND the
/// absolute waste is worth a rewrite; the floor keeps tiny indexes from
/// compacting constantly.
constexpr uint64_t kCompactionFloor = 1024;

/// Slop on the early-termination threshold so borderline floating-point
/// comparisons always err on the side of keeping a term. Matches the
/// bound slack the matcher applies when filtering candidates.
constexpr double kThetaSlack = 1e-9;

}  // namespace

void CandidateIndex::SetWindow(uint32_t object,
                               const std::deque<FlatBag>& window) {
  if (object >= generation_.size()) {
    generation_.resize(object + 1, 0);
    live_postings_.resize(object + 1, 0);
    has_empty_.resize(object + 1, 0);
  }
  // Fold the versions into one ascending (id, max count) list.
  window_max_.clear();
  bool has_empty = false;
  for (const FlatBag& bag : window) {
    has_empty = has_empty || bag.empty();
    const std::vector<FlatEntry>& b = bag.entries();
    merge_scratch_.clear();
    size_t i = 0;
    size_t j = 0;
    while (i < window_max_.size() && j < b.size()) {
      if (window_max_[i].id < b[j].id) {
        merge_scratch_.push_back(window_max_[i++]);
      } else if (b[j].id < window_max_[i].id) {
        merge_scratch_.push_back(b[j++]);
      } else {
        merge_scratch_.push_back(
            {b[j].id, std::max(window_max_[i].count, b[j].count)});
        ++i;
        ++j;
      }
    }
    merge_scratch_.insert(merge_scratch_.end(), window_max_.begin() + i,
                          window_max_.end());
    merge_scratch_.insert(merge_scratch_.end(), b.begin() + j, b.end());
    window_max_.swap(merge_scratch_);
  }

  const uint32_t generation = ++generation_[object];
  dead_postings_ += live_postings_[object];
  live_postings_[object] = static_cast<uint32_t>(window_max_.size());
  has_empty_[object] = has_empty ? 1 : 0;
  if (!window_max_.empty() && lists_.size() <= window_max_.back().id) {
    lists_.resize(window_max_.back().id + 1);
  }
  for (const FlatEntry& e : window_max_) {
    lists_[e.id].push_back({object, generation, e.count});
  }
  total_postings_ += window_max_.size();
  MaybeCompact();
}

void CandidateIndex::MaybeCompact() {
  if (dead_postings_ < kCompactionFloor ||
      dead_postings_ * 2 <= total_postings_) {
    return;
  }
  uint64_t live = 0;
  auto stale = [this](const Posting& p) { return !Live(p); };
  for (std::vector<Posting>& list : lists_) {
    list.erase(std::remove_if(list.begin(), list.end(), stale), list.end());
    live += list.size();
  }
  total_postings_ = live;
  dead_postings_ = 0;
  ++stats_.compactions;
}

void CandidateIndex::RetrieveOverlaps(const FlatBag& query,
                                      const sim::DenseTokenWeights& weights,
                                      double query_weighted_total,
                                      double theta, bool allow_early_exit,
                                      RetrievalResult* out) {
  out->candidates.clear();
  out->slack = 0.0;
  ++stats_.queries;
  if (generation_.empty() || query.empty()) return;
  if (acc_.size() < generation_.size()) {
    acc_.resize(generation_.size(), 0.0);
    acc_mark_.resize(generation_.size(), 0);
  }
  ++query_serial_;
  touched_.clear();

  // Collect the query terms that have a posting list, in ascending id
  // order, with their score caps w_t * count_query(t): no live posting
  // can contribute more than its term cap to any overlap.
  terms_.clear();
  for (const FlatEntry& e : query.entries()) {
    if (e.id >= lists_.size() || lists_[e.id].empty()) continue;
    const double w = weights.Weight(e.id);
    terms_.push_back({e.id, w * e.count, e.count, w});
  }
  if (terms_.empty()) return;

  // sim_strict(q, v) <= overlap / total_q: once the unvisited terms'
  // mass cannot reach theta * total_q, no object touched only by tail
  // terms can clear theta, and every touched object's bound is completed
  // by adding the remaining mass as slack. The remaining mass starts as
  // the total cap, summed in id order for determinism, and the walk
  // takes the highest-cap terms first (ties by id) so that it decays as
  // fast as possible.
  double remaining = 0.0;
  double exit_below = 0.0;
  if (allow_early_exit) {
    for (const TermRef& t : terms_) remaining += t.cap;
    std::sort(terms_.begin(), terms_.end(),
              [](const TermRef& a, const TermRef& b) {
                if (a.cap != b.cap) return a.cap > b.cap;
                return a.id < b.id;
              });
    exit_below = (theta - kThetaSlack) * query_weighted_total;
  }

  // One pass per term: each object has at most one live posting in a
  // list, so each object's sum runs in term order whatever the posting
  // interleaving, and a rebuilt index accumulates bit-identically.
  size_t walked = 0;
  for (const TermRef& t : terms_) {
    if (allow_early_exit && walked > 0 && remaining < exit_below) break;
    ++walked;
    const std::vector<Posting>& list = lists_[t.id];
    stats_.postings_scanned += list.size();
    for (const Posting& p : list) {
      if (!Live(p)) continue;
      const double contribution =
          t.weight * (t.count < p.count ? t.count : p.count);
      if (acc_mark_[p.object] != query_serial_) {
        acc_mark_[p.object] = query_serial_;
        acc_[p.object] = contribution;
        touched_.push_back(p.object);
      } else {
        acc_[p.object] += contribution;
      }
    }
    remaining -= t.cap;
  }
  if (walked < terms_.size()) {
    for (size_t i = walked; i < terms_.size(); ++i) {
      stats_.wand_skips += lists_[terms_[i].id].size();
    }
    out->slack = remaining;
  }

  out->candidates.reserve(touched_.size());
  for (const uint32_t object : touched_) {
    out->candidates.push_back({object, acc_[object]});
  }
  std::sort(out->candidates.begin(), out->candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.object < b.object;
            });
}

void CandidateIndex::ValidEmptyObjects(std::vector<uint32_t>* out) const {
  out->clear();
  for (uint32_t object = 0; object < has_empty_.size(); ++object) {
    if (has_empty_[object] != 0) out->push_back(object);
  }
}

void CandidateIndex::Validate(
    const std::vector<const std::deque<FlatBag>*>& windows,
    ValidationReport* report) const {
  if (windows.size() != generation_.size()) {
    report->AddIssue("retrieval_index")
        << "tracks " << generation_.size() << " objects, matcher has "
        << windows.size();
    return;
  }
  // The expected postings, from the windows alone: per object, each
  // distinct window token with its largest count over the versions.
  std::vector<std::unordered_map<uint32_t, double>> window_max(
      windows.size());
  uint64_t window_tokens = 0;
  for (size_t object = 0; object < windows.size(); ++object) {
    bool has_empty = false;
    for (const FlatBag& bag : *windows[object]) {
      has_empty = has_empty || bag.empty();
      for (const FlatEntry& e : bag.entries()) {
        double& best = window_max[object][e.id];
        best = std::max(best, e.count);
      }
    }
    window_tokens += window_max[object].size();
    if (has_empty != (has_empty_[object] != 0)) {
      report->AddIssue("retrieval_index")
          << "object " << object << " empty flag is "
          << (has_empty_[object] != 0) << ", window "
          << (has_empty ? "has" : "has no") << " empty version";
    }
  }

  // Every live posting carries its token's window max, and no (object,
  // token) has two live postings.
  uint64_t live_postings = 0;
  std::unordered_set<uint32_t> seen;
  for (uint32_t token = 0; token < lists_.size(); ++token) {
    seen.clear();
    for (const Posting& p : lists_[token]) {
      if (!Live(p)) continue;
      ++live_postings;
      if (!seen.insert(p.object).second) {
        report->AddIssue("retrieval_index")
            << "duplicate live posting for object " << p.object
            << " in list " << token;
      }
      const auto it = window_max[p.object].find(token);
      if (it == window_max[p.object].end()) {
        report->AddIssue("retrieval_index")
            << "live posting for object " << p.object << " token " << token
            << " absent from its window";
      } else if (it->second != p.count) {
        report->AddIssue("retrieval_index")
            << "posting count " << p.count << " for object " << p.object
            << " token " << token << ", window max is " << it->second;
      }
    }
  }

  // Counting both directions: the checks above prove every live posting
  // maps to a distinct window token; equal totals then prove every
  // window token has its posting.
  if (live_postings != window_tokens) {
    report->AddIssue("retrieval_index")
        << live_postings << " live postings vs " << window_tokens
        << " distinct window tokens";
  }
}

}  // namespace somr::retrieval
