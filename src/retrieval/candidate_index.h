#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/similarity.h"
#include "text/flat_bag.h"

namespace somr {
class ValidationReport;
}

namespace somr::retrieval {

/// Cumulative retrieval work counters. Monotone over the index lifetime;
/// the matcher publishes per-step deltas to the obs metrics registry.
struct RetrievalStats {
  uint64_t queries = 0;
  uint64_t postings_scanned = 0;   // postings visited by list walks
  uint64_t wand_skips = 0;         // postings skipped by early termination
  uint64_t candidates_pruned = 0;  // candidates rejected by the theta bound
  uint64_t compactions = 0;        // stale-posting garbage collections
};

/// One retrieval candidate: a tracked object sharing at least one query
/// token with at least one live window version. `overlap_bound` is an
/// upper bound on the weighted overlap
///   sum_t w_t * min(count_query(t), count_version(t))
/// against EVERY live window version of the object; when the walk
/// early-terminated, RetrievalResult::slack must be added before the
/// bound is compared against anything.
struct Candidate {
  uint32_t object = 0;
  double overlap_bound = 0.0;
};

struct RetrievalResult {
  std::vector<Candidate> candidates;  // ascending by object id
  /// Weighted query mass of the terms the walk never visited (0 unless
  /// WAND early termination fired). Untouched objects can still overlap
  /// the query by up to this much, and touched candidates' bounds are
  /// low by up to this much.
  double slack = 0.0;
};

/// Incremental inverted index over interned token ids, maintained
/// alongside the matcher's rear-view FlatBag windows (DESIGN.md §12).
///
/// One posting list per token id, and at most one live posting per
/// (token, object): it carries the token's largest count over the
/// object's live window versions, the only count an overlap bound
/// against every version needs (versions shadow each other under
/// min()). Each object has a generation stamp; SetWindow bumps it and
/// writes the new postings, which turns the object's old postings stale
/// without touching them — list walks skip stale entries by comparing
/// two integers. Compaction rewrites the lists once stale entries
/// dominate; because queries consult live postings only, when it runs is
/// unobservable in retrieval results — an index rebuilt from the windows
/// alone (snapshot restore) retrieves identically to one that was
/// maintained incrementally.
///
/// Query-time scoring is a term-at-a-time accumulation. With
/// `allow_early_exit` the walk is WAND-style: query terms are walked in
/// descending order of their score caps w_t * count_query(t), and once
/// the mass of the unvisited terms can no longer lift any object to the
/// strict threshold, the remaining (typically long, low-weight) lists are
/// skipped wholesale. Otherwise terms are walked in id order. Caps depend
/// only on the query and the weights — never on index state — so the
/// walk order, and with it every accumulated bound, is deterministic.
class CandidateIndex {
 public:
  /// Makes `window` (the object's rear-view versions, oldest first) the
  /// live window of `object`: the object's previous postings turn stale
  /// and one posting per distinct window token is written. Object ids may
  /// arrive in any order; the id space is grown as needed.
  void SetWindow(uint32_t object, const std::deque<FlatBag>& window);

  /// All objects sharing >= 1 token with `query`, each with its weighted
  /// overlap upper bound. `theta` is the lowest similarity threshold the
  /// caller still cares about; with `allow_early_exit` the strict-kind
  /// cap sim <= overlap / total_b justifies skipping tail terms (callers
  /// scoring relaxed containment from the same result must pass false —
  /// containment has no query-side cap). `query_weighted_total` must be
  /// WeightedTotal(query, weights).
  void RetrieveOverlaps(const FlatBag& query,
                        const sim::DenseTokenWeights& weights,
                        double query_weighted_total, double theta,
                        bool allow_early_exit, RetrievalResult* out);

  /// Objects whose live window includes an empty bag (empty vs empty
  /// scores similarity 1, so an empty query must consider them).
  /// Ascending.
  void ValidEmptyObjects(std::vector<uint32_t>* out) const;

  size_t object_count() const { return generation_.size(); }

  const RetrievalStats& stats() const { return stats_; }
  RetrievalStats* mutable_stats() { return &stats_; }

  /// Cross-checks the index against the actual window contents
  /// (`windows[object]` = the matcher's recent_flat deque, oldest first).
  /// Appends one issue per inconsistency. See ValidateCandidateIndex.
  void Validate(const std::vector<const std::deque<FlatBag>*>& windows,
                ValidationReport* report) const;

 private:
  struct Posting {
    uint32_t object = 0;
    uint32_t generation = 0;  // the object's generation when written
    double count = 0.0;       // largest count over the window's versions
  };

  bool Live(const Posting& p) const {
    return p.generation == generation_[p.object];
  }

  void MaybeCompact();

  std::vector<std::vector<Posting>> lists_;  // by token id
  std::vector<uint32_t> generation_;         // per object: SetWindow calls
  std::vector<uint32_t> live_postings_;      // per object: live posting count
  std::vector<uint8_t> has_empty_;           // per object: empty version live
  uint64_t total_postings_ = 0;              // live + stale across lists
  uint64_t dead_postings_ = 0;               // known-stale

  // SetWindow scratch: the window's per-token max counts, ascending id.
  std::vector<FlatEntry> window_max_;
  std::vector<FlatEntry> merge_scratch_;

  // Query scratch, stamped so clears are O(touched), never O(objects).
  std::vector<double> acc_;          // per object: accumulated bound
  std::vector<uint64_t> acc_mark_;   // stamp: acc_ valid this query
  std::vector<uint32_t> touched_;    // objects with acc_ set this query
  uint64_t query_serial_ = 0;

  struct TermRef {
    uint32_t id = 0;
    double cap = 0.0;  // weight * query count: max per-object contribution
    double count = 0.0;
    double weight = 0.0;
  };
  std::vector<TermRef> terms_;  // per-query scratch

  RetrievalStats stats_;
};

}  // namespace somr::retrieval
