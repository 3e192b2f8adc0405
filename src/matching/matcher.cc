#include "matching/matcher.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>

#include "common/check.h"
#include "common/timer.h"
#include "matching/hungarian.h"
#include "matching/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/executor.h"
#include "retrieval/shape.h"

namespace somr::matching {

namespace {

// Static span names so trace events never allocate.
const char* MatchSpanName(extract::ObjectType type) {
  switch (type) {
    case extract::ObjectType::kTable:
      return "match/table";
    case extract::ObjectType::kInfobox:
      return "match/infobox";
    case extract::ObjectType::kList:
      return "match/list";
  }
  return "match/unknown";
}

// Process-wide matcher metrics, registered once. Updated with per-step
// deltas (a handful of relaxed fetch_adds per revision, never per pair),
// so the per-pair hot path carries no metrics cost at all.
struct MatcherMetrics {
  obs::Counter* steps;
  obs::Counter* similarities;
  obs::Counter* pairs_pruned;
  obs::Counter* pairs_blocked;
  obs::Counter* pairs_shape_filtered;
  obs::Counter* stage1_matches;
  obs::Counter* stage2_matches;
  obs::Counter* stage3_matches;
  obs::Counter* new_objects;
  obs::Counter* retrieval_postings;
  obs::Counter* retrieval_pruned;
  obs::Counter* retrieval_wand_skips;
  obs::Histogram* step_seconds;
};

MatcherMetrics& GetMatcherMetrics() {
  static MatcherMetrics* metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    auto* m = new MatcherMetrics();
    m->steps = r.GetCounter("somr_match_steps_total",
                            "matching steps (revisions x object types)");
    m->similarities =
        r.GetCounter("somr_match_similarities_total",
                     "exact pairwise similarity computations");
    m->pairs_pruned =
        r.GetCounter("somr_match_pairs_pruned_total",
                     "pairs skipped via the weighted-total upper bound");
    m->pairs_blocked = r.GetCounter("somr_match_pairs_blocked_total",
                                    "pairs filtered by LSH blocking");
    m->stage1_matches = r.GetCounter("somr_match_stage1_matches_total",
                                     "edges accepted in stage 1 (local)");
    m->stage2_matches = r.GetCounter("somr_match_stage2_matches_total",
                                     "edges accepted in stage 2 (strict)");
    m->stage3_matches = r.GetCounter("somr_match_stage3_matches_total",
                                     "edges accepted in stage 3 (relaxed)");
    m->new_objects = r.GetCounter("somr_match_new_objects_total",
                                  "instances that started a new object");
    m->pairs_shape_filtered =
        r.GetCounter("somr_match_pairs_shape_filtered_total",
                     "pairs filtered by the structural-skeleton signature");
    m->retrieval_postings =
        r.GetCounter("somr_retrieval_postings_total",
                     "inverted-index postings scanned by retrieval");
    m->retrieval_pruned =
        r.GetCounter("somr_retrieval_candidates_pruned_total",
                     "retrieval candidates rejected by the theta bound");
    m->retrieval_wand_skips =
        r.GetCounter("somr_retrieval_wand_skips_total",
                     "postings skipped by WAND early termination");
    m->step_seconds = r.GetHistogram(
        "somr_match_step_seconds", "wall time of one matching step", 1e-6,
        2.0, 24);
    return m;
  }();
  return *metrics;
}

// Tie-break epsilons (Sec. IV-A3, Alg. 1: matching(G, ↓LT, ↓POS)):
// lifetime dominates position. For a duplicated instance both candidate
// edges share the same object, so lifetime ties and position decides; for
// a deleted duplicate the longer-lived object wins. Both epsilons are far
// below any similarity resolution that matters (sims live in [0,1],
// thresholds >= 0.4).
constexpr double kLifetimeEps = 1e-6;
constexpr double kPosEps = 1e-8;

// Per-step pairwise similarity caches are flat |tracked| x |incoming|
// vectors indexed by ti * |incoming| + ni, NaN = not yet computed — no
// hashing on the cache path (this replaced the old unordered_map caches
// keyed by a hand-rolled PairKeyHash).
constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
constexpr double kPruned = -std::numeric_limits<double>::infinity();

}  // namespace

TemporalMatcher::TemporalMatcher(extract::ObjectType type,
                                 MatcherConfig config)
    : type_(type), config_(config), graph_(type) {}

double TemporalMatcher::DecayedSim(sim::SimilarityKind kind,
                                   const Tracked& tracked,
                                   const BagOfWords& candidate,
                                   const sim::TokenWeighting& weighting) {
  double best = 0.0;
  double decay = 1.0;
  int considered = 0;
  for (auto it = tracked.recent_bags.rbegin();
       it != tracked.recent_bags.rend() &&
       considered < config_.rear_view_window;
       ++it, ++considered) {
    // Count here, not up front: pruned or short histories must not
    // inflate the similarity counter (it feeds the Fig. 11 benchmarks).
    ++stats_.similarities_computed;
    double s = decay * sim::Similarity(kind, *it, candidate, weighting);
    best = std::max(best, s);
    decay *= config_.decay;
  }
  return best;
}

void TemporalMatcher::TieBreakParts(const Tracked& tracked,
                                    int new_position, int revision_index,
                                    double* position_part,
                                    double* lifetime_part) const {
  *position_part = 0.0;
  *lifetime_part = 0.0;
  if (config_.use_spatial_features) {
    double pos_diff = std::abs(tracked.last_position - new_position);
    *position_part = -kPosEps * (pos_diff / (pos_diff + 8.0));
  }
  if (config_.enable_lifetime_tiebreak) {
    double lifetime =
        static_cast<double>(revision_index - tracked.first_revision);
    *lifetime_part = kLifetimeEps * (lifetime / (lifetime + 64.0));
  }
}

double TemporalMatcher::TieBreakBonus(const Tracked& tracked,
                                      int new_position,
                                      int revision_index) const {
  double position_part = 0.0, lifetime_part = 0.0;
  TieBreakParts(tracked, new_position, revision_index, &position_part,
                &lifetime_part);
  return position_part + lifetime_part;
}

template <typename EnumerateFn, typename SimFn, typename PrefillFn,
          typename DescribeFn>
void TemporalMatcher::RunStages(
    int revision_index, const std::vector<extract::ObjectInstance>& instances,
    EnumerateFn&& enumerate, SimFn&& sim_at_least, PrefillFn&& prefill,
    DescribeFn&& describe_pair, std::vector<int64_t>& assignment,
    std::vector<uint32_t>& considered_per_ni) {
  std::vector<bool> tracked_matched(tracked_.size(), false);
  std::vector<bool> incoming_matched(instances.size(), false);

  std::vector<StageSpec> stages;
  if (config_.enable_stage1 && config_.use_spatial_features) {
    stages.push_back({1, true, sim::SimilarityKind::kStrict, config_.theta1,
                      &stats_.stage1_matches, "match/stage1"});
  }
  if (config_.enable_stage2) {
    stages.push_back({2, false, sim::SimilarityKind::kStrict, config_.theta2,
                      &stats_.stage2_matches, "match/stage2"});
  }
  if (config_.enable_stage3) {
    stages.push_back({3, false, sim::SimilarityKind::kRelaxed, config_.theta3,
                      &stats_.stage3_matches, "match/stage3"});
  }

  // Candidate pairs and their stage similarities, reused across stages.
  std::vector<StagePair> cands;
  std::vector<double> stage_sims;
  // Per-stage candidate count of each incoming instance, kept only while
  // a provenance sink is attached (pair records report the stage-local
  // count; considered_per_ni accumulates across stages).
  std::vector<uint32_t> stage_considered;

  for (const StageSpec& stage : stages) {
    SOMR_TRACE_SCOPE_CAT("match", stage.span_name);
    // Enumerate this stage's candidate pairs in (ti, ni) order — the
    // order every later step (prefill or lazy sims, edge building, the
    // assignment solve) inherits, which is what keeps the parallel and
    // sequential paths byte-identical. The enumerator is either the full
    // sweep or the retrieval-index shortlist; both emit the same order.
    cands.clear();
    enumerate(stage, tracked_matched, incoming_matched, &cands);
    last_step_candidates_ += cands.size();
    for (const StagePair& p : cands) ++considered_per_ni[p.incoming];
    if (provenance_ != nullptr) {
      stage_considered.assign(instances.size(), 0);
      for (const StagePair& p : cands) ++stage_considered[p.incoming];
    }
    if (cands.empty()) continue;

    // Large stages fill the similarity matrix in parallel; otherwise the
    // lazy per-pair path runs below. A prefilled value must be consumed
    // from stage_sims rather than re-probed: prune outcomes are not
    // cached, so a second probe would double-count pairs_pruned.
    stage_sims.assign(cands.size(), 0.0);
    const bool prefilled =
        prefill(stage.kind, stage.threshold, cands, stage_sims);

    std::vector<WeightedEdge> edges;
    // Similarity of each edge without its tie-break perturbation, kept
    // only while a provenance sink is attached (parallel to `edges`).
    std::vector<double> edge_sims;
    for (size_t k = 0; k < cands.size(); ++k) {
      const size_t ti = cands[k].tracked;
      const size_t ni = cands[k].incoming;
      double s = prefilled
                     ? stage_sims[k]
                     : sim_at_least(stage.kind, stage.threshold, ti, ni);
      if (s < stage.threshold) continue;
      // Every edge offered to the Hungarian solve — hence every accepted
      // match — carries a similarity at or above this stage's threshold
      // (also rejects NaN similarities, which pass the `<` filter above).
      SOMR_DCHECK_GE(s, stage.threshold);
      double weight = s + TieBreakBonus(tracked_[ti],
                                        instances[ni].position,
                                        revision_index);
      edges.push_back({static_cast<int>(ti), static_cast<int>(ni),
                       weight});
      if (provenance_ != nullptr) edge_sims.push_back(s);
    }
    if (edges.empty()) continue;
    std::vector<std::pair<int, int>> matched;
    {
      SOMR_TRACE_SCOPE_CAT("match", "match/hungarian");
      matched =
          MaxWeightMatching(tracked_.size(), instances.size(), edges);
    }
    std::vector<char> edge_accepted(
        provenance_ != nullptr ? edges.size() : 0, 0);
    for (auto [ti, ni] : matched) {
      // Hungarian output must stay within this stage's unmatched rows
      // and columns — a duplicate here would fork an identity chain.
      SOMR_DCHECK(!tracked_matched[static_cast<size_t>(ti)])
          << "stage " << stage.number << " rematched tracked object " << ti;
      SOMR_DCHECK(!incoming_matched[static_cast<size_t>(ni)])
          << "stage " << stage.number << " rematched instance " << ni;
      Tracked& tracked = tracked_[static_cast<size_t>(ti)];
      tracked_matched[static_cast<size_t>(ti)] = true;
      incoming_matched[static_cast<size_t>(ni)] = true;
      assignment[static_cast<size_t>(ni)] = tracked.id;
      ++*stage.match_counter;
      if (provenance_ != nullptr) {
        for (size_t e = 0; e < edges.size(); ++e) {
          if (edges[e].left == ti && edges[e].right == ni) {
            edge_accepted[e] = 1;
            break;
          }
        }
      }
    }
    if (provenance_ != nullptr) {
      for (size_t e = 0; e < edges.size(); ++e) {
        const size_t ti = static_cast<size_t>(edges[e].left);
        const size_t ni = static_cast<size_t>(edges[e].right);
        obs::MatchDecision d;
        d.kind = edge_accepted[e] != 0
                     ? obs::MatchDecision::Kind::kMatch
                     : obs::MatchDecision::Kind::kReject;
        d.trace_id = obs::CurrentTraceId();
        d.object_type = extract::ObjectTypeName(type_);
        d.revision = revision_index;
        d.stage = stage.number;
        d.object_id = tracked_[ti].id;
        d.position = instances[ni].position;
        d.similarity = edge_sims[e];
        d.threshold = stage.threshold;
        d.candidates_considered =
            static_cast<int64_t>(stage_considered[ni]);
        TieBreakParts(tracked_[ti], instances[ni].position, revision_index,
                      &d.tiebreak_position, &d.tiebreak_lifetime);
        describe_pair(stage.kind, ti, ni, &d);
        d.reason = edge_accepted[e] != 0 ? "matched" : "lost_assignment";
        provenance_->Record(d);
      }
    }
  }
}

template <typename AppendFn>
void TemporalMatcher::CommitAssignments(
    int revision_index, const std::vector<extract::ObjectInstance>& instances,
    const std::vector<int64_t>& assignment,
    const std::vector<uint32_t>& considered_per_ni, AppendFn&& append_bag) {
  for (size_t ni = 0; ni < instances.size(); ++ni) {
    VersionRef ref{revision_index, instances[ni].position};
    int64_t object_id = assignment[ni];
    if (object_id < 0) {
      object_id = graph_.AddObject(ref);
      Tracked tracked;
      tracked.id = object_id;
      tracked.first_revision = revision_index;
      tracked_.push_back(std::move(tracked));
      ++stats_.new_objects;
      if (provenance_ != nullptr) {
        obs::MatchDecision d;
        d.kind = obs::MatchDecision::Kind::kNewObject;
        d.trace_id = obs::CurrentTraceId();
        d.object_type = extract::ObjectTypeName(type_);
        d.revision = revision_index;
        d.object_id = object_id;
        d.position = instances[ni].position;
        d.candidates_considered =
            static_cast<int64_t>(considered_per_ni[ni]);
        d.reason = "new_object";
        provenance_->Record(d);
      }
    } else {
      graph_.AppendVersion(object_id, ref);
    }
    // Update the rear-view history of the (new or matched) object.
    // Object ids are assigned sequentially, so they index tracked_.
    Tracked& t = tracked_[static_cast<size_t>(object_id)];
    append_bag(t, ni);
    t.newest_shape = retrieval::ShapeSignature(instances[ni]);
    t.last_position = instances[ni].position;
    t.last_revision = revision_index;
  }
}

void TemporalMatcher::ProcessRevision(
    int revision_index, const std::vector<extract::ObjectInstance>& instances) {
  SOMR_TRACE_SCOPE_CAT("match", MatchSpanName(type_));
  // Counter values before the step: both the registry and the per-step
  // provenance record are fed from the same deltas, so the flat and
  // legacy engines report timing/counters identically by construction.
  const size_t similarities_before = stats_.similarities_computed;
  const size_t pruned_before = stats_.pairs_pruned;
  const size_t blocked_before = stats_.pairs_blocked;
  const size_t stage1_before = stats_.stage1_matches;
  const size_t stage2_before = stats_.stage2_matches;
  const size_t stage3_before = stats_.stage3_matches;
  const size_t new_objects_before = stats_.new_objects;
  const size_t shape_filtered_before = stats_.pairs_shape_filtered;
  const size_t tracked_before = tracked_.size();
  const retrieval::RetrievalStats retrieval_before =
      index_ != nullptr ? index_->stats() : retrieval::RetrievalStats{};
  last_step_candidates_ = 0;

  // Position ranks are normally dense 0..n-1 (see the ProcessRevision
  // contract), but the matcher tolerates buggy callers passing
  // duplicates. Once duplicates appear, (revision, position) no longer
  // identifies an instance, so the graph-linearity validator must stop
  // treating repeated claims of one key as a violation.
  if (input_positions_unique_) {
    std::set<int> positions;
    for (const extract::ObjectInstance& instance : instances) {
      if (!positions.insert(instance.position).second) {
        input_positions_unique_ = false;
        break;
      }
    }
  }

  Timer timer;
  if (config_.use_flat_kernels) {
    ProcessRevisionFlat(revision_index, instances);
  } else {
    ProcessRevisionLegacy(revision_index, instances);
  }
  const double millis = timer.ElapsedMillis();
  stats_.step_millis.push_back(millis);

  MatcherMetrics& metrics = GetMatcherMetrics();
  metrics.steps->Increment();
  metrics.step_seconds->Observe(millis / 1000.0);
  auto bump = [](obs::Counter* counter, size_t now, size_t before) {
    if (now > before) counter->Increment(now - before);
  };
  bump(metrics.similarities, stats_.similarities_computed,
       similarities_before);
  bump(metrics.pairs_pruned, stats_.pairs_pruned, pruned_before);
  bump(metrics.pairs_blocked, stats_.pairs_blocked, blocked_before);
  bump(metrics.stage1_matches, stats_.stage1_matches, stage1_before);
  bump(metrics.stage2_matches, stats_.stage2_matches, stage2_before);
  bump(metrics.stage3_matches, stats_.stage3_matches, stage3_before);
  bump(metrics.new_objects, stats_.new_objects, new_objects_before);
  bump(metrics.pairs_shape_filtered, stats_.pairs_shape_filtered,
       shape_filtered_before);
  if (index_ != nullptr) {
    const retrieval::RetrievalStats& r = index_->stats();
    bump(metrics.retrieval_postings, r.postings_scanned,
         retrieval_before.postings_scanned);
    bump(metrics.retrieval_pruned, r.candidates_pruned,
         retrieval_before.candidates_pruned);
    bump(metrics.retrieval_wand_skips, r.wand_skips,
         retrieval_before.wand_skips);
  }

  if (provenance_ != nullptr) {
    obs::MatchDecision d;
    d.kind = obs::MatchDecision::Kind::kStep;
    d.trace_id = obs::CurrentTraceId();
    d.object_type = extract::ObjectTypeName(type_);
    d.revision = revision_index;
    d.similarities = stats_.similarities_computed - similarities_before;
    d.pairs_pruned = stats_.pairs_pruned - pruned_before;
    d.pairs_blocked = stats_.pairs_blocked - blocked_before;
    d.tracked_objects = tracked_before;
    d.incoming_instances = instances.size();
    d.candidates_considered = static_cast<int64_t>(last_step_candidates_);
    provenance_->Record(d);
  }

#ifndef NDEBUG
  // Step-boundary invariant sweep (debug/sanitizer builds only): any
  // violated matcher invariant aborts with the full findings list.
  {
    ValidationReport report;
    Validate(&report);
    SOMR_CHECK(report.ok()) << "matcher invariants violated after step "
                            << revision_index << "\n"
                            << report.ToString();
  }
#endif
}

void TemporalMatcher::ProcessRevisionFlat(
    int revision_index, const std::vector<extract::ObjectInstance>& instances) {
  const size_t nt = tracked_.size();
  const size_t nn = instances.size();
  const size_t window =
      static_cast<size_t>(std::max(config_.rear_view_window, 1));

  // Compile the incoming instances straight into interned flat bags.
  std::vector<FlatBag> incoming;
  incoming.reserve(nn);
  for (const extract::ObjectInstance& obj : instances) {
    incoming.push_back(extract::BuildFlatBag(obj, pool_, config_.features));
  }

  // Lazily build the retrieval index the first time an indexed step runs
  // (also rebuilt by the snapshot loader; see RebuildDerivedState).
  const bool use_index = config_.enable_retrieval_index;
  if (use_index && index_ == nullptr) RebuildDerivedState();

  // Dense token weighting for this step (Sec. IV-B2). The indexed path
  // maintains the previous-version document frequencies incrementally
  // (updated as windows roll forward in CommitAssignments) and only
  // overlays the incoming side per step; the values are bit-identical to
  // the batch rebuild the swept path runs.
  if (config_.use_idf_weighting) {
    if (use_index) {
      std::vector<const FlatBag*> new_bags;
      new_bags.reserve(nn);
      for (const FlatBag& bag : incoming) new_bags.push_back(&bag);
      weights_.BeginIncrementalStep(new_bags,
                                    static_cast<uint32_t>(pool_.size()));
    } else {
      std::vector<const FlatBag*> prev_bags;
      prev_bags.reserve(nt);
      for (const Tracked& t : tracked_) {
        if (!t.recent_flat.empty()) prev_bags.push_back(&t.recent_flat.back());
      }
      std::vector<const FlatBag*> new_bags;
      new_bags.reserve(nn);
      for (const FlatBag& bag : incoming) new_bags.push_back(&bag);
      weights_.BuildInverseObjectFrequency(prev_bags, new_bags, pool_.size());
    }
  } else {
    weights_.BuildUniform();
  }

  // Weighted totals, once per bag per step instead of once per pair:
  // they feed both the similarity kernels and the upper-bound prune.
  std::vector<double> incoming_total(nn);
  for (size_t ni = 0; ni < nn; ++ni) {
    incoming_total[ni] = sim::WeightedTotal(incoming[ni], weights_);
  }
  // History totals. The swept path precomputes a dense CSR (every pair
  // reads every history bag anyway); the indexed path fills a lazily
  // stamped per-object row instead, so only retrieval survivors pay.
  // ensure_hist must be called (sequentially) for every tracked object a
  // stage can touch before sims run — the parallel prefill only reads.
  std::vector<size_t> hist_offset;
  std::vector<double> hist_total;
  if (!use_index) {
    hist_offset.assign(nt + 1, 0);  // CSR over history bags
    for (size_t ti = 0; ti < nt; ++ti) {
      hist_offset[ti + 1] = hist_offset[ti] + tracked_[ti].recent_flat.size();
    }
    hist_total.resize(hist_offset[nt]);
    for (size_t ti = 0; ti < nt; ++ti) {
      const Tracked& t = tracked_[ti];
      for (size_t h = 0; h < t.recent_flat.size(); ++h) {
        hist_total[hist_offset[ti] + h] =
            sim::WeightedTotal(t.recent_flat[h], weights_);
      }
    }
  } else {
    ++step_serial_;
    if (hist_total_stamp_.size() < nt) hist_total_stamp_.resize(nt, 0);
    if (hist_total_cache_.size() < nt * window) {
      hist_total_cache_.resize(nt * window, 0.0);
    }
  }
  auto ensure_hist = [&](size_t ti) {
    if (hist_total_stamp_[ti] == step_serial_) return;
    hist_total_stamp_[ti] = step_serial_;
    const Tracked& t = tracked_[ti];
    double* row = &hist_total_cache_[ti * window];
    for (size_t h = 0; h < t.recent_flat.size(); ++h) {
      row[h] = sim::WeightedTotal(t.recent_flat[h], weights_);
    }
  };
  auto hist_at = [&](size_t ti, size_t h) {
    return use_index ? hist_total_cache_[ti * window + h]
                     : hist_total[hist_offset[ti] + h];
  };

  // Optional LSH candidate blocking for the non-local stages.
  std::vector<char> lsh_mask;  // empty = all pairs allowed
  if (config_.enable_lsh_blocking && nt > 0 && nn > 0 &&
      nt * nn > config_.lsh_min_pair_count) {
    const int num_hashes = config_.lsh_bands * config_.lsh_rows;
    sim::LshIndex index(config_.lsh_bands, config_.lsh_rows);
    for (size_t ni = 0; ni < nn; ++ni) {
      index.Add(static_cast<int>(ni),
                sim::ComputeMinHash(incoming[ni], num_hashes));
    }
    lsh_mask.assign(nt * nn, 0);
    for (size_t ti = 0; ti < nt; ++ti) {
      if (tracked_[ti].newest_sig.empty()) continue;
      for (int ni : index.Candidates(tracked_[ti].newest_sig)) {
        lsh_mask[ti * nn + static_cast<size_t>(ni)] = 1;
      }
    }
  }

  // Decayed upper bound for the strict measure: max over the rear-view
  // window of phi^i * min(Wa_i, Wb) / max(Wa_i, Wb). Totals only — no
  // token data touched.
  // The sim loops honor the raw window (0 = no lookback, like the legacy
  // DecayedSim); only history trimming clamps it to >= 1.
  const size_t sim_window =
      static_cast<size_t>(std::max(config_.rear_view_window, 0));

  auto pair_bound = [&](size_t ti, size_t ni) {
    const Tracked& t = tracked_[ti];
    const size_t hist = t.recent_flat.size();
    const bool cand_empty = incoming[ni].empty();
    const double wb = incoming_total[ni];
    double bound = 0.0;
    double decay = 1.0;
    size_t considered = 0;
    for (size_t back = 0; back < hist && considered < sim_window;
         ++back, ++considered) {
      if (decay <= bound) break;  // phi^i decreasing, ratios <= 1
      const size_t h = hist - 1 - back;
      bound = std::max(
          bound, decay * sim::SimilarityUpperBound(
                             sim::SimilarityKind::kStrict,
                             t.recent_flat[h].empty(), cand_empty,
                             hist_at(ti, h), wb));
      decay *= config_.decay;
    }
    return bound;
  };

  // Exact decayed similarity, skipping history versions whose bound
  // cannot beat the best seen so far (skips never change the max).
  // Counter updates go through `sims` so the parallel prefill can route
  // them into per-thread scratch instead of the shared MatchStats.
  auto exact_sim = [&](sim::SimilarityKind kind, size_t ti, size_t ni,
                       size_t* sims) {
    const Tracked& t = tracked_[ti];
    const FlatBag& cand = incoming[ni];
    const size_t hist = t.recent_flat.size();
    const double wb = incoming_total[ni];
    double best = 0.0;
    double decay = 1.0;
    size_t considered = 0;
    for (size_t back = 0; back < hist && considered < sim_window;
         ++back, ++considered) {
      if (decay <= best) break;  // sims <= 1: no later version can win
      const size_t h = hist - 1 - back;
      const FlatBag& version = t.recent_flat[h];
      const double wa = hist_at(ti, h);
      double cap = sim::SimilarityUpperBound(kind, version.empty(),
                                             cand.empty(), wa, wb);
      if (decay * cap > best) {
        ++*sims;
        best = std::max(best, decay * sim::SimilarityFromTotals(
                                          kind, version, cand, weights_,
                                          wa, wb));
      }
      decay *= config_.decay;
    }
    return best;
  };

  std::vector<double> strict_cache(nt * nn, kUnset);
  std::vector<double> relaxed_cache(nt * nn, kUnset);
  std::vector<double> strict_bound(nt * nn, kUnset);

  // One similarity probe of one pair. Thread-safe for distinct pairs:
  // every mutable touch (bound, caches) lands in that pair's own flat
  // cells, and the counters go through the caller-supplied pointers.
  auto sim_probe = [&](sim::SimilarityKind kind, double threshold,
                       size_t ti, size_t ni, size_t* sims,
                       size_t* pruned) {
    const size_t idx = ti * nn + ni;
    std::vector<double>& cache = kind == sim::SimilarityKind::kStrict
                                     ? strict_cache
                                     : relaxed_cache;
    if (!std::isnan(cache[idx])) return cache[idx];
    if (kind == sim::SimilarityKind::kStrict) {
      double& bound = strict_bound[idx];
      if (std::isnan(bound)) bound = pair_bound(ti, ni);
      if (bound < threshold) {
        // Provably below this stage's threshold: skip the merge-joins.
        // Not cached — a later stage with a lower threshold re-checks.
        ++*pruned;
        return kPruned;
      }
    }
    double s = exact_sim(kind, ti, ni, sims);
    cache[idx] = s;
    return s;
  };

  auto sim_at_least = [&](sim::SimilarityKind kind, double threshold,
                          size_t ti, size_t ni) {
    return sim_probe(kind, threshold, ti, ni,
                     &stats_.similarities_computed, &stats_.pairs_pruned);
  };

  auto pair_allowed = [&](size_t ti, size_t ni) {
    return lsh_mask.empty() || lsh_mask[ti * nn + ni] != 0;
  };

  // Intra-step parallel path: fill one stage's similarity values for all
  // candidate pairs at once with ParallelFor. Safe because each pair
  // appears exactly once per stage (writes hit distinct cache cells) and
  // counter deltas accumulate in cacheline-padded per-thread scratch,
  // folded into MatchStats afterwards — sums are commutative, so the
  // counters match the sequential path exactly.
  auto prefill = [&](sim::SimilarityKind kind, double threshold,
                     const std::vector<StagePair>& pairs,
                     std::vector<double>& out) {
    if (executor_ == nullptr || !config_.enable_parallel_stages ||
        pairs.size() < config_.parallel_min_pairs) {
      return false;
    }
    struct alignas(64) Scratch {
      size_t sims = 0;
      size_t pruned = 0;
    };
    std::vector<Scratch> scratch(executor_->num_workers() + 1);
    const size_t grain = std::max<size_t>(
        64, pairs.size() /
                (static_cast<size_t>(executor_->num_workers()) * 4 + 1));
    executor_->ParallelFor(0, pairs.size(), grain,
                           [&](size_t chunk_begin, size_t chunk_end) {
      Scratch& slot = scratch[executor_->CurrentSlot()];
      for (size_t k = chunk_begin; k < chunk_end; ++k) {
        out[k] = sim_probe(kind, threshold, pairs[k].tracked,
                           pairs[k].incoming, &slot.sims, &slot.pruned);
      }
    });
    for (const Scratch& slot : scratch) {
      stats_.similarities_computed += slot.sims;
      stats_.pairs_pruned += slot.pruned;
    }
    return true;
  };

  // Provenance-only recompute of the rear-view profile of one pair: which
  // history version produced the best decayed similarity and how many
  // versions were in reach. Never runs without a sink attached.
  auto describe_pair = [&](sim::SimilarityKind kind, size_t ti, size_t ni,
                           obs::MatchDecision* d) {
    const Tracked& t = tracked_[ti];
    const FlatBag& cand = incoming[ni];
    const size_t hist = t.recent_flat.size();
    const double wb = incoming_total[ni];
    double best = -1.0;
    int best_depth = -1;
    double decay = 1.0;
    size_t considered = 0;
    for (size_t back = 0; back < hist && considered < sim_window;
         ++back, ++considered) {
      const size_t h = hist - 1 - back;
      double s = decay * sim::SimilarityFromTotals(
                             kind, t.recent_flat[h], cand, weights_,
                             hist_at(ti, h), wb);
      if (s > best) {
        best = s;
        best_depth = static_cast<int>(back);
      }
      decay *= config_.decay;
    }
    d->rear_view_depth = best_depth;
    d->rear_view_len = static_cast<int>(considered);
  };

  // ---- Retrieval-index candidate generation (Sec. IV-B4, DESIGN.md §12).
  // One index walk per incoming instance replaces the all-pairs sweep:
  // the walk upper-bounds each object's weighted overlap against every
  // live window version, and a decayed totals bound derived from it
  // filters at the lowest threshold either similarity kind still needs.
  // Filters subtract kBoundSlack so floating-point reassociation between
  // the index accumulation order and the merge-join order can never drop
  // a pair the sweep would have scored at or above a threshold — which
  // is what keeps swept and indexed identity graphs byte-identical.
  constexpr double kBoundSlack = 1e-9;
  const bool stage1_on = config_.enable_stage1 && config_.use_spatial_features;
  const bool strict_active = stage1_on || config_.enable_stage2;
  double strict_theta = std::numeric_limits<double>::infinity();
  if (stage1_on) strict_theta = std::min(strict_theta, config_.theta1);
  if (config_.enable_stage2) {
    strict_theta = std::min(strict_theta, config_.theta2);
  }
  const double relaxed_theta = config_.theta3;
  // A non-positive threshold keeps every pair, so that kind falls back
  // to the full sweep (the index can only help when the bound prunes).
  const bool strict_indexed = use_index && strict_active && strict_theta > 0.0;
  const bool relaxed_indexed =
      use_index && config_.enable_stage3 && relaxed_theta > 0.0;

  // Decayed rear-view similarity upper bound from the retrieval overlap
  // bound: per window version, overlap <= min(ov_bound, Wa, Wb) and both
  // measures are monotone in the overlap at fixed totals.
  auto indexed_bound = [&](sim::SimilarityKind kind, size_t ti, size_t ni,
                           double ov_bound) {
    const Tracked& t = tracked_[ti];
    const size_t hist = t.recent_flat.size();
    const bool cand_empty = incoming[ni].empty();
    const double wb = incoming_total[ni];
    double bound = 0.0;
    double decay = 1.0;
    size_t considered = 0;
    for (size_t back = 0; back < hist && considered < sim_window;
         ++back, ++considered) {
      if (decay <= bound) break;  // phi^i decreasing, ratios <= 1
      const size_t h = hist - 1 - back;
      const bool version_empty = t.recent_flat[h].empty();
      const double wa = hist_at(ti, h);
      double vb;
      if (version_empty || cand_empty) {
        vb = sim::SimilarityUpperBound(kind, version_empty, cand_empty, wa,
                                       wb);
      } else {
        const double m = std::min(ov_bound, std::min(wa, wb));
        if (kind == sim::SimilarityKind::kStrict) {
          const double denom = wa + wb - m;
          vb = denom > 0.0 ? m / denom : 0.0;
        } else {
          const double smaller = std::min(wa, wb);
          vb = smaller > 0.0 ? std::min(1.0, m / smaller) : 0.0;
        }
      }
      bound = std::max(bound, decay * vb);
      decay *= config_.decay;
    }
    return bound;
  };

  // Per-kind survivor lists, one per incoming instance, each entry the
  // object id plus its decayed bound (stages re-filter at their own
  // threshold, so stage 1 at theta1 reuses the walk done at min-theta).
  struct IndexedCand {
    uint32_t tracked = 0;
    double bound = 0.0;
  };
  std::vector<std::vector<IndexedCand>> strict_cands;
  std::vector<std::vector<IndexedCand>> relaxed_cands;
  if (strict_indexed || relaxed_indexed) {
    if (strict_indexed) strict_cands.resize(nn);
    if (relaxed_indexed) relaxed_cands.resize(nn);
    retrieval::RetrievalResult rr;
    std::vector<uint32_t> empty_objects;
    bool empty_ready = false;
    uint64_t bound_pruned = 0;
    auto consider = [&](size_t ni, uint32_t obj, double ov_bound) {
      ensure_hist(obj);
      if (strict_indexed) {
        const double b =
            indexed_bound(sim::SimilarityKind::kStrict, obj, ni, ov_bound);
        if (b >= strict_theta - kBoundSlack) {
          strict_cands[ni].push_back({obj, b});
        } else {
          ++bound_pruned;
        }
      }
      if (relaxed_indexed) {
        const double b =
            indexed_bound(sim::SimilarityKind::kRelaxed, obj, ni, ov_bound);
        if (b >= relaxed_theta - kBoundSlack) {
          relaxed_cands[ni].push_back({obj, b});
        } else {
          ++bound_pruned;
        }
      }
    };
    for (size_t ni = 0; ni < nn; ++ni) {
      if (incoming[ni].empty()) {
        // An empty instance overlaps nothing; only objects with an empty
        // live version can score (empty vs empty is similarity 1, any
        // non-empty version scores 0 against it in both measures).
        if (!empty_ready) {
          index_->ValidEmptyObjects(&empty_objects);
          empty_ready = true;
        }
        for (uint32_t obj : empty_objects) consider(ni, obj, 0.0);
        continue;
      }
      // When stage 3 participates, one full walk serves both kinds
      // (containment has no query-side cap, so no early exit); a
      // strict-only configuration walks with WAND early termination.
      index_->RetrieveOverlaps(incoming[ni], weights_, incoming_total[ni],
                               strict_theta,
                               /*allow_early_exit=*/!relaxed_indexed, &rr);
      for (const retrieval::Candidate& c : rr.candidates) {
        consider(ni, c.object, c.overlap_bound + rr.slack);
      }
    }
    index_->mutable_stats()->candidates_pruned += bound_pruned;
  }

  // Shape-signature pre-filter (approximate; see MatcherConfig).
  const bool shape_on = config_.enable_shape_prefilter;
  std::vector<uint64_t> incoming_shapes;
  if (shape_on) {
    incoming_shapes.reserve(nn);
    for (const extract::ObjectInstance& obj : instances) {
      incoming_shapes.push_back(retrieval::ShapeSignature(obj));
    }
  }
  // Shared per-pair stage filters: stage 1's positional neighborhood or
  // the LSH mask, then the shape filter — identical for the swept and
  // indexed enumerators, so the two paths reject the same pairs.
  auto pair_passes = [&](const StageSpec& stage, size_t ti, size_t ni) {
    if (stage.local_only) {
      int diff =
          std::abs(tracked_[ti].last_position - instances[ni].position);
      if (diff > config_.theta_pos) return false;
    } else if (!pair_allowed(ti, ni)) {
      ++stats_.pairs_blocked;
      return false;
    }
    if (shape_on && tracked_[ti].newest_shape != incoming_shapes[ni]) {
      ++stats_.pairs_shape_filtered;
      return false;
    }
    return true;
  };
  auto enumerate = [&](const StageSpec& stage,
                       const std::vector<bool>& tracked_matched,
                       const std::vector<bool>& incoming_matched,
                       std::vector<StagePair>* cands) {
    const bool kind_indexed = stage.kind == sim::SimilarityKind::kStrict
                                  ? strict_indexed
                                  : relaxed_indexed;
    if (kind_indexed) {
      const std::vector<std::vector<IndexedCand>>& per_ni =
          stage.kind == sim::SimilarityKind::kStrict ? strict_cands
                                                     : relaxed_cands;
      for (size_t ni = 0; ni < nn; ++ni) {
        if (incoming_matched[ni]) continue;
        for (const IndexedCand& c : per_ni[ni]) {
          const size_t ti = c.tracked;
          if (tracked_matched[ti]) continue;
          if (c.bound < stage.threshold - kBoundSlack) continue;
          if (!pair_passes(stage, ti, ni)) continue;
          cands->push_back({c.tracked, static_cast<uint32_t>(ni)});
        }
      }
      // The survivor lists are per-instance; restore the (ti, ni) order
      // the downstream stages (and the swept path) rely on.
      std::sort(cands->begin(), cands->end(),
                [](const StagePair& a, const StagePair& b) {
                  return a.tracked != b.tracked ? a.tracked < b.tracked
                                                : a.incoming < b.incoming;
                });
      return;
    }
    for (size_t ti = 0; ti < nt; ++ti) {
      if (tracked_matched[ti]) continue;
      if (use_index) ensure_hist(ti);  // swept stage inside an indexed step
      for (size_t ni = 0; ni < nn; ++ni) {
        if (incoming_matched[ni]) continue;
        if (!pair_passes(stage, ti, ni)) continue;
        cands->push_back(
            {static_cast<uint32_t>(ti), static_cast<uint32_t>(ni)});
      }
    }
  };

  std::vector<int64_t> assignment(nn, -1);
  std::vector<uint32_t> considered_per_ni(nn, 0);
  RunStages(revision_index, instances, enumerate, sim_at_least, prefill,
            describe_pair, assignment, considered_per_ni);
#ifndef NDEBUG
  {
    ValidationReport report;
    ValidateAssignment(assignment, tracked_.size(), &report);
    SOMR_CHECK(report.ok()) << report.ToString();
  }
#endif
  const bool incremental_weights = use_index && config_.use_idf_weighting;
  CommitAssignments(
      revision_index, instances, assignment, considered_per_ni,
      [&](Tracked& t, size_t ni) {
        // Keep the incremental previous-version document frequencies in
        // lockstep with the newest window bag of each touched object.
        if (incremental_weights && !t.recent_flat.empty()) {
          weights_.RemovePrevBag(t.recent_flat.back());
        }
        t.recent_flat.push_back(std::move(incoming[ni]));
        while (t.recent_flat.size() > window) t.recent_flat.pop_front();
        if (use_index) {
          index_->SetWindow(static_cast<uint32_t>(t.id), t.recent_flat);
        }
        if (incremental_weights) weights_.AddPrevBag(t.recent_flat.back());
        if (config_.enable_lsh_blocking) {
          t.newest_sig = sim::ComputeMinHash(
              t.recent_flat.back(), config_.lsh_bands * config_.lsh_rows);
        }
      });
}

void TemporalMatcher::ProcessRevisionLegacy(
    int revision_index, const std::vector<extract::ObjectInstance>& instances) {
  const size_t nn = instances.size();
  const size_t window =
      static_cast<size_t>(std::max(config_.rear_view_window, 1));

  // Build bags for the incoming instances.
  std::vector<BagOfWords> incoming_bags;
  incoming_bags.reserve(nn);
  for (const extract::ObjectInstance& obj : instances) {
    incoming_bags.push_back(extract::BuildBagOfWords(obj, config_.features));
  }

  // Token weighting for this step (Sec. IV-B2).
  sim::TokenWeighting weighting;
  if (config_.use_idf_weighting) {
    std::vector<const BagOfWords*> prev_bags;
    prev_bags.reserve(tracked_.size());
    for (const Tracked& t : tracked_) {
      if (!t.recent_bags.empty()) prev_bags.push_back(&t.recent_bags.back());
    }
    std::vector<const BagOfWords*> new_bags;
    new_bags.reserve(incoming_bags.size());
    for (const BagOfWords& bag : incoming_bags) new_bags.push_back(&bag);
    weighting =
        sim::TokenWeighting::InverseObjectFrequency(prev_bags, new_bags);
  }

  // Similarity caches shared across stages: stage 2 reuses stage-1 strict
  // similarities (Sec. IV-B4).
  std::vector<double> strict_cache(tracked_.size() * nn, kUnset);
  std::vector<double> relaxed_cache(tracked_.size() * nn, kUnset);

  auto sim_at_least = [&](sim::SimilarityKind kind, double /*threshold*/,
                          size_t ti, size_t ni) {
    const size_t idx = ti * nn + ni;
    std::vector<double>& cache = kind == sim::SimilarityKind::kStrict
                                     ? strict_cache
                                     : relaxed_cache;
    if (!std::isnan(cache[idx])) return cache[idx];
    double s = DecayedSim(kind, tracked_[ti], incoming_bags[ni], weighting);
    cache[idx] = s;
    return s;
  };

  // The legacy reference engine always enumerates the full sweep (no
  // LSH, no retrieval index) but honors the same shape pre-filter as the
  // flat engine so the two stay equivalent under every config.
  const bool shape_on = config_.enable_shape_prefilter;
  std::vector<uint64_t> incoming_shapes;
  if (shape_on) {
    incoming_shapes.reserve(nn);
    for (const extract::ObjectInstance& obj : instances) {
      incoming_shapes.push_back(retrieval::ShapeSignature(obj));
    }
  }
  auto enumerate = [&](const StageSpec& stage,
                       const std::vector<bool>& tracked_matched,
                       const std::vector<bool>& incoming_matched,
                       std::vector<StagePair>* cands) {
    for (size_t ti = 0; ti < tracked_.size(); ++ti) {
      if (tracked_matched[ti]) continue;
      for (size_t ni = 0; ni < nn; ++ni) {
        if (incoming_matched[ni]) continue;
        if (stage.local_only) {
          int diff = std::abs(tracked_[ti].last_position -
                              instances[ni].position);
          if (diff > config_.theta_pos) continue;
        }
        if (shape_on && tracked_[ti].newest_shape != incoming_shapes[ni]) {
          ++stats_.pairs_shape_filtered;
          continue;
        }
        cands->push_back(
            {static_cast<uint32_t>(ti), static_cast<uint32_t>(ni)});
      }
    }
  };

  // The legacy reference engine always runs the lazy sequential path.
  auto prefill = [](sim::SimilarityKind, double,
                    const std::vector<StagePair>&,
                    std::vector<double>&) { return false; };

  // Provenance-only rear-view recompute (see the flat engine); bypasses
  // DecayedSim so the similarity counter stays untouched.
  auto describe_pair = [&](sim::SimilarityKind kind, size_t ti, size_t ni,
                           obs::MatchDecision* d) {
    const Tracked& t = tracked_[ti];
    double best = -1.0;
    int best_depth = -1;
    double decay = 1.0;
    int considered = 0;
    for (auto it = t.recent_bags.rbegin();
         it != t.recent_bags.rend() && considered < config_.rear_view_window;
         ++it, ++considered) {
      double s =
          decay * sim::Similarity(kind, *it, incoming_bags[ni], weighting);
      if (s > best) {
        best = s;
        best_depth = considered;
      }
      decay *= config_.decay;
    }
    d->rear_view_depth = best_depth;
    d->rear_view_len = considered;
  };

  std::vector<int64_t> assignment(nn, -1);
  std::vector<uint32_t> considered_per_ni(nn, 0);
  RunStages(revision_index, instances, enumerate, sim_at_least, prefill,
            describe_pair, assignment, considered_per_ni);
#ifndef NDEBUG
  {
    ValidationReport report;
    ValidateAssignment(assignment, tracked_.size(), &report);
    SOMR_CHECK(report.ok()) << report.ToString();
  }
#endif
  CommitAssignments(
      revision_index, instances, assignment, considered_per_ni,
      [&](Tracked& t, size_t ni) {
        t.recent_bags.push_back(std::move(incoming_bags[ni]));
        while (t.recent_bags.size() > window) t.recent_bags.pop_front();
      });
}

void TemporalMatcher::RebuildDerivedState() {
  index_.reset();
  hist_total_cache_.clear();
  hist_total_stamp_.clear();
  step_serial_ = 0;
  if (!config_.use_flat_kernels || !config_.enable_retrieval_index) return;
  index_ = std::make_unique<retrieval::CandidateIndex>();
  for (size_t ti = 0; ti < tracked_.size(); ++ti) {
    index_->SetWindow(static_cast<uint32_t>(ti), tracked_[ti].recent_flat);
  }
  if (config_.use_idf_weighting) {
    // Seed the incremental previous-version document frequencies from
    // the newest window bag of every tracked object (exactly the
    // prev-side the batch builder would count).
    weights_.ResetIncremental(static_cast<uint32_t>(pool_.size()));
    for (const Tracked& t : tracked_) {
      if (!t.recent_flat.empty()) weights_.AddPrevBag(t.recent_flat.back());
    }
  }
}

PageMatcher::PageMatcher(MatcherConfig config)
    : tables_(extract::ObjectType::kTable, config),
      infoboxes_(extract::ObjectType::kInfobox, config),
      lists_(extract::ObjectType::kList, config) {}

void PageMatcher::SetProvenanceSink(obs::ProvenanceSink* sink) {
  tables_.SetProvenanceSink(sink);
  infoboxes_.SetProvenanceSink(sink);
  lists_.SetProvenanceSink(sink);
}

void PageMatcher::SetExecutor(parallel::Executor* executor) {
  tables_.SetExecutor(executor);
  infoboxes_.SetExecutor(executor);
  lists_.SetExecutor(executor);
}

void PageMatcher::ProcessRevision(int revision_index,
                                  const extract::PageObjects& objects) {
  tables_.ProcessRevision(revision_index, objects.tables);
  infoboxes_.ProcessRevision(revision_index, objects.infoboxes);
  lists_.ProcessRevision(revision_index, objects.lists);
}

TemporalMatcher& PageMatcher::MatcherFor(extract::ObjectType type) {
  switch (type) {
    case extract::ObjectType::kTable:
      return tables_;
    case extract::ObjectType::kInfobox:
      return infoboxes_;
    case extract::ObjectType::kList:
      return lists_;
  }
  std::abort();  // unreachable: all ObjectType values handled above
}

const IdentityGraph& PageMatcher::GraphFor(extract::ObjectType type) const {
  switch (type) {
    case extract::ObjectType::kTable:
      return tables_.graph();
    case extract::ObjectType::kInfobox:
      return infoboxes_.graph();
    case extract::ObjectType::kList:
      return lists_.graph();
  }
  std::abort();  // unreachable: all ObjectType values handled above
}

const MatchStats& PageMatcher::StatsFor(extract::ObjectType type) const {
  switch (type) {
    case extract::ObjectType::kTable:
      return tables_.stats();
    case extract::ObjectType::kInfobox:
      return infoboxes_.stats();
    case extract::ObjectType::kList:
      return lists_.stats();
  }
  std::abort();  // unreachable: all ObjectType values handled above
}

IdentityGraph PageMatcher::TakeGraph(extract::ObjectType type) {
  return MatcherFor(type).TakeGraph();
}

MatchStats PageMatcher::TakeStats(extract::ObjectType type) {
  return MatcherFor(type).TakeStats();
}

}  // namespace somr::matching
