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
    m->stage1_matches = r.GetCounter("somr_match_stage1_matches_total",
                                     "edges accepted in stage 1 (local)");
    m->stage2_matches = r.GetCounter("somr_match_stage2_matches_total",
                                     "edges accepted in stage 2 (strict)");
    m->stage3_matches = r.GetCounter("somr_match_stage3_matches_total",
                                     "edges accepted in stage 3 (relaxed)");
    m->new_objects = r.GetCounter("somr_match_new_objects_total",
                                  "instances that started a new object");
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
// vectors indexed by ti * |incoming| + ni, NaN = not yet computed.
constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
constexpr double kPruned = -std::numeric_limits<double>::infinity();

// Filters on retrieval bounds subtract this slack so floating-point
// reassociation between the index accumulation order and the merge-join
// order can never drop a pair whose exact similarity reaches a threshold.
constexpr double kBoundSlack = 1e-9;

}  // namespace

struct TemporalMatcher::StepScratch {
  /// Retrieval survivor: a tracked object and its decayed bound (stages
  /// re-filter at their own threshold, so stage 1 at theta1 reuses the
  /// walk done at the kind's lowest threshold).
  struct IndexedCand {
    uint32_t tracked = 0;
    double bound = 0.0;
  };

  size_t nt = 0;  // tracked objects at step start
  size_t nn = 0;  // incoming instances
  // The sim loops honor the raw window (0 = no lookback); only history
  // trimming and the totals stride clamp it to >= 1.
  size_t sim_window = 0;
  size_t window = 1;

  // PrepareBags.
  std::vector<FlatBag> incoming;
  std::vector<double> incoming_total;

  // RetrieveCandidates: one survivor list per incoming instance for each
  // retrieved kind; a kind that is not retrieved is swept.
  bool strict_indexed = false;
  bool relaxed_indexed = false;
  std::vector<std::vector<IndexedCand>> strict_cands;
  std::vector<std::vector<IndexedCand>> relaxed_cands;

  // Per-pair caches, flat nt x nn indexed by ti * nn + ni, NaN = unset.
  // Stage 2 reuses stage-1 strict similarities (Sec. IV-B4).
  std::vector<double> strict_cache;
  std::vector<double> relaxed_cache;
  std::vector<double> strict_bound;

  // RunStages.
  std::vector<bool> tracked_matched;
  std::vector<bool> incoming_matched;
  std::vector<StagePair> cands;     // current stage, (ti, ni) order
  std::vector<double> stage_sims;   // parallel to cands
  // Per-stage candidate count of each incoming instance, kept only while
  // a provenance sink is attached (pair records report the stage-local
  // count; considered_per_ni accumulates across stages).
  std::vector<uint32_t> stage_considered;
  std::vector<uint32_t> considered_per_ni;
  size_t candidates = 0;  // pairs enumerated across all stages
  std::vector<int64_t> assignment;  // object id per instance, -1 = new
};

TemporalMatcher::TemporalMatcher(extract::ObjectType type,
                                 MatcherConfig config)
    : type_(type), config_(config), graph_(type) {
  RebuildDerivedState();
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

void TemporalMatcher::ProcessRevision(
    int revision_index, const std::vector<extract::ObjectInstance>& instances) {
  SOMR_TRACE_SCOPE_CAT("match", MatchSpanName(type_));
  // Counter values before the step: both the registry and the per-step
  // provenance record are fed from the same deltas.
  const size_t similarities_before = stats_.similarities_computed;
  const size_t pruned_before = stats_.pairs_pruned;
  const size_t stage1_before = stats_.stage1_matches;
  const size_t stage2_before = stats_.stage2_matches;
  const size_t stage3_before = stats_.stage3_matches;
  const size_t new_objects_before = stats_.new_objects;
  const size_t tracked_before = tracked_.size();
  const retrieval::RetrievalStats retrieval_before = index_.stats();

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
  StepScratch step;
  PrepareBags(instances, step);
  RetrieveCandidates(step);
  RunStages(revision_index, instances, step);
#ifndef NDEBUG
  {
    ValidationReport report;
    ValidateAssignment(step.assignment, tracked_.size(), &report);
    SOMR_CHECK(report.ok()) << report.ToString();
  }
#endif
  CommitAssignments(revision_index, instances, step);
  const double millis = timer.ElapsedMillis();
  stats_.step_millis.push_back(millis);

  MatcherMetrics& metrics = GetMatcherMetrics();
  metrics.steps->Increment();
  metrics.step_seconds->Observe(millis / 1000.0);
  auto bump = [](obs::Counter* counter, uint64_t now, uint64_t before) {
    if (now > before) counter->Increment(now - before);
  };
  bump(metrics.similarities, stats_.similarities_computed,
       similarities_before);
  bump(metrics.pairs_pruned, stats_.pairs_pruned, pruned_before);
  bump(metrics.stage1_matches, stats_.stage1_matches, stage1_before);
  bump(metrics.stage2_matches, stats_.stage2_matches, stage2_before);
  bump(metrics.stage3_matches, stats_.stage3_matches, stage3_before);
  bump(metrics.new_objects, stats_.new_objects, new_objects_before);
  const retrieval::RetrievalStats& r = index_.stats();
  bump(metrics.retrieval_postings, r.postings_scanned,
       retrieval_before.postings_scanned);
  bump(metrics.retrieval_pruned, r.candidates_pruned,
       retrieval_before.candidates_pruned);
  bump(metrics.retrieval_wand_skips, r.wand_skips,
       retrieval_before.wand_skips);

  if (provenance_ != nullptr) {
    obs::MatchDecision d;
    d.kind = obs::MatchDecision::Kind::kStep;
    d.trace_id = obs::CurrentTraceId();
    d.object_type = extract::ObjectTypeName(type_);
    d.revision = revision_index;
    d.similarities = stats_.similarities_computed - similarities_before;
    d.pairs_pruned = stats_.pairs_pruned - pruned_before;
    d.tracked_objects = tracked_before;
    d.incoming_instances = instances.size();
    d.candidates_considered = static_cast<int64_t>(step.candidates);
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

void TemporalMatcher::PrepareBags(
    const std::vector<extract::ObjectInstance>& instances,
    StepScratch& step) {
  step.nt = tracked_.size();
  step.nn = instances.size();
  step.sim_window = static_cast<size_t>(std::max(config_.rear_view_window, 0));
  step.window = std::max<size_t>(step.sim_window, 1);

  // Compile the incoming instances straight into interned flat bags.
  step.incoming.reserve(step.nn);
  for (const extract::ObjectInstance& obj : instances) {
    step.incoming.push_back(
        extract::BuildFlatBag(obj, pool_, config_.features));
  }

  // Dense token weighting for this step (Sec. IV-B2): the previous-side
  // document frequencies are maintained across steps (CommitAssignments
  // rolls them forward), so only the incoming side is overlaid here.
  if (config_.use_idf_weighting) {
    std::vector<const FlatBag*> new_bags;
    new_bags.reserve(step.nn);
    for (const FlatBag& bag : step.incoming) new_bags.push_back(&bag);
    weights_.BeginIncrementalStep(new_bags,
                                  static_cast<uint32_t>(pool_.size()));
  }

  // Weighted totals, once per bag per step instead of once per pair:
  // they feed both the similarity kernels and the upper-bound prunes.
  step.incoming_total.resize(step.nn);
  for (size_t ni = 0; ni < step.nn; ++ni) {
    step.incoming_total[ni] = sim::WeightedTotal(step.incoming[ni], weights_);
  }
  // History totals are filled lazily per object (EnsureHistoryTotals), so
  // only the objects a stage can touch pay for them.
  ++step_serial_;
  if (hist_total_stamp_.size() < step.nt) {
    hist_total_stamp_.resize(step.nt, 0);
  }
  if (hist_total_cache_.size() < step.nt * step.window) {
    hist_total_cache_.resize(step.nt * step.window, 0.0);
  }

  step.strict_cache.assign(step.nt * step.nn, kUnset);
  step.relaxed_cache.assign(step.nt * step.nn, kUnset);
  step.strict_bound.assign(step.nt * step.nn, kUnset);
}

void TemporalMatcher::EnsureHistoryTotals(const StepScratch& step,
                                          size_t ti) {
  if (hist_total_stamp_[ti] == step_serial_) return;
  hist_total_stamp_[ti] = step_serial_;
  const Tracked& t = tracked_[ti];
  double* row = &hist_total_cache_[ti * step.window];
  for (size_t h = 0; h < t.recent_flat.size(); ++h) {
    row[h] = sim::WeightedTotal(t.recent_flat[h], weights_);
  }
}

double TemporalMatcher::HistoryTotal(const StepScratch& step, size_t ti,
                                     size_t h) const {
  return hist_total_cache_[ti * step.window + h];
}

double TemporalMatcher::IndexedBound(const StepScratch& step,
                                     sim::SimilarityKind kind, size_t ti,
                                     size_t ni, double overlap_bound) const {
  // Per window version, overlap <= min(overlap_bound, Wa, Wb) and both
  // measures are monotone in the overlap at fixed totals.
  const Tracked& t = tracked_[ti];
  const size_t hist = t.recent_flat.size();
  const bool cand_empty = step.incoming[ni].empty();
  const double wb = step.incoming_total[ni];
  double bound = 0.0;
  double decay = 1.0;
  size_t considered = 0;
  for (size_t back = 0; back < hist && considered < step.sim_window;
       ++back, ++considered) {
    if (decay <= bound) break;  // phi^i decreasing, ratios <= 1
    const size_t h = hist - 1 - back;
    const bool version_empty = t.recent_flat[h].empty();
    const double wa = HistoryTotal(step, ti, h);
    double vb;
    if (version_empty || cand_empty) {
      vb = sim::SimilarityUpperBound(kind, version_empty, cand_empty, wa, wb);
    } else {
      const double m = std::min(overlap_bound, std::min(wa, wb));
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
}

void TemporalMatcher::RetrieveCandidates(StepScratch& step) {
  // One index walk per incoming instance replaces the all-pairs sweep
  // (Sec. IV-B4, DESIGN.md §12): the walk upper-bounds each object's
  // weighted overlap against every live window version, and a decayed
  // bound derived from it filters at the lowest threshold each kind
  // still needs.
  const bool stage1_on = config_.enable_stage1 && config_.use_spatial_features;
  double strict_theta = std::numeric_limits<double>::infinity();
  if (stage1_on) strict_theta = std::min(strict_theta, config_.theta1);
  if (config_.enable_stage2) {
    strict_theta = std::min(strict_theta, config_.theta2);
  }
  const double relaxed_theta = config_.theta3;
  // A non-positive threshold keeps every pair, so that kind is swept
  // (the index can only help when the bound prunes).
  step.strict_indexed =
      (stage1_on || config_.enable_stage2) && strict_theta > 0.0;
  step.relaxed_indexed = config_.enable_stage3 && relaxed_theta > 0.0;
  if (!step.strict_indexed && !step.relaxed_indexed) return;

  if (step.strict_indexed) step.strict_cands.resize(step.nn);
  if (step.relaxed_indexed) step.relaxed_cands.resize(step.nn);
  retrieval::RetrievalResult rr;
  std::vector<uint32_t> empty_objects;
  bool empty_ready = false;
  uint64_t bound_pruned = 0;
  auto consider = [&](size_t ni, uint32_t obj, double overlap_bound) {
    EnsureHistoryTotals(step, obj);
    if (step.strict_indexed) {
      const double b = IndexedBound(step, sim::SimilarityKind::kStrict, obj,
                                    ni, overlap_bound);
      if (b >= strict_theta - kBoundSlack) {
        step.strict_cands[ni].push_back({obj, b});
      } else {
        ++bound_pruned;
      }
    }
    if (step.relaxed_indexed) {
      const double b = IndexedBound(step, sim::SimilarityKind::kRelaxed, obj,
                                    ni, overlap_bound);
      if (b >= relaxed_theta - kBoundSlack) {
        step.relaxed_cands[ni].push_back({obj, b});
      } else {
        ++bound_pruned;
      }
    }
  };
  for (size_t ni = 0; ni < step.nn; ++ni) {
    if (step.incoming[ni].empty()) {
      // An empty instance overlaps nothing; only objects with an empty
      // live version can score (empty vs empty is similarity 1, any
      // non-empty version scores 0 against it in both measures).
      if (!empty_ready) {
        index_.ValidEmptyObjects(&empty_objects);
        empty_ready = true;
      }
      for (uint32_t obj : empty_objects) consider(ni, obj, 0.0);
      continue;
    }
    // When stage 3 participates, one full walk serves both kinds
    // (containment has no query-side cap, so no early exit); a
    // strict-only configuration walks with WAND early termination.
    index_.RetrieveOverlaps(step.incoming[ni], weights_,
                            step.incoming_total[ni], strict_theta,
                            /*allow_early_exit=*/!step.relaxed_indexed, &rr);
    for (const retrieval::Candidate& c : rr.candidates) {
      consider(ni, c.object, c.overlap_bound + rr.slack);
    }
  }
  index_.mutable_stats()->candidates_pruned += bound_pruned;
}

void TemporalMatcher::RunStages(
    int revision_index, const std::vector<extract::ObjectInstance>& instances,
    StepScratch& step) {
  step.tracked_matched.assign(step.nt, false);
  step.incoming_matched.assign(step.nn, false);
  step.assignment.assign(step.nn, -1);
  step.considered_per_ni.assign(step.nn, 0);

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

  for (const StageSpec& stage : stages) {
    SOMR_TRACE_SCOPE_CAT("match", stage.span_name);
    // The (ti, ni) order of the candidates is the order every later step
    // (scores, edges, the assignment solve) inherits, which is what keeps
    // the parallel and sequential paths byte-identical.
    EnumerateStage(stage, instances, step);
    step.candidates += step.cands.size();
    for (const StagePair& p : step.cands) ++step.considered_per_ni[p.incoming];
    if (provenance_ != nullptr) {
      step.stage_considered.assign(step.nn, 0);
      for (const StagePair& p : step.cands) {
        ++step.stage_considered[p.incoming];
      }
    }
    if (step.cands.empty()) continue;
    ScoreStage(stage, step);
    AssignStage(stage, revision_index, instances, step);
  }
}

void TemporalMatcher::EnumerateStage(
    const StageSpec& stage,
    const std::vector<extract::ObjectInstance>& instances, StepScratch& step) {
  step.cands.clear();
  auto in_neighborhood = [&](size_t ti, size_t ni) {
    return !stage.local_only ||
           std::abs(tracked_[ti].last_position - instances[ni].position) <=
               config_.theta_pos;
  };
  const bool strict = stage.kind == sim::SimilarityKind::kStrict;
  if (strict ? step.strict_indexed : step.relaxed_indexed) {
    const std::vector<std::vector<StepScratch::IndexedCand>>& per_ni =
        strict ? step.strict_cands : step.relaxed_cands;
    for (size_t ni = 0; ni < step.nn; ++ni) {
      if (step.incoming_matched[ni]) continue;
      for (const StepScratch::IndexedCand& c : per_ni[ni]) {
        const size_t ti = c.tracked;
        if (step.tracked_matched[ti]) continue;
        if (c.bound < stage.threshold - kBoundSlack) continue;
        if (!in_neighborhood(ti, ni)) continue;
        step.cands.push_back({c.tracked, static_cast<uint32_t>(ni)});
      }
    }
    // The survivor lists are per instance; restore (ti, ni) order.
    std::sort(step.cands.begin(), step.cands.end(),
              [](const StagePair& a, const StagePair& b) {
                return a.tracked != b.tracked ? a.tracked < b.tracked
                                              : a.incoming < b.incoming;
              });
    return;
  }
  for (size_t ti = 0; ti < step.nt; ++ti) {
    if (step.tracked_matched[ti]) continue;
    EnsureHistoryTotals(step, ti);
    for (size_t ni = 0; ni < step.nn; ++ni) {
      if (step.incoming_matched[ni]) continue;
      if (!in_neighborhood(ti, ni)) continue;
      step.cands.push_back(
          {static_cast<uint32_t>(ti), static_cast<uint32_t>(ni)});
    }
  }
}

double TemporalMatcher::PairBound(const StepScratch& step, size_t ti,
                                  size_t ni) const {
  // Decayed upper bound for the strict measure: max over the rear-view
  // window of phi^i * min(Wa_i, Wb) / max(Wa_i, Wb). Totals only — no
  // token data touched.
  const Tracked& t = tracked_[ti];
  const size_t hist = t.recent_flat.size();
  const bool cand_empty = step.incoming[ni].empty();
  const double wb = step.incoming_total[ni];
  double bound = 0.0;
  double decay = 1.0;
  size_t considered = 0;
  for (size_t back = 0; back < hist && considered < step.sim_window;
       ++back, ++considered) {
    if (decay <= bound) break;  // phi^i decreasing, ratios <= 1
    const size_t h = hist - 1 - back;
    bound = std::max(
        bound, decay * sim::SimilarityUpperBound(
                           sim::SimilarityKind::kStrict,
                           t.recent_flat[h].empty(), cand_empty,
                           HistoryTotal(step, ti, h), wb));
    decay *= config_.decay;
  }
  return bound;
}

double TemporalMatcher::ExactSim(const StepScratch& step,
                                 sim::SimilarityKind kind, size_t ti,
                                 size_t ni, size_t* sims) const {
  // The decayed rear-view similarity, skipping history versions whose
  // bound cannot beat the best seen so far (skips never change the max).
  const Tracked& t = tracked_[ti];
  const FlatBag& cand = step.incoming[ni];
  const size_t hist = t.recent_flat.size();
  const double wb = step.incoming_total[ni];
  double best = 0.0;
  double decay = 1.0;
  size_t considered = 0;
  for (size_t back = 0; back < hist && considered < step.sim_window;
       ++back, ++considered) {
    if (decay <= best) break;  // sims <= 1: no later version can win
    const size_t h = hist - 1 - back;
    const FlatBag& version = t.recent_flat[h];
    const double wa = HistoryTotal(step, ti, h);
    double cap =
        sim::SimilarityUpperBound(kind, version.empty(), cand.empty(), wa, wb);
    if (decay * cap > best) {
      ++*sims;
      best = std::max(best, decay * sim::SimilarityFromTotals(
                                        kind, version, cand, weights_, wa,
                                        wb));
    }
    decay *= config_.decay;
  }
  return best;
}

double TemporalMatcher::SimProbe(StepScratch& step, sim::SimilarityKind kind,
                                 double threshold, size_t ti, size_t ni,
                                 size_t* sims, size_t* pruned) const {
  // Thread-safe for distinct pairs: every mutable touch (bound, caches)
  // lands in that pair's own flat cells, and the counters go through the
  // caller-supplied pointers.
  const size_t idx = ti * step.nn + ni;
  std::vector<double>& cache = kind == sim::SimilarityKind::kStrict
                                   ? step.strict_cache
                                   : step.relaxed_cache;
  if (!std::isnan(cache[idx])) return cache[idx];
  if (kind == sim::SimilarityKind::kStrict) {
    double& bound = step.strict_bound[idx];
    if (std::isnan(bound)) bound = PairBound(step, ti, ni);
    if (bound < threshold) {
      // Provably below this stage's threshold: skip the merge-joins.
      // Not cached — a later stage with a lower threshold re-checks.
      ++*pruned;
      return kPruned;
    }
  }
  double s = ExactSim(step, kind, ti, ni, sims);
  cache[idx] = s;
  return s;
}

void TemporalMatcher::ScoreStage(const StageSpec& stage, StepScratch& step) {
  const std::vector<StagePair>& pairs = step.cands;
  step.stage_sims.resize(pairs.size());
  if (executor_ == nullptr || pairs.size() < config_.parallel_min_pairs) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      step.stage_sims[k] =
          SimProbe(step, stage.kind, stage.threshold, pairs[k].tracked,
                   pairs[k].incoming, &stats_.similarities_computed,
                   &stats_.pairs_pruned);
    }
    return;
  }
  // Intra-step parallel path. Safe because each pair appears exactly once
  // per stage (writes hit distinct cache cells) and counter deltas
  // accumulate in cacheline-padded per-thread scratch, folded into
  // MatchStats afterwards — sums are commutative, so the counters match
  // the sequential path exactly.
  struct alignas(64) Counters {
    size_t sims = 0;
    size_t pruned = 0;
  };
  std::vector<Counters> counters(executor_->num_workers() + 1);
  const size_t grain = std::max<size_t>(
      64, pairs.size() /
              (static_cast<size_t>(executor_->num_workers()) * 4 + 1));
  executor_->ParallelFor(0, pairs.size(), grain,
                         [&](size_t chunk_begin, size_t chunk_end) {
    Counters& slot = counters[executor_->CurrentSlot()];
    for (size_t k = chunk_begin; k < chunk_end; ++k) {
      step.stage_sims[k] =
          SimProbe(step, stage.kind, stage.threshold, pairs[k].tracked,
                   pairs[k].incoming, &slot.sims, &slot.pruned);
    }
  });
  for (const Counters& slot : counters) {
    stats_.similarities_computed += slot.sims;
    stats_.pairs_pruned += slot.pruned;
  }
}

void TemporalMatcher::DescribePair(const StepScratch& step,
                                   sim::SimilarityKind kind, size_t ti,
                                   size_t ni, obs::MatchDecision* d) const {
  // Provenance-only recompute of the rear-view profile of one pair: which
  // history version produced the best decayed similarity and how many
  // versions were in reach.
  const Tracked& t = tracked_[ti];
  const FlatBag& cand = step.incoming[ni];
  const size_t hist = t.recent_flat.size();
  const double wb = step.incoming_total[ni];
  double best = -1.0;
  int best_depth = -1;
  double decay = 1.0;
  size_t considered = 0;
  for (size_t back = 0; back < hist && considered < step.sim_window;
       ++back, ++considered) {
    const size_t h = hist - 1 - back;
    double s = decay * sim::SimilarityFromTotals(kind, t.recent_flat[h],
                                                 cand, weights_,
                                                 HistoryTotal(step, ti, h), wb);
    if (s > best) {
      best = s;
      best_depth = static_cast<int>(back);
    }
    decay *= config_.decay;
  }
  d->rear_view_depth = best_depth;
  d->rear_view_len = static_cast<int>(considered);
}

void TemporalMatcher::AssignStage(
    const StageSpec& stage, int revision_index,
    const std::vector<extract::ObjectInstance>& instances, StepScratch& step) {
  std::vector<WeightedEdge> edges;
  // Similarity of each edge without its tie-break perturbation, kept
  // only while a provenance sink is attached (parallel to `edges`).
  std::vector<double> edge_sims;
  for (size_t k = 0; k < step.cands.size(); ++k) {
    const size_t ti = step.cands[k].tracked;
    const size_t ni = step.cands[k].incoming;
    const double s = step.stage_sims[k];
    if (s < stage.threshold) continue;
    // Every edge offered to the Hungarian solve — hence every accepted
    // match — carries a similarity at or above this stage's threshold
    // (also rejects NaN similarities, which pass the `<` filter above).
    SOMR_DCHECK_GE(s, stage.threshold);
    double weight =
        s + TieBreakBonus(tracked_[ti], instances[ni].position, revision_index);
    edges.push_back({static_cast<int>(ti), static_cast<int>(ni), weight});
    if (provenance_ != nullptr) edge_sims.push_back(s);
  }
  if (edges.empty()) return;
  std::vector<std::pair<int, int>> matched;
  {
    SOMR_TRACE_SCOPE_CAT("match", "match/hungarian");
    matched = MaxWeightMatching(step.nt, step.nn, edges);
  }
  std::vector<char> edge_accepted(provenance_ != nullptr ? edges.size() : 0,
                                  0);
  for (auto [ti, ni] : matched) {
    // Hungarian output must stay within this stage's unmatched rows
    // and columns — a duplicate here would fork an identity chain.
    SOMR_DCHECK(!step.tracked_matched[static_cast<size_t>(ti)])
        << "stage " << stage.number << " rematched tracked object " << ti;
    SOMR_DCHECK(!step.incoming_matched[static_cast<size_t>(ni)])
        << "stage " << stage.number << " rematched instance " << ni;
    step.tracked_matched[static_cast<size_t>(ti)] = true;
    step.incoming_matched[static_cast<size_t>(ni)] = true;
    step.assignment[static_cast<size_t>(ni)] =
        tracked_[static_cast<size_t>(ti)].id;
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
  if (provenance_ == nullptr) return;
  for (size_t e = 0; e < edges.size(); ++e) {
    const size_t ti = static_cast<size_t>(edges[e].left);
    const size_t ni = static_cast<size_t>(edges[e].right);
    obs::MatchDecision d;
    d.kind = edge_accepted[e] != 0 ? obs::MatchDecision::Kind::kMatch
                                   : obs::MatchDecision::Kind::kReject;
    d.trace_id = obs::CurrentTraceId();
    d.object_type = extract::ObjectTypeName(type_);
    d.revision = revision_index;
    d.stage = stage.number;
    d.object_id = tracked_[ti].id;
    d.position = instances[ni].position;
    d.similarity = edge_sims[e];
    d.threshold = stage.threshold;
    d.candidates_considered = static_cast<int64_t>(step.stage_considered[ni]);
    TieBreakParts(tracked_[ti], instances[ni].position, revision_index,
                  &d.tiebreak_position, &d.tiebreak_lifetime);
    DescribePair(step, stage.kind, ti, ni, &d);
    d.reason = edge_accepted[e] != 0 ? "matched" : "lost_assignment";
    provenance_->Record(d);
  }
}

void TemporalMatcher::CommitAssignments(
    int revision_index, const std::vector<extract::ObjectInstance>& instances,
    StepScratch& step) {
  for (size_t ni = 0; ni < instances.size(); ++ni) {
    VersionRef ref{revision_index, instances[ni].position};
    int64_t object_id = step.assignment[ni];
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
            static_cast<int64_t>(step.considered_per_ni[ni]);
        d.reason = "new_object";
        provenance_->Record(d);
      }
    } else {
      graph_.AppendVersion(object_id, ref);
    }
    // Roll the rear-view window of the (new or matched) object forward,
    // keeping the retrieval postings and the previous-version document
    // frequencies in lockstep with it. Object ids are assigned
    // sequentially, so they index tracked_.
    Tracked& t = tracked_[static_cast<size_t>(object_id)];
    if (config_.use_idf_weighting && !t.recent_flat.empty()) {
      weights_.RemovePrevBag(t.recent_flat.back());
    }
    t.recent_flat.push_back(std::move(step.incoming[ni]));
    while (t.recent_flat.size() > step.window) t.recent_flat.pop_front();
    index_.SetWindow(static_cast<uint32_t>(t.id), t.recent_flat);
    if (config_.use_idf_weighting) weights_.AddPrevBag(t.recent_flat.back());
    t.last_position = instances[ni].position;
    t.last_revision = revision_index;
  }
}

void TemporalMatcher::RebuildDerivedState() {
  index_ = retrieval::CandidateIndex();
  hist_total_cache_.clear();
  hist_total_stamp_.clear();
  step_serial_ = 0;
  for (size_t ti = 0; ti < tracked_.size(); ++ti) {
    index_.SetWindow(static_cast<uint32_t>(ti), tracked_[ti].recent_flat);
  }
  if (config_.use_idf_weighting) {
    // Seed the previous-version document frequencies from the newest
    // window bag of every tracked object.
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
