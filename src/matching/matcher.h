#pragma once

#include <cstdint>
#include <deque>
#include <type_traits>
#include <utility>
#include <vector>

#include "extract/features.h"
#include "extract/object.h"
#include "matching/identity_graph.h"
#include "matching/interface.h"
#include "obs/provenance.h"
#include "retrieval/candidate_index.h"
#include "sim/similarity.h"
#include "text/flat_bag.h"
#include "text/token_pool.h"

namespace somr {
class ValidationReport;  // invariant findings (src/common/check.h)
}  // namespace somr

namespace somr::state {
class MatcherSerde;  // snapshot serializer (src/state/snapshot.cc)
}  // namespace somr::state

namespace somr::parallel {
class Executor;  // work-stealing pool (src/parallel/executor.h)
}  // namespace somr::parallel

namespace somr::matching {

/// Configuration of the multi-stage matcher, defaults set to the paper's
/// published parameter choices (Sec. V-C).
struct MatcherConfig {
  /// Stage-1 neighborhood: |pos(x) - pos(o)| <= theta_pos.
  int theta_pos = 2;
  /// Stage-1 similarity threshold (strict measure, local candidates).
  double theta1 = 0.8;
  /// Stage-2 threshold (strict measure, all pairs).
  double theta2 = 0.6;
  /// Stage-3 threshold (relaxed measure, all pairs).
  double theta3 = 0.4;
  /// Rear-view mirror window k: number of recent non-empty versions of an
  /// object compared against each new instance (Sec. IV-A2).
  int rear_view_window = 5;
  /// Decay factor phi applied per skipped version in the rear view.
  double decay = 0.9;
  /// Inverse-object-frequency token weighting (Sec. IV-B2).
  bool use_idf_weighting = true;
  /// Spatial features: stage 1 and the position tie-breaker. Disabled for
  /// contexts without an order, e.g. the Socrata data lake (Sec. V-B).
  bool use_spatial_features = true;
  /// Stage 1 can be disabled independently for the runtime ablation
  /// (Fig. 11) while keeping the position tie-breaker.
  bool enable_stage1 = true;
  /// Stages 2 and 3 can be disabled for the stage-composition ablation
  /// (stage 2 drives precision, stage 3 recall — Sec. IV-B3).
  bool enable_stage2 = true;
  bool enable_stage3 = true;
  /// Lifetime tie-breaker (prefer objects with longer histories).
  bool enable_lifetime_tiebreak = true;
  /// Intra-step parallelism (only with an Executor attached via
  /// SetExecutor): when a stage's candidate-pair count reaches
  /// parallel_min_pairs, the stage similarity matrix is filled with
  /// Executor::ParallelFor before the (always sequential) assignment
  /// solve. Exact — identity graphs and MatchStats counters are
  /// byte-identical at any thread count, so this knob is perf-only and
  /// deliberately excluded from the snapshot config fingerprint.
  size_t parallel_min_pairs = 4096;
  /// Bag-of-words construction options.
  extract::FeatureOptions features;
};

/// One candidate pair of a matching stage: indexes into the tracked
/// objects and the incoming instances of the current step.
struct StagePair {
  uint32_t tracked = 0;
  uint32_t incoming = 0;
};

/// Runtime accounting for the performance experiments (Fig. 11).
struct MatchStats {
  std::vector<double> step_millis;  // wall time of each matching step
  size_t similarities_computed = 0;
  size_t stage1_matches = 0;
  size_t stage2_matches = 0;
  size_t stage3_matches = 0;
  size_t new_objects = 0;
  /// Pairs skipped because the weighted-total upper bound proved the
  /// decayed similarity below the stage threshold (no merge-join run).
  size_t pairs_pruned = 0;
};

/// Matches the object instances of one object type on one page across its
/// revision stream, building the identity graph incrementally (online):
/// call ProcessRevision once per page version, in order. This implements
/// Algorithm 1 with the three stages of Sec. IV-B3.
class TemporalMatcher : public RevisionMatcher {
 public:
  explicit TemporalMatcher(extract::ObjectType type,
                           MatcherConfig config = {});

  /// Processes one page version. `instances` must be the instances of
  /// this matcher's object type, in page order (position ranks 0..n-1).
  void ProcessRevision(
      int revision_index,
      const std::vector<extract::ObjectInstance>& instances) override;

  const IdentityGraph& graph() const override { return graph_; }
  const MatchStats& stats() const { return stats_; }
  const MatcherConfig& config() const { return config_; }

  /// Attaches a match-decision provenance sink (nullptr detaches). The
  /// sink must outlive every subsequent ProcessRevision call; decision
  /// records are only built while one is attached.
  void SetProvenanceSink(obs::ProvenanceSink* sink) { provenance_ = sink; }

  /// Attaches a work-stealing pool for intra-step parallelism (nullptr
  /// detaches — the matcher then runs fully sequentially). The executor
  /// must outlive every subsequent ProcessRevision call. Attaching one
  /// never changes results, only wall time; see
  /// MatcherConfig::parallel_min_pairs.
  void SetExecutor(parallel::Executor* executor) { executor_ = executor; }

  /// Destructive accessors for pipeline code that owns the matcher and
  /// wants the result without copying the graph. TakeStats leaves a
  /// fully zeroed MatchStats behind (a plain move would reset only the
  /// step_millis vector and keep the counters, so stats() would read
  /// inconsistent values afterwards).
  IdentityGraph TakeGraph() { return std::move(graph_); }
  MatchStats TakeStats() { return std::exchange(stats_, MatchStats{}); }

  /// Appends every violated matcher invariant to `report` (config
  /// threshold ordering, graph linearity, tracked-table/graph agreement,
  /// rear-view depth <= k). Debug builds run this automatically at every
  /// step boundary; see src/matching/validate.h.
  void Validate(somr::ValidationReport* report) const;

 private:
  // The snapshot subsystem persists and restores the full matcher state
  // (pool, tracked windows, graph, stats) for checkpointed ingestion.
  friend class somr::state::MatcherSerde;

  struct Tracked {
    Tracked() = default;
    Tracked(const Tracked&) = default;
    Tracked& operator=(const Tracked&) = default;
    // libstdc++'s deque move constructor allocates, so it is not noexcept
    // and a growing std::vector<Tracked> would copy every window instead
    // of moving it. Should that allocation fail, the move terminates.
    Tracked(Tracked&&) noexcept = default;
    Tracked& operator=(Tracked&&) noexcept = default;

    int64_t id = 0;
    std::deque<FlatBag> recent_flat;  // rear-view window: oldest..newest
    int last_position = 0;
    int first_revision = 0;
    int last_revision = 0;
  };
  static_assert(std::is_nothrow_move_constructible_v<Tracked>,
                "tracked_ must move, not copy, its windows when it grows");

  /// One matching stage's parameters, shared between the stage loop and
  /// the candidate enumerator.
  struct StageSpec {
    int number = 0;             // 1..3, for stats and provenance
    bool local_only = false;    // stage 1: positional neighborhood only
    sim::SimilarityKind kind = sim::SimilarityKind::kStrict;
    double threshold = 0.0;
    size_t* match_counter = nullptr;  // stats_.stageN_matches
    const char* span_name = "";       // static, for SOMR_TRACE_SCOPE
  };

  /// Working state of one matching step: the incoming bags and totals,
  /// the retrieval shortlists, the per-pair similarity caches and the
  /// stage loop's bookkeeping. Built and consumed by the step functions
  /// below and discarded when the step ends. Defined in matcher.cc.
  struct StepScratch;

  // One matching step (Algorithm 1), in the order ProcessRevision runs
  // them:
  //   PrepareBags -> RetrieveCandidates -> RunStages -> CommitAssignments
  // where RunStages runs EnumerateStage -> ScoreStage -> AssignStage for
  // each enabled stage.

  /// Compiles the incoming instances into interned bags, overlays their
  /// document frequencies on the IOF weights (Sec. IV-B2) and computes
  /// their weighted totals.
  void PrepareBags(const std::vector<extract::ObjectInstance>& instances,
                   StepScratch& step);

  /// Walks the retrieval index once per incoming instance and keeps, per
  /// similarity kind, the tracked objects whose decayed similarity bound
  /// reaches the lowest threshold of that kind (DESIGN.md §12). A kind
  /// whose lowest threshold is <= 0 keeps every pair and is swept instead.
  void RetrieveCandidates(StepScratch& step);

  /// Runs the enabled stages over the still-unmatched pairs, recording
  /// each accepted match in `step.assignment`.
  void RunStages(int revision_index,
                 const std::vector<extract::ObjectInstance>& instances,
                 StepScratch& step);

  /// Fills `step.cands` with the stage's candidate pairs in ascending
  /// (tracked, incoming) order: the retrieval shortlist re-filtered at
  /// the stage threshold, or the full sweep.
  void EnumerateStage(const StageSpec& stage,
                      const std::vector<extract::ObjectInstance>& instances,
                      StepScratch& step);

  /// Fills `step.stage_sims[k]` with the decayed similarity of
  /// `step.cands[k]`, or -infinity when the pair is provably below the
  /// stage threshold. Large stages run on the attached executor.
  void ScoreStage(const StageSpec& stage, StepScratch& step);

  /// Offers every pair at or above the threshold to the assignment solve
  /// with its tie-break bonus, applies the matching and records pair
  /// provenance.
  void AssignStage(const StageSpec& stage, int revision_index,
                   const std::vector<extract::ObjectInstance>& instances,
                   StepScratch& step);

  /// Applies `step.assignment` to the graph: appends matched instances to
  /// their objects, creates new objects for the rest (Alg. 1 line 7), and
  /// rolls each touched object's rear-view window, retrieval postings and
  /// previous-side IOF counts forward.
  void CommitAssignments(
      int revision_index,
      const std::vector<extract::ObjectInstance>& instances,
      StepScratch& step);

  // Per-pair kernels of the stage loop. All read the step's weights and
  // the stamped history totals (EnsureHistoryTotals must have run for
  // `ti` in this step).
  void EnsureHistoryTotals(const StepScratch& step, size_t ti);
  double HistoryTotal(const StepScratch& step, size_t ti, size_t h) const;
  double PairBound(const StepScratch& step, size_t ti, size_t ni) const;
  double IndexedBound(const StepScratch& step, sim::SimilarityKind kind,
                      size_t ti, size_t ni, double overlap_bound) const;
  double ExactSim(const StepScratch& step, sim::SimilarityKind kind,
                  size_t ti, size_t ni, size_t* sims) const;
  double SimProbe(StepScratch& step, sim::SimilarityKind kind,
                  double threshold, size_t ti, size_t ni, size_t* sims,
                  size_t* pruned) const;
  void DescribePair(const StepScratch& step, sim::SimilarityKind kind,
                    size_t ti, size_t ni, obs::MatchDecision* d) const;

  /// Rebuilds everything derivable from the core state (tracked windows,
  /// pool, config): the retrieval index and the incremental IOF document
  /// frequencies. Called by the constructor and by the snapshot loader
  /// after restoring the core state — an index rebuilt here retrieves
  /// identically to one maintained incrementally, which is why snapshots
  /// don't serialize it.
  void RebuildDerivedState();

  /// Tie-break perturbation added to a similarity score; strictly smaller
  /// than any meaningful similarity difference. The position and
  /// lifetime components are also reported separately in provenance
  /// records, hence the split accessor.
  void TieBreakParts(const Tracked& tracked, int new_position,
                     int revision_index, double* position_part,
                     double* lifetime_part) const;
  double TieBreakBonus(const Tracked& tracked, int new_position,
                       int revision_index) const;

  extract::ObjectType type_;
  MatcherConfig config_;
  IdentityGraph graph_;
  MatchStats stats_;
  // False once any processed revision contained duplicate position
  // ranks (a tolerated caller bug): from then on (revision, position)
  // no longer identifies an instance, so Validate skips the
  // graph-linearity claim-uniqueness check. Not persisted by snapshots —
  // a restored matcher conservatively assumes well-formed history.
  bool input_positions_unique_ = true;
  std::vector<Tracked> tracked_;
  TokenPool pool_;                  // page-lifetime interning
  sim::DenseTokenWeights weights_;  // IOF weights, previous side kept live
  /// Inverted index over the rear-view windows (never serialized — see
  /// RebuildDerivedState).
  retrieval::CandidateIndex index_;
  /// Lazy per-(tracked, window-slot) weighted totals, stamped per step so
  /// only the objects a stage can touch pay for them. Stride is the
  /// rear-view window.
  std::vector<double> hist_total_cache_;
  std::vector<uint64_t> hist_total_stamp_;
  uint64_t step_serial_ = 0;
  obs::ProvenanceSink* provenance_ = nullptr;  // optional, not owned
  parallel::Executor* executor_ = nullptr;     // optional, not owned
};

/// Convenience driver that runs three TemporalMatchers (tables, infoboxes,
/// lists) over a stream of PageObjects.
class PageMatcher {
 public:
  explicit PageMatcher(MatcherConfig config = {});

  void ProcessRevision(int revision_index,
                       const extract::PageObjects& objects);

  /// Attaches a provenance sink to all three matchers (nullptr detaches).
  void SetProvenanceSink(obs::ProvenanceSink* sink);

  /// Attaches an executor to all three matchers (nullptr detaches).
  void SetExecutor(parallel::Executor* executor);

  const IdentityGraph& GraphFor(extract::ObjectType type) const;
  const MatchStats& StatsFor(extract::ObjectType type) const;

  IdentityGraph TakeGraph(extract::ObjectType type);
  MatchStats TakeStats(extract::ObjectType type);

  /// Validates all three per-type matchers into `report`.
  void Validate(somr::ValidationReport* report) const;

  const MatcherConfig& config() const { return tables_.config(); }

 private:
  friend class somr::state::MatcherSerde;

  TemporalMatcher& MatcherFor(extract::ObjectType type);

  TemporalMatcher tables_;
  TemporalMatcher infoboxes_;
  TemporalMatcher lists_;
};

}  // namespace somr::matching
