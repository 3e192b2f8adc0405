#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/bag_of_words.h"
#include "text/flat_bag.h"

namespace somr::sim {

/// Token weighting in the spirit of inverse document frequencies
/// (Sec. IV-B2): a token is down-weighted by the inverse of the number of
/// previously identified objects or new object instances containing it,
/// whichever is larger. Tokens appearing in at most one object on each
/// side keep weight 1.
class TokenWeighting {
 public:
  /// No weighting: every token weighs 1.
  TokenWeighting() = default;

  /// Computes the inverse-object-frequency weighting for one matching
  /// step. `previous` holds the most recent bag of each previously
  /// identified object, `incoming` the bags of the new object instances.
  static TokenWeighting InverseObjectFrequency(
      const std::vector<const BagOfWords*>& previous,
      const std::vector<const BagOfWords*>& incoming);

  /// Weight for `token` (1 when unweighted or unseen).
  double Weight(const std::string& token) const;

  bool IsUniform() const { return weights_.empty(); }

 private:
  std::unordered_map<std::string, double> weights_;
};

/// Dense, id-indexed form of TokenWeighting for the interned-token
/// similarity kernels: weights live in a flat vector indexed by token id,
/// so a lookup is one load instead of a string hash.
///
/// The matcher maintains the previous-side document frequencies across
/// steps instead of recounting every tracked object's newest bag:
/// AddPrevBag/RemovePrevBag follow newest-bag transitions at commit time,
/// and BeginIncrementalStep overlays the incoming side for one matching
/// step. The stored weights equal what TokenWeighting::
/// InverseObjectFrequency computes from the same previous/incoming bags
/// (same integer denominators, same 1/denom doubles).
class DenseTokenWeights {
 public:
  DenseTokenWeights() = default;

  /// Every token weighs 1 (IDF weighting disabled). The default state.
  void BuildUniform() { uniform_ = true; }

  bool IsUniform() const { return uniform_; }

  /// Weight for an interned token id (1 when uniform or unseen).
  double Weight(uint32_t id) const {
    return uniform_ || id >= weights_.size() ? 1.0 : weights_[id];
  }

  /// Clears all document frequencies and switches to IOF weighting.
  void ResetIncremental(uint32_t pool_size);

  /// Registers / unregisters one object's newest bag on the previous side.
  void AddPrevBag(const FlatBag& bag);
  void RemovePrevBag(const FlatBag& bag);

  /// Applies the incoming-side overlay for one matching step: reverts the
  /// previous step's overlay, counts `incoming`, and sets
  /// weight = 1 / max(prev_df, new_df) (1 when the denominator is <= 1)
  /// for every token of the step. Weights must not be read between a
  /// RemovePrevBag/AddPrevBag commit and the next BeginIncrementalStep.
  void BeginIncrementalStep(const std::vector<const FlatBag*>& incoming,
                            uint32_t pool_size);

 private:
  void EnsureSize(uint32_t pool_size);

  std::vector<double> weights_;            // per id, default 1.0
  std::vector<int32_t> prev_df_, new_df_;  // document frequencies
  std::vector<uint32_t> overlay_;          // ids of the current step overlay
  bool uniform_ = true;
};

/// Generalized Jaccard (Ruzicka) similarity of two weighted multisets:
/// sum_min / sum_max. This is the paper's strict measure sim_strict.
double Ruzicka(const BagOfWords& a, const BagOfWords& b);

/// Element-wise containment: sum_min / min(total_a, total_b). The paper's
/// relaxed measure sim_relaxed — tolerant of objects that grow or shrink.
double Containment(const BagOfWords& a, const BagOfWords& b);

/// Weighted variants used by the matcher.
double WeightedRuzicka(const BagOfWords& a, const BagOfWords& b,
                       const TokenWeighting& weighting);
double WeightedContainment(const BagOfWords& a, const BagOfWords& b,
                           const TokenWeighting& weighting);

/// Which base measure a matching stage uses.
enum class SimilarityKind {
  kStrict,   // Ruzicka
  kRelaxed,  // containment
};

double Similarity(SimilarityKind kind, const BagOfWords& a,
                  const BagOfWords& b, const TokenWeighting& weighting);

/// The "rear-view mirror" similarity sim_{k,phi} (Sec. IV-A2): the maximum
/// over the last k non-empty versions of the object of
/// phi^i * sim(version_{n-i}, candidate). `history` is ordered oldest to
/// newest.
double DecayedSimilarity(SimilarityKind kind,
                         const std::vector<const BagOfWords*>& history,
                         const BagOfWords& candidate, int k, double phi,
                         const TokenWeighting& weighting);

// --- Interned-token kernels ---------------------------------------------
//
// FlatBag counterparts of the measures above: sorted merge-joins over
// (id, count) arrays. With uniform weights they produce bit-identical
// values to the BagOfWords kernels (the sums are exact); with IDF weights
// they sum the same terms in id order instead of hash order, so values
// agree to rounding error. The string-bag kernels stay as the building
// blocks of the naive Alg. 1 reference the matcher is tested against
// (tests/matching/reference_matcher.h).

/// Sum over tokens of min(count_a, count_b).
double SumMin(const FlatBag& a, const FlatBag& b);

/// Weighted SumMin: each token's min-count scaled by its dense weight.
double WeightedSumMin(const FlatBag& a, const FlatBag& b,
                      const DenseTokenWeights& weights);

/// Sum over all tokens of weight(id) * count(id).
double WeightedTotal(const FlatBag& bag, const DenseTokenWeights& weights);

double Ruzicka(const FlatBag& a, const FlatBag& b);
double Containment(const FlatBag& a, const FlatBag& b);
double WeightedRuzicka(const FlatBag& a, const FlatBag& b,
                       const DenseTokenWeights& weights);
double WeightedContainment(const FlatBag& a, const FlatBag& b,
                           const DenseTokenWeights& weights);

/// Matcher fast path: similarity with the per-bag weighted totals
/// supplied by the caller (precomputed once per matching step instead of
/// once per pair). `total_a`/`total_b` must equal WeightedTotal(bag,
/// weights) — or TotalCount() when the weights are uniform.
double SimilarityFromTotals(SimilarityKind kind, const FlatBag& a,
                            const FlatBag& b,
                            const DenseTokenWeights& weights, double total_a,
                            double total_b);

/// Upper bound on SimilarityFromTotals for the same arguments, computable
/// from the totals alone (no merge-join):
///  - strict: sum_min <= min(Wa, Wb) and x -> x / (Wa + Wb - x) is
///    increasing, so sim <= min(Wa, Wb) / max(Wa, Wb);
///  - relaxed: containment is trivially <= 1.
/// The both-empty special case (similarity 1) is honored.
double SimilarityUpperBound(SimilarityKind kind, bool a_empty, bool b_empty,
                            double total_a, double total_b);

}  // namespace somr::sim
