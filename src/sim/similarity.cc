#include "sim/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/simd_intersect.h"

namespace somr::sim {
namespace {

/// Size ratio at which the merge-joins switch from the two-pointer merge
/// to galloping lookups of the smaller bag's ids in the larger bag. Below
/// this the merge's sequential scan is cheaper than the probe overhead.
constexpr size_t kGallopRatio = 8;

/// Galloping intersection core: iterates the smaller bag ascending and
/// locates each id in the larger via SimdLowerBound. Shared ids are
/// visited in ascending id order — the same order as the two-pointer
/// merge — so the floating-point accumulation is bit-identical to the
/// merge on the same pair.
template <typename Term>
double GallopJoin(const FlatBag& small_bag, const FlatBag& big_bag,
                  Term&& term) {
  const std::vector<FlatEntry>& es = small_bag.entries();
  const std::vector<FlatEntry>& eb = big_bag.entries();
  const std::vector<uint32_t>& ib = big_bag.ids();
  size_t j = 0;
  double sum = 0.0;
  for (const FlatEntry& e : es) {
    j = SimdLowerBound(ib.data(), j, ib.size(), e.id);
    if (j == ib.size()) break;
    if (ib[j] == e.id) {
      sum += term(e, eb[j]);
      ++j;
    }
  }
  return sum;
}

}  // namespace

TokenWeighting TokenWeighting::InverseObjectFrequency(
    const std::vector<const BagOfWords*>& previous,
    const std::vector<const BagOfWords*>& incoming) {
  std::unordered_map<std::string, int> prev_df;
  std::unordered_map<std::string, int> new_df;
  for (const BagOfWords* bag : previous) {
    for (const auto& [token, count] : bag->counts()) prev_df[token] += 1;
  }
  for (const BagOfWords* bag : incoming) {
    for (const auto& [token, count] : bag->counts()) new_df[token] += 1;
  }
  TokenWeighting weighting;
  for (const auto& [token, df] : prev_df) {
    auto it = new_df.find(token);
    int other = it == new_df.end() ? 0 : it->second;
    int denom = std::max({df, other, 1});
    if (denom > 1) weighting.weights_[token] = 1.0 / denom;
  }
  for (const auto& [token, df] : new_df) {
    if (weighting.weights_.count(token) > 0) continue;
    if (df > 1) weighting.weights_[token] = 1.0 / df;
  }
  return weighting;
}

double TokenWeighting::Weight(const std::string& token) const {
  auto it = weights_.find(token);
  return it == weights_.end() ? 1.0 : it->second;
}

double Ruzicka(const BagOfWords& a, const BagOfWords& b) {
  if (a.empty() && b.empty()) return 1.0;
  double sum_min = a.SumMin(b);
  double sum_max = a.TotalCount() + b.TotalCount() - sum_min;
  return sum_max <= 0.0 ? 0.0 : sum_min / sum_max;
}

double Containment(const BagOfWords& a, const BagOfWords& b) {
  if (a.empty() && b.empty()) return 1.0;
  double smaller = std::min(a.TotalCount(), b.TotalCount());
  if (smaller <= 0.0) return 0.0;
  return a.SumMin(b) / smaller;
}

double WeightedRuzicka(const BagOfWords& a, const BagOfWords& b,
                       const TokenWeighting& weighting) {
  if (weighting.IsUniform()) return Ruzicka(a, b);
  if (a.empty() && b.empty()) return 1.0;
  auto weight = [&](const std::string& t) { return weighting.Weight(t); };
  double sum_min = a.WeightedSumMin(b, weight);
  double sum_max =
      a.WeightedTotal(weight) + b.WeightedTotal(weight) - sum_min;
  return sum_max <= 0.0 ? 0.0 : sum_min / sum_max;
}

double WeightedContainment(const BagOfWords& a, const BagOfWords& b,
                           const TokenWeighting& weighting) {
  if (weighting.IsUniform()) return Containment(a, b);
  if (a.empty() && b.empty()) return 1.0;
  auto weight = [&](const std::string& t) { return weighting.Weight(t); };
  double smaller =
      std::min(a.WeightedTotal(weight), b.WeightedTotal(weight));
  if (smaller <= 0.0) return 0.0;
  return a.WeightedSumMin(b, weight) / smaller;
}

double Similarity(SimilarityKind kind, const BagOfWords& a,
                  const BagOfWords& b, const TokenWeighting& weighting) {
  switch (kind) {
    case SimilarityKind::kStrict:
      return WeightedRuzicka(a, b, weighting);
    case SimilarityKind::kRelaxed:
      return WeightedContainment(a, b, weighting);
  }
  return 0.0;
}

void DenseTokenWeights::EnsureSize(uint32_t pool_size) {
  if (weights_.size() < pool_size) {
    weights_.resize(pool_size, 1.0);
    prev_df_.resize(pool_size, 0);
    new_df_.resize(pool_size, 0);
  }
}

void DenseTokenWeights::ResetIncremental(uint32_t pool_size) {
  weights_.assign(pool_size, 1.0);
  prev_df_.assign(pool_size, 0);
  new_df_.assign(pool_size, 0);
  overlay_.clear();
  uniform_ = false;
}

void DenseTokenWeights::AddPrevBag(const FlatBag& bag) {
  SOMR_DCHECK(!uniform_);
  if (bag.empty()) return;
  EnsureSize(bag.entries().back().id + 1);
  for (const FlatEntry& e : bag.entries()) {
    int32_t df = ++prev_df_[e.id];
    weights_[e.id] = df > 1 ? 1.0 / df : 1.0;
  }
}

void DenseTokenWeights::RemovePrevBag(const FlatBag& bag) {
  SOMR_DCHECK(!uniform_);
  for (const FlatEntry& e : bag.entries()) {
    int32_t df = --prev_df_[e.id];
    SOMR_DCHECK_GE(df, 0);
    weights_[e.id] = df > 1 ? 1.0 / df : 1.0;
  }
}

void DenseTokenWeights::BeginIncrementalStep(
    const std::vector<const FlatBag*>& incoming, uint32_t pool_size) {
  SOMR_DCHECK(!uniform_);
  EnsureSize(pool_size);
  // Revert the previous step's overlay to the pure previous-side weights.
  for (uint32_t id : overlay_) {
    int32_t df = prev_df_[id];
    weights_[id] = df > 1 ? 1.0 / df : 1.0;
    new_df_[id] = 0;
  }
  overlay_.clear();
  for (const FlatBag* bag : incoming) {
    for (const FlatEntry& e : bag->entries()) {
      if (new_df_[e.id]++ == 0) overlay_.push_back(e.id);
    }
  }
  for (uint32_t id : overlay_) {
    int32_t denom = std::max(prev_df_[id], new_df_[id]);
    weights_[id] = denom > 1 ? 1.0 / denom : 1.0;
  }
}

double SumMin(const FlatBag& a, const FlatBag& b) {
  // min() is symmetric and both orders visit shared ids ascending, so
  // swapping the arguments never changes the result — normalize to
  // smaller-first for the gallop test.
  if (a.DistinctCount() > b.DistinctCount()) return SumMin(b, a);
  if (a.DistinctCount() * kGallopRatio <= b.DistinctCount()) {
    return GallopJoin(a, b, [](const FlatEntry& x, const FlatEntry& y) {
      return x.count < y.count ? x.count : y.count;
    });
  }
  const std::vector<FlatEntry>& ea = a.entries();
  const std::vector<FlatEntry>& eb = b.entries();
  size_t i = 0, j = 0;
  double sum = 0.0;
  while (i < ea.size() && j < eb.size()) {
    uint32_t ia = ea[i].id, ib = eb[j].id;
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      sum += ea[i].count < eb[j].count ? ea[i].count : eb[j].count;
      ++i;
      ++j;
    }
  }
  return sum;
}

double WeightedSumMin(const FlatBag& a, const FlatBag& b,
                      const DenseTokenWeights& weights) {
  if (weights.IsUniform()) return SumMin(a, b);
  if (a.DistinctCount() > b.DistinctCount()) {
    return WeightedSumMin(b, a, weights);
  }
  if (a.DistinctCount() * kGallopRatio <= b.DistinctCount()) {
    return GallopJoin(
        a, b, [&weights](const FlatEntry& x, const FlatEntry& y) {
          return weights.Weight(x.id) *
                 (x.count < y.count ? x.count : y.count);
        });
  }
  const std::vector<FlatEntry>& ea = a.entries();
  const std::vector<FlatEntry>& eb = b.entries();
  size_t i = 0, j = 0;
  double sum = 0.0;
  while (i < ea.size() && j < eb.size()) {
    uint32_t ia = ea[i].id, ib = eb[j].id;
    if (ia < ib) {
      ++i;
    } else if (ib < ia) {
      ++j;
    } else {
      sum += weights.Weight(ia) *
             (ea[i].count < eb[j].count ? ea[i].count : eb[j].count);
      ++i;
      ++j;
    }
  }
  return sum;
}

double WeightedTotal(const FlatBag& bag, const DenseTokenWeights& weights) {
  if (weights.IsUniform()) return bag.TotalCount();
  double sum = 0.0;
  for (const FlatEntry& e : bag.entries()) {
    sum += weights.Weight(e.id) * e.count;
  }
  return sum;
}

double SimilarityFromTotals(SimilarityKind kind, const FlatBag& a,
                            const FlatBag& b,
                            const DenseTokenWeights& weights, double total_a,
                            double total_b) {
  if (a.empty() && b.empty()) return 1.0;
  switch (kind) {
    case SimilarityKind::kStrict: {
      double sum_min = WeightedSumMin(a, b, weights);
      double sum_max = total_a + total_b - sum_min;
      return sum_max <= 0.0 ? 0.0 : sum_min / sum_max;
    }
    case SimilarityKind::kRelaxed: {
      double smaller = std::min(total_a, total_b);
      if (smaller <= 0.0) return 0.0;
      return WeightedSumMin(a, b, weights) / smaller;
    }
  }
  return 0.0;
}

double SimilarityUpperBound(SimilarityKind kind, bool a_empty, bool b_empty,
                            double total_a, double total_b) {
  if (a_empty && b_empty) return 1.0;
  if (kind == SimilarityKind::kRelaxed) return 1.0;
  double lo = std::min(total_a, total_b);
  double hi = std::max(total_a, total_b);
  return hi <= 0.0 ? 0.0 : lo / hi;
}

double Ruzicka(const FlatBag& a, const FlatBag& b) {
  DenseTokenWeights uniform;
  return SimilarityFromTotals(SimilarityKind::kStrict, a, b, uniform,
                              a.TotalCount(), b.TotalCount());
}

double Containment(const FlatBag& a, const FlatBag& b) {
  DenseTokenWeights uniform;
  return SimilarityFromTotals(SimilarityKind::kRelaxed, a, b, uniform,
                              a.TotalCount(), b.TotalCount());
}

double WeightedRuzicka(const FlatBag& a, const FlatBag& b,
                       const DenseTokenWeights& weights) {
  return SimilarityFromTotals(SimilarityKind::kStrict, a, b, weights,
                              WeightedTotal(a, weights),
                              WeightedTotal(b, weights));
}

double WeightedContainment(const FlatBag& a, const FlatBag& b,
                           const DenseTokenWeights& weights) {
  return SimilarityFromTotals(SimilarityKind::kRelaxed, a, b, weights,
                              WeightedTotal(a, weights),
                              WeightedTotal(b, weights));
}

double DecayedSimilarity(SimilarityKind kind,
                         const std::vector<const BagOfWords*>& history,
                         const BagOfWords& candidate, int k, double phi,
                         const TokenWeighting& weighting) {
  if (history.empty() || k <= 0) return 0.0;
  double best = 0.0;
  double decay = 1.0;
  int considered = 0;
  for (auto it = history.rbegin();
       it != history.rend() && considered < k; ++it, ++considered) {
    double s = decay * Similarity(kind, **it, candidate, weighting);
    best = std::max(best, s);
    decay *= phi;
  }
  return best;
}

}  // namespace somr::sim
