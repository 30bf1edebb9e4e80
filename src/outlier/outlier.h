#ifndef CSOD_OUTLIER_OUTLIER_H_
#define CSOD_OUTLIER_OUTLIER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"

namespace csod::outlier {

/// One detected outlier: a key (by global-dictionary index), its aggregated
/// value, and its divergence from the mode.
struct Outlier {
  size_t key_index = 0;
  double value = 0.0;
  /// |value - mode|; the k-outlier problem ranks by this.
  double divergence = 0.0;
};

/// A k-outlier answer: the detected outliers (sorted by divergence,
/// descending; ties by key index) plus the mode they diverge from.
struct OutlierSet {
  std::vector<Outlier> outliers;
  double mode = 0.0;
};

/// Exact mode of `x`: the most frequent value (ties broken toward the
/// smaller value). For majority-dominated data this is the unique b of
/// Definition 2.
double ComputeMode(const std::vector<double>& x);

/// True iff some value occurs in more than half of the entries
/// (Definition 2: the data is majority-dominated).
bool IsMajorityDominated(const std::vector<double>& x);

/// Exact (centralized) k-outlier reference: computes the mode and returns
/// the min(k, |O|) entries furthest from it, where O = {i : x_i != mode}.
OutlierSet ExactKOutliers(const std::vector<double>& x, size_t k);

/// k-outlier selection against a caller-supplied mode; still excludes
/// entries exactly equal to the mode.
OutlierSet KOutliersGivenMode(const std::vector<double>& x, double mode,
                              size_t k);

/// k-outlier selection from a sparse recovered candidate set (the BOMP
/// output): picks the min(k, entries) recovered entries furthest from the
/// recovered mode.
OutlierSet KOutliersFromRecovery(const cs::BompResult& recovery, size_t k);

/// The one k-outlier ranking: sorts `candidates` by divergence descending,
/// ties toward the lower key index, and keeps the first k.
void RankByDivergence(std::vector<Outlier>* candidates, size_t k);

/// The one top-k ranking: sorts `candidates` by value descending, ties
/// toward the lower key index, and keeps the first k.
void RankByValue(std::vector<Outlier>* candidates, size_t k);

/// Top-k selection from a sparse recovered candidate set (the §6.2 top-k
/// extension): the min(k, entries) recovered entries with the largest
/// values, ranked exactly like `TopK` (divergence = value).
std::vector<Outlier> TopKFromRecovery(const cs::BompResult& recovery,
                                      size_t k);

/// Classic top-k by value (largest values) — what Figure 1(b) contrasts
/// with outlier-k. Sorted descending by value.
std::vector<Outlier> TopK(const std::vector<double>& x, size_t k);

/// Top-k by absolute value, the other Figure 1(b) contrast.
std::vector<Outlier> AbsoluteTopK(const std::vector<double>& x, size_t k);

}  // namespace csod::outlier

#endif  // CSOD_OUTLIER_OUTLIER_H_
