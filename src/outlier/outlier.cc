#include "outlier/outlier.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace csod::outlier {

void RankByDivergence(std::vector<Outlier>* candidates, size_t k) {
  std::sort(candidates->begin(), candidates->end(),
            [](const Outlier& a, const Outlier& b) {
              if (a.divergence != b.divergence) {
                return a.divergence > b.divergence;
              }
              return a.key_index < b.key_index;
            });
  if (candidates->size() > k) candidates->resize(k);
}

void RankByValue(std::vector<Outlier>* candidates, size_t k) {
  std::sort(candidates->begin(), candidates->end(),
            [](const Outlier& a, const Outlier& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.key_index < b.key_index;
            });
  if (candidates->size() > k) candidates->resize(k);
}

double ComputeMode(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  std::unordered_map<double, size_t> counts;
  counts.reserve(x.size());
  for (double v : x) ++counts[v];
  double mode = x.front();
  size_t best = 0;
  for (const auto& [value, count] : counts) {
    if (count > best || (count == best && value < mode)) {
      best = count;
      mode = value;
    }
  }
  return mode;
}

bool IsMajorityDominated(const std::vector<double>& x) {
  if (x.empty()) return false;
  std::unordered_map<double, size_t> counts;
  counts.reserve(x.size());
  for (double v : x) {
    if (++counts[v] * 2 > x.size()) return true;
  }
  return false;
}

OutlierSet ExactKOutliers(const std::vector<double>& x, size_t k) {
  return KOutliersGivenMode(x, ComputeMode(x), k);
}

OutlierSet KOutliersGivenMode(const std::vector<double>& x, double mode,
                              size_t k) {
  OutlierSet result;
  result.mode = mode;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == mode) continue;
    result.outliers.push_back(
        Outlier{i, x[i], std::fabs(x[i] - mode)});
  }
  RankByDivergence(&result.outliers, k);
  return result;
}

OutlierSet KOutliersFromRecovery(const cs::BompResult& recovery, size_t k) {
  OutlierSet result;
  result.mode = recovery.mode;
  for (const cs::RecoveredEntry& e : recovery.entries) {
    const double divergence = std::fabs(e.value - recovery.mode);
    if (divergence == 0.0) continue;
    result.outliers.push_back(Outlier{e.index, e.value, divergence});
  }
  RankByDivergence(&result.outliers, k);
  return result;
}

std::vector<Outlier> TopKFromRecovery(const cs::BompResult& recovery,
                                      size_t k) {
  std::vector<Outlier> top;
  top.reserve(recovery.entries.size());
  for (const cs::RecoveredEntry& e : recovery.entries) {
    top.push_back(Outlier{e.index, e.value, e.value});
  }
  RankByValue(&top, k);
  return top;
}

std::vector<Outlier> TopK(const std::vector<double>& x, size_t k) {
  std::vector<Outlier> all;
  all.reserve(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    all.push_back(Outlier{i, x[i], x[i]});
  }
  RankByValue(&all, k);
  return all;
}

std::vector<Outlier> AbsoluteTopK(const std::vector<double>& x, size_t k) {
  std::vector<Outlier> all;
  all.reserve(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    all.push_back(Outlier{i, x[i], std::fabs(x[i])});
  }
  RankByDivergence(&all, k);
  return all;
}

}  // namespace csod::outlier
