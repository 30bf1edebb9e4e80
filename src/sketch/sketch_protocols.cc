#include "sketch/sketch_protocols.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace csod::sketch {

namespace {

// Builds the merged global sketch from all node slices, accounting one
// 8-byte counter per table cell per node.
Result<CountSketch> MergedSketch(const dist::Cluster& cluster,
                                 const CountSketchProtocolOptions& options,
                                 dist::CommStats* comm) {
  if (options.width == 0) {
    return Status::InvalidArgument("CountSketch protocol: width must be > 0");
  }
  if (cluster.num_nodes() == 0) {
    return Status::FailedPrecondition("CountSketch protocol: empty cluster");
  }
  comm->BeginRound();
  CSOD_ASSIGN_OR_RETURN(
      CountSketch merged,
      CountSketch::Create(options.width, kCountSketchDepth, options.seed));
  for (dist::NodeId id : cluster.NodeIds()) {
    CSOD_ASSIGN_OR_RETURN(const cs::SparseSlice* slice, cluster.Slice(id));
    CSOD_ASSIGN_OR_RETURN(
        CountSketch local,
        CountSketch::Create(options.width, kCountSketchDepth, options.seed));
    for (size_t j = 0; j < slice->indices.size(); ++j) {
      local.Update(slice->indices[j], slice->values[j]);
    }
    CSOD_RETURN_NOT_OK(merged.Merge(local));
    comm->Account("sketch-counters", local.num_counters(),
                  dist::kMeasurementBytes);
  }
  return merged;
}

}  // namespace

Result<outlier::OutlierSet> CountSketchOutlierProtocol::Run(
    const dist::Cluster& cluster, size_t k, dist::CommStats* comm) {
  if (comm == nullptr) {
    return Status::InvalidArgument(
        "CountSketchOutlierProtocol: comm must not be null");
  }
  CSOD_ASSIGN_OR_RETURN(CountSketch merged,
                        MergedSketch(cluster, options_, comm));

  const size_t n = cluster.key_space_size();
  std::vector<double> estimates(n);
  for (size_t key = 0; key < n; ++key) {
    estimates[key] = merged.Estimate(key);
  }

  // Mode estimate: median of all point estimates (the majority of keys sit
  // at the mode, so the median is a robust center even under noise).
  std::vector<double> sorted = estimates;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  const double mode = sorted[n / 2];

  outlier::OutlierSet result;
  result.mode = mode;
  for (size_t key = 0; key < n; ++key) {
    const double divergence = std::fabs(estimates[key] - mode);
    if (divergence == 0.0) continue;
    result.outliers.push_back(outlier::Outlier{key, estimates[key], divergence});
  }
  outlier::RankByDivergence(&result.outliers, k);
  return result;
}

Result<std::vector<outlier::Outlier>> RunCountSketchTopK(
    const dist::Cluster& cluster, size_t k,
    const CountSketchProtocolOptions& options, dist::CommStats* comm) {
  if (comm == nullptr) {
    return Status::InvalidArgument("RunCountSketchTopK: comm must not be null");
  }
  CSOD_ASSIGN_OR_RETURN(CountSketch merged,
                        MergedSketch(cluster, options, comm));
  const size_t n = cluster.key_space_size();
  std::vector<outlier::Outlier> all;
  all.reserve(n);
  for (size_t key = 0; key < n; ++key) {
    const double estimate = merged.Estimate(key);
    all.push_back(outlier::Outlier{key, estimate, estimate});
  }
  outlier::RankByValue(&all, k);
  return all;
}

}  // namespace csod::sketch
