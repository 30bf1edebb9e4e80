#include "core/detector.h"

#include <set>
#include <string>

#include "cs/solver.h"
#include "la/vector_ops.h"

namespace csod::core {

DistributedOutlierDetector::DistributedOutlierDetector(
    const DetectorOptions& options)
    : options_(options),
      matrix_(cs::SharedMatrix(options.m, options.n, options.seed)),
      compressor_(std::make_unique<cs::Compressor>(matrix_.get())),
      global_y_(options.m, 0.0) {
  compressor_->set_telemetry(options.telemetry);
}

Result<std::unique_ptr<DistributedOutlierDetector>>
DistributedOutlierDetector::Create(const DetectorOptions& options) {
  if (options.n == 0) {
    return Status::InvalidArgument("DetectorOptions.n must be > 0");
  }
  if (options.m == 0) {
    return Status::InvalidArgument("DetectorOptions.m must be > 0");
  }
  return std::unique_ptr<DistributedOutlierDetector>(
      new DistributedOutlierDetector(options));
}

Result<SourceId> DistributedOutlierDetector::AddSource(
    const cs::SparseSlice& slice) {
  CSOD_ASSIGN_OR_RETURN(std::vector<double> y_l,
                        compressor_->Compress(slice));
  return AddSourceMeasurement(std::move(y_l));
}

Result<SourceId> DistributedOutlierDetector::AddSourceMeasurement(
    std::vector<double> y_l) {
  if (y_l.size() != options_.m) {
    return Status::InvalidArgument(
        "AddSourceMeasurement: measurement size " +
        std::to_string(y_l.size()) + " != M " + std::to_string(options_.m));
  }
  la::Axpy(1.0, y_l, &global_y_);
  const SourceId id = next_id_++;
  sketches_.emplace(id, std::move(y_l));
  return id;
}

Status DistributedOutlierDetector::RemoveSource(SourceId id) {
  auto it = sketches_.find(id);
  if (it == sketches_.end()) {
    return Status::NotFound("RemoveSource: no source " + std::to_string(id));
  }
  la::Axpy(-1.0, it->second, &global_y_);
  sketches_.erase(it);
  return Status::OK();
}

Status DistributedOutlierDetector::ApplyDelta(SourceId id,
                                              const cs::SparseSlice& delta) {
  auto it = sketches_.find(id);
  if (it == sketches_.end()) {
    return Status::NotFound("ApplyDelta: no source " + std::to_string(id));
  }
  CSOD_ASSIGN_OR_RETURN(std::vector<double> dy, compressor_->Compress(delta));
  la::Axpy(1.0, dy, &it->second);
  la::Axpy(1.0, dy, &global_y_);
  return Status::OK();
}

Result<outlier::OutlierSet> DistributedOutlierDetector::Detect(
    size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("Detect: k must be > 0");
  }
  CSOD_ASSIGN_OR_RETURN(cs::BompResult recovery,
                        Recover(cs::IterationBudget(options_.iterations, k)));
  return outlier::KOutliersFromRecovery(recovery, k);
}

Result<outlier::OutlierSet> DistributedOutlierDetector::DetectExcluding(
    const std::vector<SourceId>& excluded, size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("DetectExcluding: k must be > 0");
  }
  std::vector<double> partial_y = global_y_;
  size_t remaining = sketches_.size();
  std::set<SourceId> seen;
  for (SourceId id : excluded) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("DetectExcluding: duplicate source " +
                                     std::to_string(id));
    }
    auto it = sketches_.find(id);
    if (it == sketches_.end()) {
      return Status::NotFound("DetectExcluding: no source " +
                              std::to_string(id));
    }
    la::Axpy(-1.0, it->second, &partial_y);
    --remaining;
  }
  if (remaining == 0) {
    return Status::FailedPrecondition(
        "DetectExcluding: every source excluded — nothing to aggregate");
  }
  cs::SolverOptions solver_options;
  solver_options.iterations = cs::IterationBudget(options_.iterations, k);
  solver_options.telemetry = options_.telemetry;
  CSOD_ASSIGN_OR_RETURN(
      cs::BompResult recovery,
      cs::RecoverBiased(*matrix_, partial_y, solver_options));
  return outlier::KOutliersFromRecovery(recovery, k);
}

Result<std::vector<outlier::Outlier>> DistributedOutlierDetector::DetectTopK(
    size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("DetectTopK: k must be > 0");
  }
  CSOD_ASSIGN_OR_RETURN(cs::BompResult recovery,
                        Recover(cs::IterationBudget(options_.iterations, k)));
  return outlier::TopKFromRecovery(recovery, k);
}

Result<cs::BompResult> DistributedOutlierDetector::Recover(
    size_t iterations) const {
  if (sketches_.empty()) {
    return Status::FailedPrecondition("Recover: no sources registered");
  }
  cs::SolverOptions solver_options;
  solver_options.iterations = iterations;
  solver_options.telemetry = options_.telemetry;
  return cs::RecoverBiased(*matrix_, global_y_, solver_options);
}

}  // namespace csod::core
