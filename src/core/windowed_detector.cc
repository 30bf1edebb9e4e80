#include "core/windowed_detector.h"

#include <iterator>
#include <string>
#include <utility>

#include "la/vector_ops.h"

namespace csod::core {

WindowedOutlierDetector::WindowedOutlierDetector(
    const WindowedDetectorOptions& options)
    : options_(options),
      matrix_(cs::SharedMatrix(options.m, options.n, options.seed)),
      compressor_(std::make_unique<cs::Compressor>(matrix_.get())) {}

Result<std::unique_ptr<WindowedOutlierDetector>>
WindowedOutlierDetector::Create(const WindowedDetectorOptions& options) {
  if (options.n == 0) {
    return Status::InvalidArgument("WindowedDetectorOptions.n must be > 0");
  }
  if (options.m == 0) {
    return Status::InvalidArgument("WindowedDetectorOptions.m must be > 0");
  }
  if (options.window_epochs == 0) {
    return Status::InvalidArgument(
        "WindowedDetectorOptions.window_epochs must be > 0");
  }
  return std::unique_ptr<WindowedOutlierDetector>(
      new WindowedOutlierDetector(options));
}

uint64_t WindowedOutlierDetector::AdvanceEpoch() {
  if (started_) {
    ++current_epoch_;
  } else {
    started_ = true;
  }
  epoch_sketches_.emplace_back(options_.m, 0.0);
  while (epoch_sketches_.size() > options_.window_epochs) {
    epoch_sketches_.pop_front();  // O(1) expiry: drop the oldest sketch.
  }
  return current_epoch_;
}

Status WindowedOutlierDetector::RestoreEpochs(
    uint64_t current_epoch, std::vector<std::vector<double>> sketches) {
  if (sketches.empty()) {
    return Status::InvalidArgument(
        "RestoreEpochs: need at least the in-progress epoch sketch");
  }
  if (sketches.size() > options_.window_epochs) {
    return Status::InvalidArgument(
        "RestoreEpochs: " + std::to_string(sketches.size()) +
        " sketches exceed the ring depth " +
        std::to_string(options_.window_epochs));
  }
  if (sketches.size() > current_epoch + 1) {
    return Status::InvalidArgument(
        "RestoreEpochs: " + std::to_string(sketches.size()) +
        " retained epochs cannot end at epoch " +
        std::to_string(current_epoch));
  }
  for (const std::vector<double>& sketch : sketches) {
    if (sketch.size() != options_.m) {
      return Status::InvalidArgument(
          "RestoreEpochs: sketch size " + std::to_string(sketch.size()) +
          " != M " + std::to_string(options_.m));
    }
  }
  epoch_sketches_.assign(std::make_move_iterator(sketches.begin()),
                         std::make_move_iterator(sketches.end()));
  current_epoch_ = current_epoch;
  started_ = true;
  return Status::OK();
}

Status WindowedOutlierDetector::Ingest(const cs::SparseSlice& slice) {
  if (!started_) {
    return Status::FailedPrecondition(
        "Ingest: call AdvanceEpoch() before ingesting data");
  }
  CSOD_ASSIGN_OR_RETURN(std::vector<double> dy, compressor_->Compress(slice));
  la::Axpy(1.0, dy, &epoch_sketches_.back());
  return Status::OK();
}

Status WindowedOutlierDetector::IngestMeasurement(
    const std::vector<double>& y_l) {
  if (!started_) {
    return Status::FailedPrecondition(
        "IngestMeasurement: call AdvanceEpoch() before ingesting data");
  }
  if (y_l.size() != options_.m) {
    return Status::InvalidArgument(
        "IngestMeasurement: measurement size " + std::to_string(y_l.size()) +
        " != M " + std::to_string(options_.m));
  }
  la::Axpy(1.0, y_l, &epoch_sketches_.back());
  return Status::OK();
}

Result<std::vector<double>> WindowedOutlierDetector::WindowMeasurement()
    const {
  if (epoch_sketches_.empty()) {
    return Status::FailedPrecondition("no epochs ingested yet");
  }
  std::vector<double> y(options_.m, 0.0);
  for (const auto& sketch : epoch_sketches_) la::Axpy(1.0, sketch, &y);
  return y;
}

Result<std::vector<double>> WindowedOutlierDetector::ClosedWindowMeasurement()
    const {
  if (epoch_sketches_.size() < 2) {
    return Status::FailedPrecondition(
        "ClosedWindowMeasurement: no closed epoch retained yet");
  }
  std::vector<double> y(options_.m, 0.0);
  for (size_t e = 0; e + 1 < epoch_sketches_.size(); ++e) {
    la::Axpy(1.0, epoch_sketches_[e], &y);
  }
  return y;
}

Result<outlier::OutlierSet> WindowedOutlierDetector::Detect(size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("Detect: k must be > 0");
  }
  CSOD_ASSIGN_OR_RETURN(cs::BompResult recovery,
                        Recover(cs::IterationBudget(options_.iterations, k)));
  return outlier::KOutliersFromRecovery(recovery, k);
}

Result<cs::BompResult> WindowedOutlierDetector::Recover(
    size_t iterations) const {
  CSOD_ASSIGN_OR_RETURN(std::vector<double> y, WindowMeasurement());
  cs::SolverOptions solver_options;
  solver_options.solver = options_.solver;
  solver_options.iterations = iterations;
  return cs::RecoverBiased(*matrix_, y, solver_options);
}

}  // namespace csod::core
