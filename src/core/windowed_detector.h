#ifndef CSOD_CORE_WINDOWED_DETECTOR_H_
#define CSOD_CORE_WINDOWED_DETECTOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/detector.h"

namespace csod::core {

/// Configuration of a WindowedOutlierDetector.
struct WindowedDetectorOptions {
  /// Key space, measurement size, consensus seed — as DetectorOptions.
  size_t n = 0;
  size_t m = 0;
  uint64_t seed = 1;
  size_t iterations = 0;
  /// Number of most-recent epochs a query covers.
  size_t window_epochs = 0;
};

/// \brief Sliding-window outlier detection over epoched sketches.
///
/// The production scenario of Section 1 streams terabytes of new click
/// logs every 10 minutes and analysts ask about "the last hour", not all
/// of history. Because CS measurements are linear, a window query needs
/// only the per-epoch global measurements: the detector keeps one M-sized
/// sketch per epoch in a ring of `window_epochs`, and answering a query
/// sums the sketches in the window (O(W·M)) before a single recovery.
/// Expiring an epoch is O(1) — drop its sketch; nothing is recomputed.
class WindowedOutlierDetector {
 public:
  static Result<std::unique_ptr<WindowedOutlierDetector>> Create(
      const WindowedDetectorOptions& options);

  /// Begins a new epoch (e.g. a new 10-minute log window); the oldest
  /// epoch beyond the window is dropped. Returns the epoch index.
  uint64_t AdvanceEpoch();

  /// Adds data arriving in the *current* epoch from any node; slices
  /// accumulate (`y_epoch += Φ0 Δx`). Fails before the first
  /// AdvanceEpoch().
  Status Ingest(const cs::SparseSlice& slice);

  /// Ingests an already-compressed measurement into the current epoch.
  Status IngestMeasurement(const std::vector<double>& y_l);

  /// Detects the k-outliers of the aggregate over the current window.
  Result<outlier::OutlierSet> Detect(size_t k) const;

  /// Full recovery over the current window.
  Result<cs::BompResult> Recover(size_t iterations) const;

  /// Sum of every *closed* retained epoch sketch — all retained epochs
  /// except the newest (in-progress) one, folded oldest-first exactly like
  /// WindowMeasurement(). This is the streaming layer's snapshot primitive
  /// (src/serve): a published snapshot must never include the epoch still
  /// accepting data, or concurrent queries would observe half an epoch.
  /// Fails unless at least one closed epoch is retained (>= 2 retained).
  Result<std::vector<double>> ClosedWindowMeasurement() const;

  /// The consensus matrix Φ0 — for recovery against an externally held
  /// window measurement (e.g. a published streaming snapshot).
  const cs::MeasurementMatrix& matrix() const { return *matrix_; }

  /// The retained epoch ring, oldest-first (back = in-progress epoch).
  /// This *is* the detector's whole data state — measurements are linear,
  /// so checkpointing the ring checkpoints the window exactly.
  const std::deque<std::vector<double>>& EpochSketches() const {
    return epoch_sketches_;
  }

  /// Replaces the ring with `sketches` (oldest-first, each of length M,
  /// the last one being the in-progress epoch `current_epoch`) — the
  /// restore half of EpochSketches(). The detector behaves as if it had
  /// just advanced into `current_epoch` with exactly this ring: the next
  /// AdvanceEpoch moves to `current_epoch + 1`.
  Status RestoreEpochs(uint64_t current_epoch,
                       std::vector<std::vector<double>> sketches);

  /// Number of epochs currently retained (<= window_epochs).
  size_t epochs_retained() const { return epoch_sketches_.size(); }
  /// Index of the current epoch (0 before the first AdvanceEpoch()).
  uint64_t current_epoch() const { return current_epoch_; }
  const WindowedDetectorOptions& options() const { return options_; }

 private:
  explicit WindowedOutlierDetector(const WindowedDetectorOptions& options);

  Result<std::vector<double>> WindowMeasurement() const;

  WindowedDetectorOptions options_;
  std::shared_ptr<const cs::MeasurementMatrix> matrix_;
  std::unique_ptr<cs::Compressor> compressor_;
  uint64_t current_epoch_ = 0;
  bool started_ = false;
  // Front = oldest retained epoch, back = current epoch.
  std::deque<std::vector<double>> epoch_sketches_;
};

}  // namespace csod::core

#endif  // CSOD_CORE_WINDOWED_DETECTOR_H_
