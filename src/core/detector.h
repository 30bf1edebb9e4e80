#ifndef CSOD_CORE_DETECTOR_H_
#define CSOD_CORE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "outlier/outlier.h"

namespace csod::core {

/// Configuration of a DistributedOutlierDetector.
struct DetectorOptions {
  /// Global key-space size N (the global key dictionary length).
  size_t n = 0;
  /// Measurement size M — the per-node communication budget. The theory
  /// (Theorem 1) asks for M = O(s^a log N) for s-sparse-like data.
  size_t m = 0;
  /// Consensus seed from which every node derives the same Φ0.
  uint64_t seed = 1;
  /// BOMP iteration budget R; 0 selects the paper's f(k) ∈ [2k, 5k] at
  /// detection time.
  size_t iterations = 0;
  /// Telemetry sink (sketch + recovery instrumentation). Null or disabled
  /// is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Identifier of a registered data source (node / data center).
using SourceId = uint64_t;

/// \brief The library's main entry point: maintains compressed sketches of
/// many distributed data slices and answers k-outlier / mode / top-k
/// queries on their *aggregate*.
///
/// Because the CS measurement is linear (Equation 1), the detector
/// supports exactly the three production requirements of Section 1:
///  1. global answers from per-node sketches (local ≠ global outliers),
///  2. incremental data arrival (`ApplyDelta` adds `Φ0·Δx` to a sketch),
///  3. node addition/removal (`AddSource` / `RemoveSource` add or subtract
///     the node's sketch from the global measurement).
///
/// All operations are O(M) or O(nnz·M); nothing ever touches the full
/// key space except recovery itself.
class DistributedOutlierDetector {
 public:
  /// Validates options and takes Φ0 from the process-wide registry
  /// (cs::SharedMatrix).
  static Result<std::unique_ptr<DistributedOutlierDetector>> Create(
      const DetectorOptions& options);

  /// Registers a data source holding `slice`; returns its id.
  /// Communication-equivalent cost: M measurement tuples.
  Result<SourceId> AddSource(const cs::SparseSlice& slice);

  /// Registers a data source from an already-compressed local measurement
  /// `y_l` (what a remote node actually transmits).
  Result<SourceId> AddSourceMeasurement(std::vector<double> y_l);

  /// Removes a source: the global measurement becomes the sum of the
  /// remaining sketches, folded in SourceId order, so a removed NaN or
  /// infinite sketch leaves nothing behind.
  Status RemoveSource(SourceId id);

  /// Applies new data arriving at a source: `y_l += Φ0 · Δx`.
  Status ApplyDelta(SourceId id, const cs::SparseSlice& delta);

  /// Detects the k-outliers and mode of the current global aggregate.
  Result<outlier::OutlierSet> Detect(size_t k) const;

  /// Degraded-mode detection: answers from the partial sum
  /// `Σ_{l ∉ excluded} y_l`, i.e. as if the excluded sources were
  /// unreachable. Sound by CS linearity — the partial sum is exactly
  /// Φ0 times the partial aggregate (docs/FAULT_MODEL.md). Every id in
  /// `excluded` must be registered; sources stay registered afterwards.
  Result<outlier::OutlierSet> DetectExcluding(
      const std::vector<SourceId>& excluded, size_t k) const;

  /// Top-k by recovered value (the Section 6.2 extension; meaningful when
  /// the data's mode is 0).
  Result<std::vector<outlier::Outlier>> DetectTopK(size_t k) const;

  /// Full recovery (mode, all recovered entries, diagnostics).
  Result<cs::BompResult> Recover(size_t iterations) const;

  /// The current global measurement y = Σ_l y_l.
  const std::vector<double>& global_measurement() const { return global_y_; }

  size_t num_sources() const { return sketches_.size(); }
  const DetectorOptions& options() const { return options_; }
  const cs::MeasurementMatrix& matrix() const { return *matrix_; }

 private:
  explicit DistributedOutlierDetector(const DetectorOptions& options);

  // Σ y_l over the sources not in `excluded`, folded in SourceId order.
  std::vector<double> SumSketches(const std::set<SourceId>& excluded) const;

  DetectorOptions options_;
  std::shared_ptr<const cs::MeasurementMatrix> matrix_;
  std::unique_ptr<cs::Compressor> compressor_;
  SourceId next_id_ = 0;
  std::map<SourceId, std::vector<double>> sketches_;
  std::vector<double> global_y_;
};

}  // namespace csod::core

#endif  // CSOD_CORE_DETECTOR_H_
