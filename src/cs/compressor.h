#ifndef CSOD_CS_COMPRESSOR_H_
#define CSOD_CS_COMPRESSOR_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/measurement_matrix.h"
#include "obs/telemetry.h"

namespace csod::cs {

/// \brief A local data slice in sparse coordinate form: the non-zero
/// aggregated values a node holds, keyed by global-dictionary index.
///
/// Local slices are typically sparse even when the global aggregate is not
/// (a node only sees a subset of keys), so compression iterates non-zeros.
struct SparseSlice {
  std::vector<size_t> indices;
  std::vector<double> values;

  size_t nnz() const { return indices.size(); }

  /// Non-owning view over this slice's storage (for batched compression).
  SparseVectorView View() const {
    return SparseVectorView{indices.data(), values.data(), indices.size()};
  }

  /// Materializes the dense N-vector (zeros elsewhere; duplicate indices
  /// accumulate). Returns OutOfRange if any index is >= n — a slice carrying
  /// keys outside the dictionary is a bug upstream, not data to drop.
  Result<std::vector<double>> ToDense(size_t n) const;

  /// Builds a sparse slice from a dense vector, dropping zeros.
  static SparseSlice FromDense(const std::vector<double>& x);
};

/// \brief Local compression (Section 3.1): `y_l = Φ0 x_l`.
///
/// The measurement is what a node transmits instead of its slice; its size
/// M is the per-node communication cost. Linearity guarantees
/// `Σ_l Compress(x_l) = Compress(Σ_l x_l)`, which is why per-node sketches
/// aggregate exactly (Equation 1).
class Compressor {
 public:
  /// Uses (and must not outlive) `matrix`.
  explicit Compressor(const MeasurementMatrix* matrix) : matrix_(matrix) {}

  /// Compresses a dense slice of size N.
  Result<std::vector<double>> Compress(const std::vector<double>& slice) const {
    return matrix_->Multiply(slice);
  }

  /// Compresses a sparse slice; cost O(nnz * M).
  Result<std::vector<double>> Compress(const SparseSlice& slice) const {
    return matrix_->MultiplySparse(slice.indices, slice.values);
  }

  /// \brief Fused compress-and-accumulate over a whole cluster's slices:
  /// writes `y = Σ_l Φ0 x_l` (length M) into `*y_out` without materializing
  /// any per-node `y_l`.
  ///
  /// Bit-identical to Compress(slice) per node followed by
  /// AggregateMeasurements, at any parallelism limit and SIMD level — the
  /// guarantee that lets the CS protocols fold only the delivered slices
  /// and still equal the sum of the measurements that arrived. An empty
  /// batch yields y = 0, matching a cluster of empty slices.
  Status CompressAccumulate(const std::vector<const SparseSlice*>& slices,
                            std::vector<double>* y_out) const;

  /// Convenience overload for an owned slice vector.
  Status CompressAccumulate(const std::vector<SparseSlice>& slices,
                            std::vector<double>* y_out) const;

  /// Compresses every slice in one batched pass: element l is bit-identical
  /// to Compress(slices[l]). Cheaper than L separate calls when the matrix
  /// is implicit (columns shared across slices are generated once per batch,
  /// not once per node) and parallelizes across nodes, not just within one.
  Result<std::vector<std::vector<double>>> CompressEach(
      const std::vector<const SparseSlice*>& slices) const;

  /// Aggregates local measurements into the global measurement
  /// `y = Σ_l y_l` (Equation 1). All measurements must have length M.
  static Result<std::vector<double>> AggregateMeasurements(
      const std::vector<std::vector<double>>& measurements);

  /// Measurement length M.
  size_t measurement_size() const { return matrix_->m(); }

  /// Telemetry sink for batch sketching ("sketch.batch" span and
  /// "sketch.slices"/"sketch.nnz" counters). Null or disabled is free.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  void RecordBatch(const std::vector<SparseVectorView>& views) const;

  const MeasurementMatrix* matrix_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace csod::cs

#endif  // CSOD_CS_COMPRESSOR_H_
