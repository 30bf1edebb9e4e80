#ifndef CSOD_CS_MEASUREMENT_MATRIX_H_
#define CSOD_CS_MEASUREMENT_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/simd.h"
#include "common/status.h"

namespace csod::cs {

/// One pick of the fused correlate kernels (OMP statement 4): an unmasked
/// column and its correlation with r. CorrelateArgmax returns the one with
/// the largest |<column, r>|, ties broken toward the lowest index;
/// CorrelateTop returns the first few in that order.
struct CorrelateArgmaxResult {
  /// Sentinel index meaning "every column was masked out".
  static constexpr size_t kNoIndex = ~size_t{0};

  /// Winning column index (an *atom* index when returned through the
  /// Dictionary interface), or kNoIndex.
  size_t index = kNoIndex;
  /// Signed correlation <column_index, r>.
  double correlation = 0.0;
  /// |correlation|; -1 when index == kNoIndex so any real column wins.
  double abs_correlation = -1.0;
};

/// Folds `candidate` into `top`, a list ordered by |correlation| descending
/// that keeps at most `count` entries: the candidate goes after every entry
/// of equal or larger |correlation|, so offering candidates in ascending
/// index order breaks ties toward the lowest index, and a NaN never enters.
/// The one selection rule of the fused correlate kernels
/// (MeasurementMatrix::CorrelateTop, Dictionary::CorrelateTop).
void FoldTop(const CorrelateArgmaxResult& candidate, size_t count,
             std::vector<CorrelateArgmaxResult>* top);

/// \brief Non-owning view of one node's sparse slice, for the batched
/// sketching kernel (MultiplySparseBatch). The pointed-to arrays must stay
/// alive for the duration of the call.
struct SparseVectorView {
  const size_t* indices = nullptr;
  const double* values = nullptr;
  size_t nnz = 0;
};

/// Version of Φ0's entry definition (see MeasurementMatrix). Persisted
/// state that is only meaningful against one Φ0 records it: the streaming
/// checkpoint frame and the kSnapshot frame each end with it as a `u32`,
/// read back through serve::ReadPhi0Format.
/// Format 1 held double entries `g / √M` with the libm Box–Muller and
/// column seeds `HashCombine(seed, j)`; format 2 rounded them to float;
/// format 3 draws g from the libm-free box_muller::Pair and seeds column j
/// with Phi0ColumnSeed; format 4 rounded the float on to binary16; format 5
/// stores g as an int8 number of sixteenths, clamp(roundeven(16·g), ±127).
/// Restoring state of another format fails with a Status.
inline constexpr uint32_t kPhi0Format = 5;

/// Column `col`'s CounterGaussian seed: HashCombine(SplitMix64(seed), col).
/// Hashing the seed first keeps the columns of nearby seeds apart;
/// `HashCombine(seed, col)` alone mixes a small seed so weakly that seed
/// s + 1's column j repeated seed s's column j + 63 or j + 64.
inline uint64_t Phi0ColumnSeed(uint64_t seed, uint64_t col) {
  return HashCombine(SplitMix64(seed), col);
}

/// \brief The paper's random Gaussian measurement matrix
/// `Φ0 (M x N, entries i.i.d. N(0, 1/M))`, generated deterministically
/// from a seed.
///
/// Key property (Section 3.1, "by a consensus, each node randomly generates
/// the same M x N measurement matrix"): entry (i, j) is a pure function of
/// `(seed, j, i)`, so every node in a distributed system derives the
/// identical matrix from the shared seed without any matrix transmission,
/// and individual columns can be regenerated in any order — which is what
/// OMP's column-selection loop needs.
///
/// Entry (i, j) is `(q / 16) · (1/√M)` with the int8
/// `q = clamp(roundeven(16·g), −127, 127)` (simd::QuantizeEntry) and
/// `g = CounterGaussian(Phi0ColumnSeed(seed, j)).At(i)`: a standard normal
/// rounded to a multiple of 1/16, then scaled. g involves only IEEE-exact
/// operations (common/random.h) and the rounding is exact arithmetic, so
/// every host computes the same bits. An i.i.d. rounded Gaussian is still
/// sub-Gaussian, which is what the RIP argument needs. The matrix stores (or
/// regenerates) the integers q, 1 byte per entry, and every kernel applies
/// 1/(16√M) once per call — it scales `r` before a correlate and the
/// M-vector after a multiply or column sum — so a kernel's result may differ
/// in the last bits from the same sum taken over Entry() values, never
/// between runs.
///
/// An optional dense column-major cache of those integers trades memory for
/// speed; when `M * N * kBytesPerEntry` exceeds the cache budget the matrix
/// stays implicit and columns are regenerated on the fly. Owners obtain Φ0
/// through SharedMatrix() so that one geometry is built once per process.
///
/// Determinism: every kernel below returns bit-identical results at any
/// parallelism limit, on either SIMD path, and cached or implicit (both feed
/// the same int8 column bits to the same simd:: calls). Per-index kernels
/// (cache fill, CorrelateAll) write disjoint slots; reductions (Multiply,
/// MultiplySparse, BiasColumn) use a fixed block geometry independent of the
/// thread count with partials combined in block order; CorrelateTop keeps
/// every column its screen cannot rule out, a set that does not depend on
/// the chunking, and merges chunk-local top lists in chunk order under one
/// total order (|correlation| descending, then lowest index), which composes
/// to the global top list under any chunking.
class MeasurementMatrix {
 public:
  /// Creates the M x N matrix for `seed`. A dense cache is materialized iff
  /// its M·N·kBytesPerEntry bytes fit `cache_budget_bytes` (inclusive; 0
  /// disables caching); a geometry whose byte count overflows size_t never
  /// fits.
  MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                    size_t cache_budget_bytes = kDefaultCacheBudgetBytes);

  size_t m() const { return m_; }
  size_t n() const { return n_; }
  uint64_t seed() const { return seed_; }
  bool cached() const { return !cache_.empty(); }

  /// Entry (row, col) — N(0, 1/M) distributed, up to the rounding.
  double Entry(size_t row, size_t col) const {
    const int8_t q =
        cache_.empty()
            ? simd::QuantizeEntry(
                  CounterGaussian(Phi0ColumnSeed(seed_, col)).At(row))
            : cache_[col * m_ + row];
    return q * scale_;
  }

  /// Writes column `col` (length M) into `out`; out[i] == Entry(i, col).
  void FillColumn(size_t col, double* out) const;

  /// Returns column `col` as a vector.
  std::vector<double> Column(size_t col) const;

  /// y = Φ0 * x for a dense x of size N.
  Result<std::vector<double>> Multiply(const std::vector<double>& x) const;

  /// y = Φ0 * x for x given in sparse coordinate form; cost O(nnz * M).
  /// This is the local-compression fast path: local slices have few
  /// non-zero keys.
  Result<std::vector<double>> MultiplySparse(
      const std::vector<size_t>& indices,
      const std::vector<double>& values) const;

  /// \brief Batched sketching: y_l = Φ0 x_l for many slices in one pass.
  ///
  /// Writes, when the out-pointers are non-null (each may independently be
  /// null):
  ///  - `per_slice_out` (resized to `slices.size() * M`): slice l's
  ///    measurement at [l*M, (l+1)*M), bit-identical to
  ///    MultiplySparse(slice l);
  ///  - `sum_out` (resized to M): Σ_l Φ0 x_l folded in slice order,
  ///    bit-identical to per-slice MultiplySparse followed by
  ///    Compressor::AggregateMeasurements. An empty batch yields zeros.
  ///
  /// Each slice keeps MultiplySparse's fixed per-slice block geometry and
  /// entry order; all blocks across all slices run in parallel, and the
  /// block partials are folded serially in (slice, block) order — so the
  /// result is bit-identical at any parallelism limit AND to the serial
  /// per-node path, which is what lets the fault-free protocol fast path
  /// coexist with the bit-compared per-node fault path.
  ///
  /// When the matrix is implicit, columns are generated into a tiered
  /// scratch: consecutive blocks are grouped into waves whose entry count
  /// fits `scratch_budget_bytes` worth of columns, and each distinct column
  /// is generated once per wave (once per batch when the batch fits)
  /// instead of once per referencing entry. Regeneration is pure, so
  /// sharing never changes the accumulated bits.
  Status MultiplySparseBatch(
      const std::vector<SparseVectorView>& slices,
      std::vector<double>* sum_out, std::vector<double>* per_slice_out = nullptr,
      size_t scratch_budget_bytes = kDefaultBatchScratchBytes) const;

  /// c = Φ0^T * r (size N): the exhaustive correlation kernel that
  /// CorrelateTop's screened answer is checked against.
  Result<std::vector<double>> CorrelateAll(const std::vector<double>& r) const;

  /// Fused correlate+top-`count` (OMP statement 4, generalized to select
  /// several atoms per pass): the `count` columns of largest |<φ_j, r>| over
  /// all j with `skip == nullptr || !(*skip)[j + skip_offset]`, ordered by
  /// |correlation| descending with ties toward the lowest j, each with the
  /// correlation CorrelateAll would give for j. Fewer entries when fewer
  /// columns are unmasked (a NaN correlation never enters). Never
  /// materializes the N-vector of correlations. An exact integer screen
  /// rules out
  /// every column that provably cannot be among them, and the exact kernel
  /// confirms the rest (DESIGN.md §8), so the result is bit-identical to an
  /// exhaustive sort of CorrelateAll, at any thread count and on either SIMD
  /// path. `skip_offset` lets ExtendedDictionary pass its atom-indexed mask
  /// (atom j+1 == column j) without copying it.
  Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, size_t count,
      const std::vector<bool>* skip = nullptr, size_t skip_offset = 0) const;

  /// CorrelateTop with count 1: the lowest-index argmax of |<φ_j, r>|, or
  /// index == kNoIndex when every column is masked.
  Result<CorrelateArgmaxResult> CorrelateArgmax(
      const std::vector<double>& r, const std::vector<bool>* skip = nullptr,
      size_t skip_offset = 0) const;

  /// Sum of all columns scaled by 1/sqrt(N): the BOMP bias column
  /// `φ0 = (1/√N) Σ_i φ_i` (Equation 3). Recomputes on every call; prefer
  /// CachedBiasColumn() on hot paths.
  std::vector<double> BiasColumn() const;

  /// BiasColumn() computed once on first use and memoized (thread-safe).
  /// Bit-identical to a fresh BiasColumn() call: both run the same fixed
  /// block reduction. Saves an O(M·N) pass per ExtendedDictionary
  /// construction / known-mode recovery.
  const std::vector<double>& CachedBiasColumn() const;

  /// Bytes one stored entry takes, in the dense cache and in the implicit
  /// batch kernel's column scratch.
  static constexpr size_t kBytesPerEntry = sizeof(int8_t);
  static constexpr size_t kDefaultCacheBudgetBytes = size_t{512} << 20;
  /// Default per-wave column scratch for the implicit batched kernel.
  static constexpr size_t kDefaultBatchScratchBytes = size_t{128} << 20;

 private:
  // Writes column `col`'s unscaled entries q (M int8).
  void GenerateColumn(size_t col, int8_t* out) const {
    CounterGaussian(Phi0ColumnSeed(seed_, col))
        .Fill(m_, RowKeys().data(), out);
  }

  // CounterGaussian::Keys(M): the rows' seed-independent words, shared by
  // every column. Built on first use (thread-safe), so a matrix that never
  // generates a column never holds them.
  const std::vector<uint64_t>& RowKeys() const;

  // Scratch for `slots` implicit columns that are live at once; empty when
  // cached, since cached columns are read in place.
  std::vector<int8_t> ColumnScratch(size_t slots) const {
    return std::vector<int8_t>(cache_.empty() ? slots * m_ : 0);
  }

  // Column `col`'s stored entries: a pointer into the cache, or, when
  // implicit, the column generated into slot `slot` of `scratch` (from
  // ColumnScratch(slots) with slot < slots).
  const int8_t* UnscaledColumn(size_t col, std::vector<int8_t>* scratch,
                               size_t slot) const {
    if (!cache_.empty()) return cache_.data() + col * m_;
    int8_t* out = scratch->data() + slot * m_;
    GenerateColumn(col, out);
    return out;
  }

  // r · scale_, the form a correlate dots the unscaled columns against.
  std::vector<double> ScaledResidual(const std::vector<double>& r) const;

  size_t m_;
  size_t n_;
  uint64_t seed_;
  // 1/(16√M): an unscaled entry q times scale_ is Entry's (q/16)·(1/√M)
  // exactly, since the two differ only by the exact factor 2^-4.
  double scale_;
  // Column-major unscaled entries (cache_[col * m_ + row]), or empty when
  // implicit.
  std::vector<int8_t> cache_;
  // Lazily memoized bias column (CachedBiasColumn).
  mutable std::once_flag bias_once_;
  mutable std::vector<double> bias_column_;
  // Lazily built RowKeys().
  mutable std::once_flag row_keys_once_;
  mutable std::vector<uint64_t> row_keys_;
};

/// \brief The process-wide Φ0 registry: the matrix `MeasurementMatrix(m, n,
/// seed, cache_budget_bytes)` would build, shared by every owner of that
/// geometry.
///
/// Entries are keyed on (m, n, seed, cached), where `cached` is the
/// constructor's own budget decision, so a dense and an implicit matrix are
/// never confused. Live owners of one key share one matrix (the registry
/// holds a weak reference per key). One strong slot also retains the most
/// recently requested dense matrix, so an owner created per call (a fresh
/// CsOutlierProtocol per Run) reuses it after the previous owner is gone.
/// On a miss the slot is released before the new dense matrix is built, so
/// the registry never adds to the Φ0 bytes held at a build. Implicit
/// matrices hold no entries; they are shared but not retained, and never
/// evict the slot. Builds are serialized: concurrent requests for one
/// missing key build it once.
///
/// Entries are pure functions of (seed, col, row), so a shared matrix is
/// bit-identical to a freshly constructed one. Thread-safe.
std::shared_ptr<const MeasurementMatrix> SharedMatrix(
    size_t m, size_t n, uint64_t seed,
    size_t cache_budget_bytes = MeasurementMatrix::kDefaultCacheBudgetBytes);

}  // namespace csod::cs

#endif  // CSOD_CS_MEASUREMENT_MATRIX_H_
