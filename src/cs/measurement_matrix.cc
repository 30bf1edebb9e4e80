#include "cs/measurement_matrix.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"

namespace csod::cs {

namespace {
// Minimum per-thread column count before ParallelFor spawns workers — the
// kernels below cost >= M flops per column, so tiny jobs stay serial.
constexpr size_t kMinColumnsPerChunk = 256;

// Column *generation* (Box-Muller: log/sqrt/sincos per pair) is an order of
// magnitude heavier than an M-flop pass, so the implicit batch kernel
// parallelizes generation at a much finer grain.
constexpr size_t kMinColumnsPerGeneration = 32;

// Fixed block geometry for the reduction kernels (Multiply, MultiplySparse,
// MultiplySparseBatch, BiasColumn). Each block accumulates a private partial
// vector; partials are combined serially in block order. The block size must
// NOT depend on the parallelism limit: that keeps the floating-point
// summation tree — and so the result — bit-identical at any thread count.
constexpr size_t kReductionBlockColumns = 2048;
constexpr size_t kReductionBlockNnz = 512;

// Streams (column pointer, coefficient) pairs into `acc` eight at a time
// via the fused simd::Axpy8, falling back to Axpy4/Axpy for the remainder.
// Every fused form is bit-identical to one simd::Axpy per entry in push
// order (common/simd.h), so batch boundaries never affect the result — only
// the number of passes over acc and the number of concurrent load streams.
class AxpyBatcher {
 public:
  AxpyBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  void Push(const double* col, double x) {
    cols_[filled_] = col;
    xs_[filled_] = x;
    if (++filled_ == 8) Flush();
  }

  void Flush() {
    size_t k = 0;
    if (filled_ == 8) {
      simd::Axpy8(acc_, cols_, xs_, m_);
      k = 8;
    } else if (filled_ >= 4) {
      simd::Axpy4(acc_, cols_[0], xs_[0], cols_[1], xs_[1], cols_[2], xs_[2],
                  cols_[3], xs_[3], m_);
      k = 4;
    }
    for (; k < filled_; ++k) simd::Axpy(acc_, cols_[k], xs_[k], m_);
    filled_ = 0;
  }

 private:
  double* acc_;
  size_t m_;
  const double* cols_[8];
  double xs_[8];
  size_t filled_ = 0;
};

// Same idea for unscaled column sums (BiasColumn).
class AddBatcher {
 public:
  AddBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  void Push(const double* col) {
    cols_[filled_] = col;
    if (++filled_ == 4) Flush();
  }

  void Flush() {
    if (filled_ == 4) {
      simd::Add4(acc_, cols_[0], cols_[1], cols_[2], cols_[3], m_);
    } else {
      for (size_t k = 0; k < filled_; ++k) simd::Add(acc_, cols_[k], m_);
    }
    filled_ = 0;
  }

 private:
  double* acc_;
  size_t m_;
  const double* cols_[4];
  size_t filled_ = 0;
};

// Folds a candidate (index, value) into the running chunk-local argmax.
// Strict > with ascending candidate order == lowest index wins on ties.
inline void FoldArgmax(size_t index, double value,
                       CorrelateArgmaxResult* best) {
  const double abs_value = std::fabs(value);
  if (abs_value > best->abs_correlation) {
    best->index = index;
    best->correlation = value;
    best->abs_correlation = abs_value;
  }
}

// True iff the dense cache of an m x n matrix fits `budget` bytes. Divides
// the budget rather than multiplying m·n·8, which wraps for huge geometries
// (a wrapped 0 would pass a `bytes <= budget` test).
bool FitsCacheBudget(size_t m, size_t n, size_t budget) {
  if (budget == 0) return false;
  return m == 0 || n <= budget / sizeof(double) / m;
}

}  // namespace

MeasurementMatrix::MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                                     size_t cache_budget_bytes)
    : m_(m), n_(n), seed_(seed), inv_sqrt_m_(1.0 / std::sqrt(double(m))) {
  if (FitsCacheBudget(m_, n_, cache_budget_bytes)) {
    cache_.resize(m_ * n_);
    // Column-parallel and deterministic: each column's entries are a pure
    // function of (seed, col, row), written to a disjoint cache range.
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      for (size_t col = begin; col < end; ++col) {
        CounterGaussian gen(HashCombine(seed_, col));
        double* dst = cache_.data() + col * m_;
        gen.Fill(m_, dst);
        simd::Scale(dst, inv_sqrt_m_, m_);
      }
    });
  }
}

void MeasurementMatrix::FillColumn(size_t col, double* out) const {
  if (!cache_.empty()) {
    const double* src = cache_.data() + col * m_;
    std::copy(src, src + m_, out);
    return;
  }
  CounterGaussian gen(HashCombine(seed_, col));
  gen.Fill(m_, out);
  simd::Scale(out, inv_sqrt_m_, m_);
}

std::vector<double> MeasurementMatrix::Column(size_t col) const {
  std::vector<double> out(m_);
  FillColumn(col, out.data());
  return out;
}

Result<std::vector<double>> MeasurementMatrix::Multiply(
    const std::vector<double>& x) const {
  if (x.size() != n_) {
    return Status::InvalidArgument("Multiply: x size " +
                                   std::to_string(x.size()) + " != N " +
                                   std::to_string(n_));
  }
  std::vector<double> y(m_, 0.0);
  // Accumulates columns [col_begin, col_end) into acc (size M). The scratch
  // column is only needed when the matrix is implicit.
  auto accumulate = [&](size_t col_begin, size_t col_end, double* acc) {
    if (!cache_.empty()) {
      AxpyBatcher batch(acc, m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        const double xj = x[j];
        if (xj == 0.0) continue;
        batch.Push(cache_.data() + j * m_, xj);
      }
      batch.Flush();
    } else {
      std::vector<double> col(m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        const double xj = x[j];
        if (xj == 0.0) continue;
        FillColumn(j, col.data());
        simd::Axpy(acc, col.data(), xj, m_);
      }
    }
  };

  const size_t num_blocks =
      (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
  if (num_blocks <= 1) {
    accumulate(0, n_, y.data());
    return y;
  }
  // Fixed-geometry blocked reduction: block b accumulates its private
  // partial; partials are folded in block order below, independent of which
  // thread computed them.
  std::vector<double> partials(num_blocks * m_, 0.0);
  ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const size_t col_begin = b * kReductionBlockColumns;
      const size_t col_end = std::min(n_, col_begin + kReductionBlockColumns);
      accumulate(col_begin, col_end, partials.data() + b * m_);
    }
  });
  for (size_t b = 0; b < num_blocks; ++b) {
    simd::Add(y.data(), partials.data() + b * m_, m_);
  }
  return y;
}

Result<std::vector<double>> MeasurementMatrix::MultiplySparse(
    const std::vector<size_t>& indices,
    const std::vector<double>& values) const {
  if (indices.size() != values.size()) {
    return Status::InvalidArgument(
        "MultiplySparse: indices/values size mismatch");
  }
  for (size_t j : indices) {
    if (j >= n_) {
      return Status::OutOfRange("MultiplySparse: index " + std::to_string(j) +
                                " out of N " + std::to_string(n_));
    }
  }
  const size_t nnz = indices.size();
  std::vector<double> y(m_, 0.0);
  auto accumulate = [&](size_t k_begin, size_t k_end, double* acc) {
    if (!cache_.empty()) {
      AxpyBatcher batch(acc, m_);
      for (size_t k = k_begin; k < k_end; ++k) {
        const double xj = values[k];
        if (xj == 0.0) continue;
        batch.Push(cache_.data() + indices[k] * m_, xj);
      }
      batch.Flush();
    } else {
      std::vector<double> col(m_);
      for (size_t k = k_begin; k < k_end; ++k) {
        const double xj = values[k];
        if (xj == 0.0) continue;
        FillColumn(indices[k], col.data());
        simd::Axpy(acc, col.data(), xj, m_);
      }
    }
  };

  const size_t num_blocks = (nnz + kReductionBlockNnz - 1) / kReductionBlockNnz;
  if (num_blocks <= 1) {
    accumulate(0, nnz, y.data());
    return y;
  }
  std::vector<double> partials(num_blocks * m_, 0.0);
  ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const size_t k_begin = b * kReductionBlockNnz;
      const size_t k_end = std::min(nnz, k_begin + kReductionBlockNnz);
      accumulate(k_begin, k_end, partials.data() + b * m_);
    }
  });
  for (size_t b = 0; b < num_blocks; ++b) {
    simd::Add(y.data(), partials.data() + b * m_, m_);
  }
  return y;
}

Status MeasurementMatrix::MultiplySparseBatch(
    const std::vector<SparseVectorView>& slices, std::vector<double>* sum_out,
    std::vector<double>* per_slice_out, size_t scratch_budget_bytes) const {
  // Validate up front so the parallel phase below cannot fail.
  for (const SparseVectorView& s : slices) {
    for (size_t k = 0; k < s.nnz; ++k) {
      if (s.indices[k] >= n_) {
        return Status::OutOfRange(
            "MultiplySparseBatch: index " + std::to_string(s.indices[k]) +
            " out of N " + std::to_string(n_));
      }
    }
  }

  // Per-slice fixed block geometry, identical to MultiplySparse: slice l's
  // entries are cut at multiples of kReductionBlockNnz in original order.
  struct Block {
    size_t slice;
    size_t k_begin;
    size_t k_end;
  };
  std::vector<Block> blocks;
  for (size_t l = 0; l < slices.size(); ++l) {
    for (size_t k = 0; k < slices[l].nnz; k += kReductionBlockNnz) {
      blocks.push_back(
          Block{l, k, std::min(slices[l].nnz, k + kReductionBlockNnz)});
    }
  }

  if (per_slice_out != nullptr) per_slice_out->assign(slices.size() * m_, 0.0);
  if (sum_out != nullptr) sum_out->assign(m_, 0.0);
  if (blocks.empty()) return Status::OK();  // Every slice empty: y = 0.

  // Processing schedule: block-ordinal-major (block 0 of every slice, then
  // block 1 of every slice, ...). Blocks accumulate into disjoint partials,
  // so processing order cannot change bits — only the serial folds below fix
  // the floating-point order. Ordinal-major scheduling is a locality win:
  // slices are typically index-sorted (SparseSlice::FromDense, the cluster
  // simulator), so block k of different slices covers a similar column
  // range, and columns shared across nodes (hot keys) stay cache-resident
  // across the whole batch instead of being re-fetched per node.
  std::vector<size_t> schedule(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) schedule[b] = b;
  std::stable_sort(schedule.begin(), schedule.end(), [&](size_t a, size_t b) {
    return blocks[a].k_begin < blocks[b].k_begin;
  });

  // Block b's entries accumulate into partials[b*M, (b+1)*M) exactly as
  // MultiplySparse would (same order, same 4-wide fusion); `column` resolves
  // an entry to its column storage.
  std::vector<double> partials(blocks.size() * m_, 0.0);
  auto run_block = [&](size_t b, auto&& column) {
    const Block& blk = blocks[b];
    const SparseVectorView& s = slices[blk.slice];
    AxpyBatcher batch(partials.data() + b * m_, m_);
    for (size_t k = blk.k_begin; k < blk.k_end; ++k) {
      const double xj = s.values[k];
      if (xj == 0.0) continue;
      batch.Push(column(s.indices[k]), xj);
    }
    batch.Flush();
  };

  if (!cache_.empty()) {
    // Cross-slice parallel over all blocks at once, in schedule order.
    ParallelFor(schedule.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        run_block(schedule[i],
                  [&](size_t j) { return cache_.data() + j * m_; });
      }
    });
  } else {
    // Implicit matrix: tiered column scratch. Schedule-consecutive blocks
    // are grouped into waves small enough that one generated column per
    // entry fits the scratch budget (distinct columns only are actually
    // generated); within a wave every distinct column is generated exactly
    // once, no matter how many slices reference it. The ordinal-major
    // schedule makes a wave span block k of many slices, so columns shared
    // across nodes land in the same wave and are generated once per batch.
    // Wave composition depends only on the data and the budget — never on
    // thread scheduling — and generation is pure, so the accumulated bits
    // match the generate-per-entry path exactly.
    const size_t max_wave_entries = std::max(
        kReductionBlockNnz, scratch_budget_bytes / (m_ * sizeof(double)));
    std::vector<size_t> wave_cols;
    std::vector<double> scratch;
    size_t wave_begin = 0;
    while (wave_begin < schedule.size()) {
      size_t wave_end = wave_begin;
      size_t entries = 0;
      while (wave_end < schedule.size()) {
        const Block& blk = blocks[schedule[wave_end]];
        const size_t blk_entries = blk.k_end - blk.k_begin;
        if (wave_end > wave_begin && entries + blk_entries > max_wave_entries) {
          break;
        }
        entries += blk_entries;
        ++wave_end;
      }

      wave_cols.clear();
      for (size_t i = wave_begin; i < wave_end; ++i) {
        const Block& blk = blocks[schedule[i]];
        const SparseVectorView& s = slices[blk.slice];
        wave_cols.insert(wave_cols.end(), s.indices + blk.k_begin,
                         s.indices + blk.k_end);
      }
      std::sort(wave_cols.begin(), wave_cols.end());
      wave_cols.erase(std::unique(wave_cols.begin(), wave_cols.end()),
                      wave_cols.end());

      scratch.resize(wave_cols.size() * m_);
      ParallelFor(wave_cols.size(), kMinColumnsPerGeneration,
                  [&](size_t begin, size_t end) {
                    for (size_t c = begin; c < end; ++c) {
                      FillColumn(wave_cols[c], scratch.data() + c * m_);
                    }
                  });

      ParallelFor(wave_end - wave_begin, 1, [&](size_t begin, size_t end) {
        for (size_t rel = begin; rel < end; ++rel) {
          run_block(schedule[wave_begin + rel], [&](size_t j) {
            const size_t slot = static_cast<size_t>(
                std::lower_bound(wave_cols.begin(), wave_cols.end(), j) -
                wave_cols.begin());
            return scratch.data() + slot * m_;
          });
        }
      });
      wave_begin = wave_end;
    }
  }

  // Serial folds in fixed (slice, block) order — scheduling-independent and
  // bit-identical to MultiplySparse's per-slice partial fold followed by
  // AggregateMeasurements' slice-order sum.
  if (per_slice_out != nullptr) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      simd::Add(per_slice_out->data() + blocks[b].slice * m_,
                partials.data() + b * m_, m_);
    }
    if (sum_out != nullptr) {
      for (size_t l = 0; l < slices.size(); ++l) {
        simd::Add(sum_out->data(), per_slice_out->data() + l * m_, m_);
      }
    }
    return Status::OK();
  }
  if (sum_out != nullptr) {
    std::vector<double> slice_acc;
    size_t b = 0;
    for (size_t l = 0; l < slices.size(); ++l) {
      const size_t b_begin = b;
      while (b < blocks.size() && blocks[b].slice == l) ++b;
      if (b == b_begin) continue;  // Empty slice: y_l = 0, a bit-exact no-op.
      if (b - b_begin == 1) {
        simd::Add(sum_out->data(), partials.data() + b_begin * m_, m_);
      } else {
        slice_acc.assign(m_, 0.0);
        for (size_t bb = b_begin; bb < b; ++bb) {
          simd::Add(slice_acc.data(), partials.data() + bb * m_, m_);
        }
        simd::Add(sum_out->data(), slice_acc.data(), m_);
      }
    }
  }
  return Status::OK();
}

Status MeasurementMatrix::CorrelateAllInto(const std::vector<double>& r,
                                           double* out) const {
  if (r.size() != m_) {
    return Status::InvalidArgument("CorrelateAllInto: r size " +
                                   std::to_string(r.size()) + " != M " +
                                   std::to_string(m_));
  }
  const double* rp = r.data();
  if (!cache_.empty()) {
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      size_t j = begin;
      for (; j + 4 <= end; j += 4) {
        const double* base = cache_.data() + j * m_;
        simd::Dot4(base, base + m_, base + 2 * m_, base + 3 * m_, rp, m_,
                   out + j);
      }
      for (; j < end; ++j) {
        out[j] = simd::Dot(cache_.data() + j * m_, rp, m_);
      }
    });
  } else {
    // Pre-scaled generation (FillColumn) so the dot sees the same column
    // bits as the cached path — cached and implicit correlations are
    // bit-identical, not merely close.
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      std::vector<double> col(m_);
      for (size_t j = begin; j < end; ++j) {
        FillColumn(j, col.data());
        out[j] = simd::Dot(col.data(), rp, m_);
      }
    });
  }
  return Status::OK();
}

Result<std::vector<double>> MeasurementMatrix::CorrelateAll(
    const std::vector<double>& r) const {
  std::vector<double> c(n_, 0.0);
  CSOD_RETURN_NOT_OK(CorrelateAllInto(r, c.data()));
  return c;
}

Result<CorrelateArgmaxResult> MeasurementMatrix::CorrelateArgmax(
    const std::vector<double>& r, const std::vector<bool>* skip,
    size_t skip_offset) const {
  if (r.size() != m_) {
    return Status::InvalidArgument("CorrelateArgmax: r size " +
                                   std::to_string(r.size()) + " != M " +
                                   std::to_string(m_));
  }
  if (skip != nullptr && skip->size() < n_ + skip_offset) {
    return Status::InvalidArgument("CorrelateArgmax: skip mask size " +
                                   std::to_string(skip->size()) +
                                   " < N + offset " +
                                   std::to_string(n_ + skip_offset));
  }
  const double* rp = r.data();
  // Chunk-local argmax over [begin, end); candidates are visited in
  // ascending index order so ties resolve to the lowest index.
  auto local_argmax = [&](size_t begin, size_t end) {
    CorrelateArgmaxResult best;
    if (!cache_.empty()) {
      // Batch unmasked columns four at a time; batch order is ascending, so
      // folding the four dots in order preserves the tie-break.
      size_t batch[4];
      size_t filled = 0;
      double dots[4];
      auto flush = [&] {
        if (filled == 4) {
          simd::Dot4(cache_.data() + batch[0] * m_,
                     cache_.data() + batch[1] * m_,
                     cache_.data() + batch[2] * m_,
                     cache_.data() + batch[3] * m_, rp, m_, dots);
          for (size_t k = 0; k < 4; ++k) FoldArgmax(batch[k], dots[k], &best);
        } else {
          for (size_t k = 0; k < filled; ++k) {
            FoldArgmax(batch[k],
                       simd::Dot(cache_.data() + batch[k] * m_, rp, m_), &best);
          }
        }
        filled = 0;
      };
      for (size_t j = begin; j < end; ++j) {
        if (skip != nullptr && (*skip)[j + skip_offset]) continue;
        batch[filled++] = j;
        if (filled == 4) flush();
      }
      flush();
    } else {
      std::vector<double> col(m_);
      for (size_t j = begin; j < end; ++j) {
        if (skip != nullptr && (*skip)[j + skip_offset]) continue;
        FillColumn(j, col.data());
        FoldArgmax(j, simd::Dot(col.data(), rp, m_), &best);
      }
    }
    return best;
  };

  const size_t chunk_count = ParallelChunkCount(n_, kMinColumnsPerChunk);
  if (chunk_count <= 1) return local_argmax(0, n_);

  std::vector<CorrelateArgmaxResult> locals(chunk_count);
  ParallelForChunks(n_, chunk_count,
                    [&](size_t chunk, size_t begin, size_t end) {
                      locals[chunk] = local_argmax(begin, end);
                    });
  // Fixed-order reduction over chunk-local winners. Chunks cover ascending
  // index ranges and FoldArgmax keeps strict >, so the lowest index still
  // wins global ties regardless of how many chunks the limit produced.
  CorrelateArgmaxResult best;
  for (const CorrelateArgmaxResult& local : locals) {
    if (local.index == CorrelateArgmaxResult::kNoIndex) continue;
    if (local.abs_correlation > best.abs_correlation) best = local;
  }
  return best;
}

std::vector<double> MeasurementMatrix::BiasColumn() const {
  std::vector<double> phi0(m_, 0.0);
  auto accumulate = [&](size_t col_begin, size_t col_end, double* acc) {
    if (!cache_.empty()) {
      AddBatcher batch(acc, m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        batch.Push(cache_.data() + j * m_);
      }
      batch.Flush();
    } else {
      std::vector<double> col(m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        FillColumn(j, col.data());
        simd::Add(acc, col.data(), m_);
      }
    }
  };

  const size_t num_blocks =
      (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
  if (num_blocks <= 1) {
    accumulate(0, n_, phi0.data());
  } else {
    std::vector<double> partials(num_blocks * m_, 0.0);
    ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        const size_t col_begin = b * kReductionBlockColumns;
        const size_t col_end =
            std::min(n_, col_begin + kReductionBlockColumns);
        accumulate(col_begin, col_end, partials.data() + b * m_);
      }
    });
    for (size_t b = 0; b < num_blocks; ++b) {
      simd::Add(phi0.data(), partials.data() + b * m_, m_);
    }
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(n_));
  simd::Scale(phi0.data(), scale, m_);
  return phi0;
}

const std::vector<double>& MeasurementMatrix::CachedBiasColumn() const {
  std::call_once(bias_once_, [this] { bias_column_ = BiasColumn(); });
  return bias_column_;
}

namespace {

using MatrixPtr = std::shared_ptr<const MeasurementMatrix>;

// SharedMatrix's key: the geometry plus the constructor's cache decision.
struct MatrixKey {
  size_t m;
  size_t n;
  uint64_t seed;
  bool cached;
  auto operator<=>(const MatrixKey&) const = default;
};

class MatrixRegistry {
 public:
  // Builds run under the lock, so concurrent requests for one missing key
  // wait for the first build and then hit it, and no two builds overlap.
  MatrixPtr Get(size_t m, size_t n, uint64_t seed, size_t budget) {
    const MatrixKey key{m, n, seed, FitsCacheBudget(m, n, budget)};
    std::lock_guard<std::mutex> lock(mu_);
    MatrixPtr matrix;
    if (auto it = live_.find(key); it != live_.end()) {
      matrix = it->second.lock();
    }
    if (matrix == nullptr) {
      // Release the slot first, so its matrix (if no owner holds it) is
      // freed before the new one is allocated.
      if (key.cached) retained_.reset();
      std::erase_if(live_, [](const auto& entry) {
        return entry.second.expired();
      });
      matrix = std::make_shared<const MeasurementMatrix>(m, n, seed, budget);
      live_[key] = matrix;
    }
    if (key.cached) retained_ = matrix;
    return matrix;
  }

 private:
  std::mutex mu_;
  std::map<MatrixKey, std::weak_ptr<const MeasurementMatrix>> live_;
  // The most recently requested dense matrix.
  MatrixPtr retained_;
};

}  // namespace

MatrixPtr SharedMatrix(size_t m, size_t n, uint64_t seed,
                       size_t cache_budget_bytes) {
  static MatrixRegistry registry;
  return registry.Get(m, n, seed, cache_budget_bytes);
}

}  // namespace csod::cs
