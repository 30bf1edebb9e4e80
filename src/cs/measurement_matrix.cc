#include "cs/measurement_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
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

// The hardware prefetcher follows an ascending stream only within a 4 KB
// page. MultiplySparseBatch leaves to it a column that starts less than
// this many bytes past the end of the previous entry's column.
constexpr size_t kPrefetchPageBytes = 4096;
constexpr size_t kCacheLineBytes = 64;

// MultiplySparseBatch's cached path prefetches the column of the entry this
// many entries ahead of the one it pushes.
constexpr size_t kSketchPrefetchEntries = 8;

// CorrelateTop's screen scores this many columns per simd::ScreenColumns
// call; an implicit block is generated into a scratch of this many columns.
constexpr size_t kScreenBlockColumns = 64;

// Requests every cache line of a cached column that is column_bytes long.
// Always inlined: a function whose only effect is a prefetch counts as
// side-effect free to GCC, which may then delete its calls.
[[gnu::always_inline]] inline void PrefetchColumn(const int8_t* col,
                                                  size_t column_bytes) {
  const char* p = reinterpret_cast<const char*>(col);
  for (size_t b = 0; b < column_bytes; b += kCacheLineBytes) {
    __builtin_prefetch(p + b);
  }
}

// Streams (column pointer, coefficient) pairs into `acc` eight at a time
// via the fused simd::Axpy8, falling back to Axpy4/Axpy for the remainder.
// Every fused form is bit-identical to one simd::Axpy per entry in push
// order (common/simd.h), so batch boundaries never affect the result — only
// the number of passes over acc and the number of concurrent load streams.
// pending() is the number of pushed columns not yet flushed: the slot an
// implicit column pushed next may occupy without clobbering a pending one.
class AxpyBatcher {
 public:
  static constexpr size_t kWidth = 8;

  AxpyBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  size_t pending() const { return filled_; }

  void Push(const int8_t* col, double x) {
    cols_[filled_] = col;
    xs_[filled_] = x;
    if (++filled_ == kWidth) Flush();
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
  const int8_t* cols_[kWidth];
  double xs_[kWidth];
  size_t filled_ = 0;
};

// Same idea for unscaled column sums (BiasColumn).
class AddBatcher {
 public:
  static constexpr size_t kWidth = 4;

  AddBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  size_t pending() const { return filled_; }

  void Push(const int8_t* col) {
    cols_[filled_] = col;
    if (++filled_ == kWidth) Flush();
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
  const int8_t* cols_[kWidth];
  size_t filled_ = 0;
};

// The fixed-geometry blocked reduction behind Multiply, MultiplySparse and
// BiasColumn: accumulate(b, acc) adds block b into the M-vector acc. Each
// block accumulates into a private partial and the partials are folded into
// the result in block order, independent of which thread computed them; a
// single block accumulates straight into the result.
template <typename Accumulate>
std::vector<double> BlockedSum(size_t m, size_t num_blocks,
                               const Accumulate& accumulate) {
  std::vector<double> y(m, 0.0);
  if (num_blocks <= 1) {
    if (num_blocks == 1) accumulate(0, y.data());
    return y;
  }
  std::vector<double> partials(num_blocks * m, 0.0);
  ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) accumulate(b, partials.data() + b * m);
  });
  for (size_t b = 0; b < num_blocks; ++b) {
    simd::Add(y.data(), partials.data() + b * m, m);
  }
  return y;
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// The integer screen of a scaled residual s (docs/THEORY.md §9): ρ, the
// int16 rounding of s at the power-of-two step t, and 2ε in units of t.
struct IntegerScreen {
  std::vector<int16_t> rho;
  double two_eps = kInfinity;
};

// t = 2^e is the smallest power of two with max|s_i| ≤ t·L for the overflow
// rule's L = simd::ScreenResidualLimit(M), so ρ_i = roundeven(s_i / t) has
// |ρ_i| ≤ L and the screen dot D_j = Σ_i q_ij ρ_i is exact in int32 on
// every path. For every column j, |D_j − K_j / t| ≤ ε between D_j and the
// exact K_j = simd::Dot(q_j, s), with, in units of t,
//   ε = 2·B·(‖s/t − ρ‖₁ + γ(d)·‖s/t‖₁) + η,   γ(d) = d·u / (1 − d·u),
// B = 127 bounds every |q_ij|; u = 2^-53 and d = ⌈M/8⌉ + 4 cover the
// double dot's longest rounding chain (the product, ⌈M/8⌉ lane additions,
// the 3-level fold); and η = M·2^-174 covers its underflow, at most
// M·2^-1075 in units of s and so of any t ≥ 2^-900, as well as s_i/t's,
// which is otherwise exact. Each s_i/t − ρ_i is exact (Sterbenz). The
// leading 2 is a margin over the proven bound; it absorbs the rounding of
// the two sums, of ε itself and of the candidate rule's subtraction.
// ρ = 0 and ε = ∞, which keeps every
// column, when s is zero or holds a NaN or an infinity, when t would leave
// [2^-900, 2^900], or when M is past the rule's reach (L = 0).
IntegerScreen ScreenResidual(const std::vector<double>& s) {
  const size_t m = s.size();
  IntegerScreen screen{std::vector<int16_t>(m, 0)};
  const int32_t limit = simd::ScreenResidualLimit(m);
  double largest = 0.0;
  for (const double v : s) {
    if (!std::isfinite(v)) return screen;
    largest = std::max(largest, std::fabs(v));
  }
  if (limit == 0 || largest == 0.0) return screen;
  int e;
  std::frexp(largest, &e);
  // largest / 2^(e - 16) ≥ 2^15 > L; each step halves it, exactly.
  e -= 16;
  while (std::ldexp(largest, -e) > limit) ++e;
  if (e < -900 || e > 900) return screen;
  const double inv_t = std::ldexp(1.0, -e);
  double error = 0.0;
  double mass = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double x = s[i] * inv_t;
    // 1.5·2^52 rounds |x| ≤ 2^51 to an integer, ties to even.
    const double rounded = (x + 0x1.8p52) - 0x1.8p52;
    screen.rho[i] = static_cast<int16_t>(rounded);
    error += std::fabs(x - rounded);
    mass += std::fabs(x);
  }
  const double d = static_cast<double>((m + 7) / 8 + 4);
  const double gamma = d * 0x1p-53 / (1.0 - d * 0x1p-53);
  const double b = simd::kMaxAbsInt8Entry;
  const double eps = 2.0 * b * (error + gamma * mass) +
                     static_cast<double>(m) * 0x1p-174;
  screen.two_eps = 2.0 * eps;
  return screen;
}

// True iff the dense cache of an m x n matrix fits `budget` bytes. Divides
// the budget rather than multiplying m·n·kBytesPerEntry, which wraps for
// huge geometries (a wrapped 0 would pass a `bytes <= budget` test).
bool FitsCacheBudget(size_t m, size_t n, size_t budget) {
  if (budget == 0) return false;
  return m == 0 ||
         n <= budget / MeasurementMatrix::kBytesPerEntry / m;
}

}  // namespace

void FoldTop(const CorrelateArgmaxResult& candidate, size_t count,
             std::vector<CorrelateArgmaxResult>* top) {
  // Written as !(a >= 0) so that a NaN is dropped too.
  if (!(candidate.abs_correlation >= 0.0)) return;
  const auto at = std::find_if(
      top->begin(), top->end(), [&](const CorrelateArgmaxResult& entry) {
        return candidate.abs_correlation > entry.abs_correlation;
      });
  if (static_cast<size_t>(at - top->begin()) >= count) return;
  top->insert(at, candidate);
  if (top->size() > count) top->pop_back();
}

MeasurementMatrix::MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                                     size_t cache_budget_bytes)
    : m_(m),
      n_(n),
      seed_(seed),
      scale_(1.0 / std::sqrt(double(m)) / simd::kInt8StepsPerUnit) {
  if (FitsCacheBudget(m_, n_, cache_budget_bytes)) {
    cache_.resize(m_ * n_);
    // Column-parallel and deterministic: each column's entries are a pure
    // function of (seed, col, row), written to a disjoint cache range.
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      for (size_t col = begin; col < end; ++col) {
        GenerateColumn(col, cache_.data() + col * m_);
      }
    });
  }
}

void MeasurementMatrix::FillColumn(size_t col, double* out) const {
  std::vector<int8_t> scratch = ColumnScratch(1);
  // -0.0 is the identity of IEEE addition (-0 + x == x for every x, ±0
  // included), so this Axpy writes exactly q · scale_, Entry's value.
  std::fill(out, out + m_, -0.0);
  simd::Axpy(out, UnscaledColumn(col, &scratch, 0), scale_, m_);
}

std::vector<double> MeasurementMatrix::Column(size_t col) const {
  std::vector<double> out(m_);
  FillColumn(col, out.data());
  return out;
}

std::vector<double> MeasurementMatrix::ScaledResidual(
    const std::vector<double>& r) const {
  std::vector<double> scaled = r;
  simd::Scale(scaled.data(), scale_, m_);
  return scaled;
}

Result<std::vector<double>> MeasurementMatrix::Multiply(
    const std::vector<double>& x) const {
  if (x.size() != n_) {
    return Status::InvalidArgument("Multiply: x size " +
                                   std::to_string(x.size()) + " != N " +
                                   std::to_string(n_));
  }
  const size_t num_blocks =
      (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
  std::vector<double> y =
      BlockedSum(m_, num_blocks, [&](size_t b, double* acc) {
        const size_t col_begin = b * kReductionBlockColumns;
        const size_t col_end = std::min(n_, col_begin + kReductionBlockColumns);
        std::vector<int8_t> scratch = ColumnScratch(AxpyBatcher::kWidth);
        AxpyBatcher batch(acc, m_);
        for (size_t j = col_begin; j < col_end; ++j) {
          const double xj = x[j];
          if (xj == 0.0) continue;
          batch.Push(UnscaledColumn(j, &scratch, batch.pending()), xj);
        }
        batch.Flush();
      });
  simd::Scale(y.data(), scale_, m_);
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
  const size_t num_blocks = (nnz + kReductionBlockNnz - 1) / kReductionBlockNnz;
  std::vector<double> y =
      BlockedSum(m_, num_blocks, [&](size_t b, double* acc) {
        const size_t k_begin = b * kReductionBlockNnz;
        const size_t k_end = std::min(nnz, k_begin + kReductionBlockNnz);
        std::vector<int8_t> scratch = ColumnScratch(AxpyBatcher::kWidth);
        AxpyBatcher batch(acc, m_);
        for (size_t k = k_begin; k < k_end; ++k) {
          const double xj = values[k];
          if (xj == 0.0) continue;
          batch.Push(UnscaledColumn(indices[k], &scratch, batch.pending()),
                     xj);
        }
        batch.Flush();
      });
  simd::Scale(y.data(), scale_, m_);
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
  // MultiplySparse would (same order, same fusion); `column` resolves an
  // entry to its stored column.
  //
  // With `prefetch` (cached columns only), each entry first requests the
  // column kSketchPrefetchEntries entries ahead, and a block's first entry
  // also requests the ones before that: scattered keys make every entry a
  // random column fetch, and the pass would otherwise wait on memory
  // latency. A column that starts within kPrefetchPageBytes after the
  // previous entry's column is left to the hardware prefetcher, which
  // streams sorted slices, and a zero delta's column is never read.
  // Prefetching adds nothing to the sum, so the pushes and their bits are
  // unchanged.
  std::vector<double> partials(blocks.size() * m_, 0.0);
  const size_t column_bytes = m_ * kBytesPerEntry;
  auto run_block = [&](size_t b, bool prefetch, auto&& column) {
    const Block& blk = blocks[b];
    const SparseVectorView& s = slices[blk.slice];
    AxpyBatcher batch(partials.data() + b * m_, m_);
    for (size_t k = blk.k_begin; k < blk.k_end; ++k) {
      if (prefetch) {
        const size_t from =
            k == blk.k_begin ? k : k + kSketchPrefetchEntries;
        const size_t to = std::min(blk.k_end, k + kSketchPrefetchEntries + 1);
        for (size_t a = from; a < to; ++a) {
          const size_t j = s.indices[a];
          const bool streamed =
              a > blk.k_begin && j > s.indices[a - 1] &&
              (j - s.indices[a - 1] - 1) * column_bytes < kPrefetchPageBytes;
          if (s.values[a] != 0.0 && !streamed) {
            PrefetchColumn(cache_.data() + j * m_, column_bytes);
          }
        }
      }
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
        run_block(schedule[i], /*prefetch=*/true,
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
        kReductionBlockNnz, scratch_budget_bytes / (m_ * kBytesPerEntry));
    std::vector<size_t> wave_cols;
    std::vector<int8_t> scratch;
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
                      GenerateColumn(wave_cols[c], scratch.data() + c * m_);
                    }
                  });

      ParallelFor(wave_end - wave_begin, 1, [&](size_t begin, size_t end) {
        for (size_t rel = begin; rel < end; ++rel) {
          run_block(schedule[wave_begin + rel], /*prefetch=*/false,
                    [&](size_t j) {
                      const size_t slot = static_cast<size_t>(
                          std::lower_bound(wave_cols.begin(), wave_cols.end(),
                                           j) -
                          wave_cols.begin());
                      return scratch.data() + slot * m_;
                    });
        }
      });
      wave_begin = wave_end;
    }
  }

  // Serial folds in fixed (slice, block) order — scheduling-independent and
  // bit-identical to MultiplySparse's per-slice partial fold and scale
  // followed by AggregateMeasurements' slice-order sum.
  if (per_slice_out != nullptr) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      simd::Add(per_slice_out->data() + blocks[b].slice * m_,
                partials.data() + b * m_, m_);
    }
    simd::Scale(per_slice_out->data(), scale_, per_slice_out->size());
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
      double* y_l = partials.data() + b_begin * m_;
      if (b - b_begin > 1) {
        slice_acc.assign(m_, 0.0);
        for (size_t bb = b_begin; bb < b; ++bb) {
          simd::Add(slice_acc.data(), partials.data() + bb * m_, m_);
        }
        y_l = slice_acc.data();
      }
      simd::Scale(y_l, scale_, m_);
      simd::Add(sum_out->data(), y_l, m_);
    }
  }
  return Status::OK();
}

Result<std::vector<double>> MeasurementMatrix::CorrelateAll(
    const std::vector<double>& r) const {
  if (r.size() != m_) {
    return Status::InvalidArgument("CorrelateAll: r size " +
                                   std::to_string(r.size()) + " != M " +
                                   std::to_string(m_));
  }
  std::vector<double> c(n_, 0.0);
  double* out = c.data();
  const std::vector<double> scaled = ScaledResidual(r);
  const double* rp = scaled.data();
  ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
    std::vector<int8_t> scratch = ColumnScratch(4);
    size_t j = begin;
    for (; j + 4 <= end; j += 4) {
      simd::Dot4(UnscaledColumn(j, &scratch, 0),
                 UnscaledColumn(j + 1, &scratch, 1),
                 UnscaledColumn(j + 2, &scratch, 2),
                 UnscaledColumn(j + 3, &scratch, 3), rp, m_, out + j);
    }
    for (; j < end; ++j) {
      out[j] = simd::Dot(UnscaledColumn(j, &scratch, 0), rp, m_);
    }
  });
  return c;
}

Result<std::vector<CorrelateArgmaxResult>> MeasurementMatrix::CorrelateTop(
    const std::vector<double>& r, size_t count, const std::vector<bool>* skip,
    size_t skip_offset) const {
  if (r.size() != m_) {
    return Status::InvalidArgument("CorrelateTop: r size " +
                                   std::to_string(r.size()) + " != M " +
                                   std::to_string(m_));
  }
  if (skip != nullptr && skip->size() < n_ + skip_offset) {
    return Status::InvalidArgument("CorrelateTop: skip mask size " +
                                   std::to_string(skip->size()) +
                                   " < N + offset " +
                                   std::to_string(n_ + skip_offset));
  }
  std::vector<CorrelateArgmaxResult> top;
  if (count == 0) return top;
  // Two stages (DESIGN.md §8). The screen scores every column with the
  // exact integer dot a_j = Σ_i q_ij ρ_i (simd::ScreenColumns), in units of
  // t, and keeps each unmasked column whose |a_j| lies within 2ε of the
  // count-th largest unmasked |a|, T; ScreenResidual's ε bounds
  // |a_j − K_j / t| for the exact K_j = simd::Dot(q_j, s), so every column
  // it drops has |K_j| below that of `count` others and cannot be in the
  // top list (docs/THEORY.md §9).
  // The confirm stage runs the exact kernel on the kept columns only, in
  // ascending index order through FoldTop, so the result is the exhaustive
  // top list, bit for bit. When ε is infinite ρ is zero and every unmasked
  // column is kept.
  const std::vector<double> scaled = ScaledResidual(r);
  const double* rp = scaled.data();
  const IntegerScreen screen_r = ScreenResidual(scaled);
  const double two_eps = screen_r.two_eps;
  // A kept column: its index and |a_j|.
  struct Candidate {
    size_t index;
    double abs_screen;
  };
  struct ScreenedChunk {
    // The chunk's `count` largest |a|, descending.
    std::vector<double> top_screen;
    std::vector<Candidate> candidates;
  };
  // Columns are scored kScreenBlockColumns at a time by one
  // simd::ScreenColumns call, on a block read in place from the cache or
  // generated into a block scratch. A column then costs one compare with
  // `gate`, ⌈floor − 2ε⌉, the least |a| the kept set admits: only a column
  // at or above it reaches the skip mask, the running top list and the
  // candidate push, so a masked column is scored and dropped there. The
  // chunk's running count-th largest |a| only grows, so the kept set is a
  // superset of the final one: every column within 2ε of the global T.
  auto screen = [&](size_t begin, size_t end, ScreenedChunk* out) {
    std::vector<int8_t> scratch = ColumnScratch(kScreenBlockColumns);
    int32_t dots[kScreenBlockColumns];
    // The running count-th largest |a|; -∞ until `count` columns scored,
    // when gate 0 passes every column.
    double floor = -kInfinity;
    int64_t gate = 0;
    for (size_t block = begin; block < end; block += kScreenBlockColumns) {
      const size_t width = std::min(kScreenBlockColumns, end - block);
      const int8_t* cols = scratch.data();
      if (cache_.empty()) {
        for (size_t k = 0; k < width; ++k) {
          GenerateColumn(block + k, scratch.data() + k * m_);
        }
      } else {
        cols = cache_.data() + block * m_;
      }
      simd::ScreenColumns(cols, m_, width, screen_r.rho.data(), dots);
      for (size_t k = 0; k < width; ++k) {
        const int64_t abs_dot = std::abs(int64_t{dots[k]});
        if (abs_dot < gate) continue;
        const size_t j = block + k;
        if (skip != nullptr && (*skip)[j + skip_offset]) continue;
        const double abs_screen = static_cast<double>(abs_dot);
        std::vector<double>& top_screen = out->top_screen;
        if (top_screen.size() < count || abs_screen > floor) {
          top_screen.insert(std::upper_bound(top_screen.begin(),
                                             top_screen.end(), abs_screen,
                                             std::greater<double>()),
                            abs_screen);
          if (top_screen.size() > count) top_screen.pop_back();
          if (top_screen.size() == count) {
            floor = top_screen.back();
            // floor − 2ε ≤ floor < 2^31, so the ceiling converts exactly.
            const double least = std::ceil(floor - two_eps);
            gate = least > 0.0 ? static_cast<int64_t>(least) : 0;
          }
        }
        if (abs_screen >= floor - two_eps) {
          out->candidates.push_back(Candidate{j, abs_screen});
        }
      }
    }
  };

  const size_t chunk_count = ParallelChunkCount(n_, kMinColumnsPerChunk);
  std::vector<ScreenedChunk> screened(chunk_count);
  ParallelForChunks(n_, chunk_count,
                    [&](size_t chunk, size_t begin, size_t end) {
                      screen(begin, end, &screened[chunk]);
                    });
  // T is the count-th largest of the chunks' top lists together, which is
  // the global count-th largest |a|; -∞ keeps every candidate when fewer
  // than `count` columns are unmasked.
  std::vector<double> all_top;
  size_t kept = 0;
  for (const ScreenedChunk& chunk : screened) {
    all_top.insert(all_top.end(), chunk.top_screen.begin(),
                   chunk.top_screen.end());
    kept += chunk.candidates.size();
  }
  double keep_floor = -kInfinity;
  if (all_top.size() >= count) {
    std::nth_element(all_top.begin(), all_top.begin() + (count - 1),
                     all_top.end(), std::greater<double>());
    keep_floor = all_top[count - 1] - two_eps;
  }

  // Confirm: each chunk's local top list among its candidates, then the
  // merge in chunk order. Chunks cover ascending index ranges and FoldTop
  // places a candidate after its equals, so the lowest index wins global
  // ties however many chunks the limit produced. The exact dots run on the
  // pool only when the screen kept many columns (degenerate residuals).
  std::vector<std::vector<CorrelateArgmaxResult>> locals(chunk_count);
  auto confirm = [&](size_t chunk) {
    std::vector<int8_t> scratch = ColumnScratch(1);
    for (const Candidate& c : screened[chunk].candidates) {
      if (c.abs_screen < keep_floor) continue;
      const double value =
          simd::Dot(UnscaledColumn(c.index, &scratch, 0), rp, m_);
      FoldTop(CorrelateArgmaxResult{c.index, value, std::fabs(value)}, count,
              &locals[chunk]);
    }
  };
  if (kept > kMinColumnsPerChunk) {
    ParallelForEach(chunk_count, confirm);
  } else {
    for (size_t chunk = 0; chunk < chunk_count; ++chunk) confirm(chunk);
  }
  for (const std::vector<CorrelateArgmaxResult>& local : locals) {
    for (const CorrelateArgmaxResult& pick : local) FoldTop(pick, count, &top);
  }
  return top;
}

Result<CorrelateArgmaxResult> MeasurementMatrix::CorrelateArgmax(
    const std::vector<double>& r, const std::vector<bool>* skip,
    size_t skip_offset) const {
  CSOD_ASSIGN_OR_RETURN(std::vector<CorrelateArgmaxResult> top,
                        CorrelateTop(r, 1, skip, skip_offset));
  return top.empty() ? CorrelateArgmaxResult{} : top.front();
}

std::vector<double> MeasurementMatrix::BiasColumn() const {
  const size_t num_blocks =
      (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
  std::vector<double> phi0 =
      BlockedSum(m_, num_blocks, [&](size_t b, double* acc) {
        const size_t col_begin = b * kReductionBlockColumns;
        const size_t col_end = std::min(n_, col_begin + kReductionBlockColumns);
        std::vector<int8_t> scratch = ColumnScratch(AddBatcher::kWidth);
        AddBatcher batch(acc, m_);
        for (size_t j = col_begin; j < col_end; ++j) {
          batch.Push(UnscaledColumn(j, &scratch, batch.pending()));
        }
        batch.Flush();
      });
  // One scale for both factors: 1/(16√M) of the entries and 1/√N of
  // Equation 3.
  simd::Scale(phi0.data(),
              scale_ / std::sqrt(static_cast<double>(n_)), m_);
  return phi0;
}

const std::vector<uint64_t>& MeasurementMatrix::RowKeys() const {
  std::call_once(row_keys_once_,
                 [this] { row_keys_ = CounterGaussian::Keys(m_); });
  return row_keys_;
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
