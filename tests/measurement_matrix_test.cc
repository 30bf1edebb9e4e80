#include "cs/measurement_matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "cs/dictionary.h"
#include "cs/omp.h"
#include "la/vector_ops.h"

namespace csod::cs {
namespace {

// Restores the global parallelism limit a test overrode.
class ScopedParallelismLimit {
 public:
  explicit ScopedParallelismLimit(size_t limit)
      : previous_(GetParallelismLimit()) {
    SetParallelismLimit(limit);
  }
  ~ScopedParallelismLimit() { SetParallelismLimit(previous_); }

 private:
  size_t previous_;
};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::SetLevelForTesting(level)) {}
  ~ScopedSimdLevel() { simd::SetLevelForTesting(previous_); }

 private:
  simd::Level previous_;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(MeasurementMatrixTest, ConsensusProperty) {
  // Two "nodes" building the matrix from the same seed get identical
  // entries — the Section 3.1 consensus without transmission.
  MeasurementMatrix node_a(16, 64, /*seed=*/77);
  MeasurementMatrix node_b(16, 64, /*seed=*/77);
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < 64; ++j) {
      EXPECT_EQ(node_a.Entry(i, j), node_b.Entry(i, j));
    }
  }
}

TEST(MeasurementMatrixTest, DifferentSeedsDiffer) {
  MeasurementMatrix a(8, 8, 1);
  MeasurementMatrix b(8, 8, 2);
  bool any_diff = false;
  for (size_t i = 0; i < 8 && !any_diff; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      if (a.Entry(i, j) != b.Entry(i, j)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MeasurementMatrixTest, CachedEqualsImplicit) {
  MeasurementMatrix cached(16, 32, 5,
                           /*cache_budget_bytes=*/1 << 20);
  MeasurementMatrix implicit(16, 32, 5, /*cache_budget_bytes=*/0);
  ASSERT_TRUE(cached.cached());
  ASSERT_FALSE(implicit.cached());
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < 32; ++j) {
      EXPECT_EQ(cached.Entry(i, j), implicit.Entry(i, j));
    }
  }
}

TEST(MeasurementMatrixTest, CacheBudgetRespected) {
  // One byte short of the 16 x 32 cache must stay implicit.
  const size_t bytes = 16 * 32 * MeasurementMatrix::kBytesPerEntry;
  MeasurementMatrix small_budget(16, 32, 5, bytes - 1);
  EXPECT_FALSE(small_budget.cached());
}

TEST(MeasurementMatrixTest, RowPrefixProperty) {
  // A taller matrix with the same seed extends a shorter one row-wise
  // (entry (i, j) depends only on (seed, j, i), never on M) — modulo the
  // 1/sqrt(M) scaling. This is what lets the adaptive protocol request
  // additional measurement rows without re-transmitting the old ones.
  MeasurementMatrix short_matrix(8, 24, 99);
  MeasurementMatrix tall_matrix(32, 24, 99);
  const double rescale = std::sqrt(8.0) / std::sqrt(32.0);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 24; ++j) {
      EXPECT_DOUBLE_EQ(short_matrix.Entry(i, j) * rescale,
                       tall_matrix.Entry(i, j))
          << i << "," << j;
    }
  }
}

TEST(MeasurementMatrixTest, EntryVariance) {
  // Entries are N(0, 1/M): empirical variance over many entries ~ 1/M.
  const size_t m = 64;
  MeasurementMatrix matrix(m, 512, 99);
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 512; ++j) {
      const double v = matrix.Entry(i, j);
      sum += v;
      sum_sq += v * v;
      ++count;
    }
  }
  const double mean = sum / count;
  const double var = sum_sq / count - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(var, 1.0 / m, 0.1 / m);
}

TEST(MeasurementMatrixTest, ColumnUnitNormInExpectation) {
  // E||column||^2 = M * 1/M = 1.
  MeasurementMatrix matrix(128, 64, 3);
  double total = 0.0;
  for (size_t j = 0; j < 64; ++j) {
    total += la::Norm2Squared(matrix.Column(j));
  }
  EXPECT_NEAR(total / 64.0, 1.0, 0.1);
}

TEST(MeasurementMatrixTest, MultiplyMatchesManual) {
  MeasurementMatrix matrix(8, 10, 42);
  std::vector<double> x(10);
  Rng rng(7);
  for (double& v : x) v = rng.NextGaussian();
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());
  for (size_t i = 0; i < 8; ++i) {
    double expected = 0.0;
    for (size_t j = 0; j < 10; ++j) expected += matrix.Entry(i, j) * x[j];
    EXPECT_NEAR(y.Value()[i], expected, 1e-12);
  }
}

TEST(MeasurementMatrixTest, MultiplySparseMatchesDense) {
  MeasurementMatrix matrix(12, 50, 11);
  std::vector<double> x(50, 0.0);
  x[3] = 2.5;
  x[17] = -1.0;
  x[49] = 7.0;
  auto dense = matrix.Multiply(x);
  auto sparse = matrix.MultiplySparse({3, 17, 49}, {2.5, -1.0, 7.0});
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  EXPECT_NEAR(la::DistanceL2(dense.Value(), sparse.Value()), 0.0, 1e-12);
}

TEST(MeasurementMatrixTest, MultiplyErrors) {
  MeasurementMatrix matrix(4, 6, 1);
  EXPECT_FALSE(matrix.Multiply({1, 2}).ok());
  EXPECT_FALSE(matrix.MultiplySparse({7}, {1.0}).ok());  // index out of N
  EXPECT_FALSE(matrix.MultiplySparse({1, 2}, {1.0}).ok());  // size mismatch
  EXPECT_FALSE(matrix.CorrelateAll({1, 2}).ok());
}

TEST(MeasurementMatrixTest, CorrelateAllMatchesColumnDots) {
  MeasurementMatrix matrix(10, 20, 13);
  std::vector<double> r(10);
  Rng rng(3);
  for (double& v : r) v = rng.NextGaussian();
  auto c = matrix.CorrelateAll(r);
  ASSERT_TRUE(c.ok());
  for (size_t j = 0; j < 20; ++j) {
    EXPECT_NEAR(c.Value()[j], la::Dot(matrix.Column(j), r), 1e-12);
  }
}

TEST(MeasurementMatrixTest, CorrelateImplicitMatchesCached) {
  MeasurementMatrix cached(10, 20, 13);
  MeasurementMatrix implicit(10, 20, 13, /*cache_budget_bytes=*/0);
  std::vector<double> r(10);
  Rng rng(3);
  for (double& v : r) v = rng.NextGaussian();
  auto a = cached.CorrelateAll(r);
  auto b = implicit.CorrelateAll(r);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(la::DistanceL2(a.Value(), b.Value()), 0.0, 1e-10);
}

// Reference implementation of the fused kernels: full correlate, then a
// stable sort of the ascending scan by |correlation| descending (lowest
// index first on ties), NaNs left out, cut to `count`.
std::vector<CorrelateArgmaxResult> ScanTop(const MeasurementMatrix& matrix,
                                           const std::vector<double>& r,
                                           const std::vector<bool>* skip,
                                           size_t skip_offset, size_t count) {
  auto c = matrix.CorrelateAll(r).MoveValue();
  std::vector<CorrelateArgmaxResult> out;
  for (size_t j = 0; j < c.size(); ++j) {
    if (skip != nullptr && (*skip)[j + skip_offset]) continue;
    if (std::isnan(c[j])) continue;
    out.push_back(CorrelateArgmaxResult{j, c[j], std::fabs(c[j])});
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.abs_correlation > b.abs_correlation;
  });
  if (out.size() > count) out.resize(count);
  return out;
}

CorrelateArgmaxResult ScanArgmax(const MeasurementMatrix& matrix,
                                 const std::vector<double>& r,
                                 const std::vector<bool>* skip,
                                 size_t skip_offset = 0) {
  const auto top = ScanTop(matrix, r, skip, skip_offset, 1);
  return top.empty() ? CorrelateArgmaxResult{} : top.front();
}

TEST(MeasurementMatrixTest, CorrelateArgmaxMatchesScan) {
  // n = 600 exercises the 4-wide register-blocked path plus remainder
  // columns; masks carve unaligned holes into the 4-column batches.
  for (const size_t budget : {size_t{1} << 24, size_t{0}}) {
    MeasurementMatrix matrix(24, 600, 17, budget);
    Rng rng(29);
    std::vector<double> r(24);
    for (double& v : r) v = rng.NextGaussian();

    std::vector<bool> mask(600, false);
    for (size_t round = 0; round < 8; ++round) {
      const auto expected = ScanArgmax(matrix, r, &mask);
      const auto got = matrix.CorrelateArgmax(r, &mask).MoveValue();
      EXPECT_EQ(got.index, expected.index) << "budget=" << budget;
      EXPECT_EQ(got.correlation, expected.correlation);  // Bitwise.
      EXPECT_EQ(got.abs_correlation, expected.abs_correlation);
      ASSERT_NE(got.index, CorrelateArgmaxResult::kNoIndex);
      mask[got.index] = true;  // Mimic OMP: knock out the winner, repeat.
    }

    // No mask at all.
    const auto no_mask = matrix.CorrelateArgmax(r).MoveValue();
    const auto no_mask_expected = ScanArgmax(matrix, r, nullptr);
    EXPECT_EQ(no_mask.index, no_mask_expected.index);
    EXPECT_EQ(no_mask.abs_correlation, no_mask_expected.abs_correlation);
  }
}

TEST(MeasurementMatrixTest, CorrelateArgmaxTieBreaksLowestIndex) {
  MeasurementMatrix matrix(8, 40, 3);
  // r = 0 makes every correlation exactly 0.0 — a 40-way tie. The lowest
  // unmasked index must win.
  const std::vector<double> zero(8, 0.0);
  auto pick = matrix.CorrelateArgmax(zero).MoveValue();
  EXPECT_EQ(pick.index, 0u);
  EXPECT_EQ(pick.abs_correlation, 0.0);

  std::vector<bool> mask(40, false);
  mask[0] = mask[1] = mask[2] = true;
  pick = matrix.CorrelateArgmax(zero, &mask).MoveValue();
  EXPECT_EQ(pick.index, 3u);
  EXPECT_EQ(pick.abs_correlation, 0.0);
}

// CorrelateArgmax (count 1) and CorrelateTop (count 2) against ScanTop,
// the exhaustive exact sort, bit for bit (index, correlation and
// |correlation|, NaN included) at limits {1, 2, 8} on both SIMD levels.
// ScanTop runs on `exhaustive` when given, else on `matrix` itself.
void ExpectTopIsExhaustive(const MeasurementMatrix& matrix,
                           const std::vector<double>& r,
                           const std::vector<bool>* skip, size_t skip_offset,
                           const std::string& label,
                           const MeasurementMatrix* exhaustive = nullptr) {
  for (const size_t count : {size_t{1}, size_t{2}}) {
    const std::vector<CorrelateArgmaxResult> want = ScanTop(
        exhaustive != nullptr ? *exhaustive : matrix, r, skip, skip_offset,
        count);
    for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
      for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2}) {
        ScopedParallelismLimit scoped_limit(limit);
        ScopedSimdLevel scoped_level(level);
        std::vector<CorrelateArgmaxResult> got;
        if (count == 1) {
          const auto argmax = matrix.CorrelateArgmax(r, skip, skip_offset);
          ASSERT_TRUE(argmax.ok()) << label;
          if (argmax.Value().index != CorrelateArgmaxResult::kNoIndex) {
            got.push_back(argmax.Value());
          }
        } else {
          auto top = matrix.CorrelateTop(r, count, skip, skip_offset);
          ASSERT_TRUE(top.ok()) << label;
          got = top.MoveValue();
        }
        const std::string where =
            label + (matrix.cached() ? " cached" : " implicit") +
            " count=" + std::to_string(count) +
            " limit=" + std::to_string(limit) + " level=" +
            simd::LevelName(simd::ActiveLevel());
        ASSERT_EQ(got.size(), want.size()) << where;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].index, want[i].index) << where << " rank " << i;
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i].correlation),
                    std::bit_cast<uint64_t>(want[i].correlation))
              << where << " rank " << i;
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i].abs_correlation),
                    std::bit_cast<uint64_t>(want[i].abs_correlation))
              << where << " rank " << i;
        }
      }
    }
  }
}

// The screen-then-confirm argmax is the exhaustive one on residuals that
// stress the screen's bound: Gaussian and heavy-tailed; r = e_i, whose row
// of quantized halves ties many columns exactly; r = 0 (every column
// ties); float-subnormal and double-subnormal scales (the underflow term);
// scales on either side of ‖s‖₁ = 2^120 and beyond float range (the
// screen steps aside); NaN and ±∞ entries; and crafted near ties between
// two columns that float arithmetic cannot order. Masks: none, random, all
// but one, all, and, for e_17, one that leaves an exact tie on top. M = 37
// leaves tails after the 8-lane trees, and N = 2600 gives limit 8 its
// eight chunks.
TEST(MeasurementMatrixTest, ScreenedArgmaxMatchesExhaustiveScan) {
  const size_t m = 37, n = 2600;
  Rng rng(71);
  auto gaussian = [&](double scale) {
    std::vector<double> r(m);
    for (double& v : r) v = scale * rng.NextGaussian();
    return r;
  };
  std::vector<std::pair<std::string, std::vector<double>>> residuals;
  residuals.emplace_back("gaussian", gaussian(1.0));
  std::vector<double> cauchy(m);
  for (double& v : cauchy) v = rng.NextGaussian() / rng.NextGaussian();
  residuals.emplace_back("cauchy", cauchy);
  for (const size_t i : {size_t{0}, size_t{17}, size_t{36}}) {
    std::vector<double> e(m, 0.0);
    e[i] = (i == 17) ? -3.0 : 1.0;
    residuals.emplace_back("e_" + std::to_string(i), e);
  }
  residuals.emplace_back("zero", std::vector<double>(m, 0.0));
  for (const double scale : {1e-41, 1e-310, 1e35, 1e36, 1e39, 1e300}) {
    std::ostringstream name;
    name << "scale " << scale;
    residuals.emplace_back(name.str(), gaussian(scale));
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> with_nan = gaussian(1.0);
  with_nan[5] = std::numeric_limits<double>::quiet_NaN();
  residuals.emplace_back("nan", with_nan);
  std::vector<double> with_inf = gaussian(1.0);
  with_inf[3] = inf;
  residuals.emplace_back("+inf", with_inf);
  with_inf[3] = -inf;
  residuals.emplace_back("-inf", with_inf);
  with_inf[30] = inf;
  residuals.emplace_back("+inf and -inf", with_inf);

  std::vector<std::pair<std::string, std::vector<bool>>> masks;
  std::vector<bool> random_mask(n);
  for (size_t j = 0; j < n; ++j) random_mask[j] = rng.NextU64() % 3 == 0;
  masks.emplace_back("random mask", random_mask);
  std::vector<bool> all_but_one(n, true);
  all_but_one[1234] = false;
  masks.emplace_back("all but one", all_but_one);
  masks.emplace_back("all masked", std::vector<bool>(n, true));

  // Near ties: r = c1 + b·c2 in the span of columns j1 < j2, with b set so
  // that <c1, r> = <c2, r> in exact arithmetic, then nudged by a relative
  // δ from 3e-7 (where the float screen misorders the pair) down to 0.
  // These two pairs lead every other column; a screen that kept only its
  // own maximum returns the wrong one of 700/701.
  const MeasurementMatrix reference(m, n, 19);
  for (const auto& [j1, j2] : {std::pair<size_t, size_t>{5, 1300},
                               std::pair<size_t, size_t>{700, 701}}) {
    const std::vector<double> c1 = reference.Column(j1);
    const std::vector<double> c2 = reference.Column(j2);
    const double b0 = (la::Dot(c1, c1) - la::Dot(c1, c2)) /
                      (la::Dot(c2, c2) - la::Dot(c1, c2));
    for (const double delta : {-3e-7, -1e-7, -3e-8, -1e-8, -1e-13, 0.0, 1e-13,
                               1e-8, 3e-8, 1e-7, 3e-7}) {
      std::vector<double> r = c1;
      for (size_t i = 0; i < m; ++i) r[i] += b0 * (1.0 + delta) * c2[i];
      const size_t winner = ScanArgmax(reference, r, nullptr).index;
      EXPECT_TRUE(winner == j1 || winner == j2) << winner;
      std::ostringstream name;
      name << "near tie " << j1 << "/" << j2 << " delta " << delta;
      residuals.emplace_back(name.str(), r);
    }
  }

  // Masks every column of e_17's residual above the largest |entry| of
  // row 17 that two columns share, so the unmasked maximum is that tie.
  std::map<double, size_t> row_counts;
  for (size_t j = 0; j < n; ++j) {
    ++row_counts[std::fabs(reference.Entry(17, j))];
  }
  double tied = 0.0;
  for (const auto& [value, count] : row_counts) {
    if (count >= 2) tied = value;
  }
  ASSERT_GT(tied, 0.0);
  std::vector<bool> tie_mask(n);
  for (size_t j = 0; j < n; ++j) {
    tie_mask[j] = std::fabs(reference.Entry(17, j)) > tied;
  }

  for (const size_t budget : {size_t{1} << 24, size_t{0}}) {
    const MeasurementMatrix matrix(m, n, 19, budget);
    ASSERT_EQ(residuals[3].first, "e_17");
    ExpectTopIsExhaustive(matrix, residuals[3].second, &tie_mask, 0,
                             "e_17, tie on top");
    for (const auto& [r_name, r] : residuals) {
      ExpectTopIsExhaustive(matrix, r, nullptr, 0, r_name + ", no mask");
      for (const auto& [mask_name, mask] : masks) {
        ExpectTopIsExhaustive(matrix, r, &mask, 0,
                                 r_name + ", " + mask_name);
      }
    }
    const auto none_left =
        matrix.CorrelateArgmax(residuals[0].second, &masks[2].second);
    EXPECT_EQ(none_left.Value().index, CorrelateArgmaxResult::kNoIndex);
  }

  // Near ties at ranks 2 and 3, where the top-2 screen's band decides:
  // r in the span of columns a, j1, j2 with exact correlations
  // (2, 1.37, 1.37·(1 + δ)), solved through their 3×3 Gram matrix by
  // Cramer's rule. M = 128 keeps every other column's correlation below
  // 0.96; the float screen misorders 700/701 for δ from 0 to 5e-8, so a
  // screen that kept only the columns at or above its running second
  // largest would return the wrong runner-up.
  const size_t m3 = 128;
  const MeasurementMatrix reference3(m3, n, 19);
  const size_t a = 1800, j1 = 700, j2 = 701;
  const std::vector<double> cols[3] = {reference3.Column(a),
                                       reference3.Column(j1),
                                       reference3.Column(j2)};
  double g[3][3];
  for (size_t p = 0; p < 3; ++p) {
    for (size_t q = 0; q < 3; ++q) g[p][q] = la::Dot(cols[p], cols[q]);
  }
  auto det3 = [](const double (&x)[3][3]) {
    return x[0][0] * (x[1][1] * x[2][2] - x[1][2] * x[2][1]) -
           x[0][1] * (x[1][0] * x[2][2] - x[1][2] * x[2][0]) +
           x[0][2] * (x[1][0] * x[2][1] - x[1][1] * x[2][0]);
  };
  std::vector<std::pair<std::string, std::vector<double>>> rank23_ties;
  for (const double delta : {-3e-7, -1e-7, -3e-8, -1e-8, 0.0, 1e-8, 3e-8,
                             5e-8, 1e-7, 3e-7}) {
    const double t[3] = {2.0, 1.37, 1.37 * (1.0 + delta)};
    std::vector<double> r(m3, 0.0);
    for (size_t p = 0; p < 3; ++p) {
      double gp[3][3];
      for (size_t row = 0; row < 3; ++row) {
        for (size_t q = 0; q < 3; ++q) gp[row][q] = (q == p) ? t[row] : g[row][q];
      }
      la::Axpy(det3(gp) / det3(g), cols[p], &r);
    }
    const auto leaders = ScanTop(reference3, r, nullptr, 0, 3);
    ASSERT_EQ(leaders.size(), 3u);
    EXPECT_EQ(leaders[0].index, a);
    EXPECT_EQ((std::set<size_t>{leaders[1].index, leaders[2].index}),
              (std::set<size_t>{j1, j2}));
    std::ostringstream name;
    name << "rank-2/3 near tie delta " << delta;
    rank23_ties.emplace_back(name.str(), r);
  }
  for (const size_t budget : {size_t{1} << 24, size_t{0}}) {
    const MeasurementMatrix matrix(m3, n, 19, budget);
    for (const auto& [r_name, r] : rank23_ties) {
      ExpectTopIsExhaustive(matrix, r, nullptr, 0, r_name);
    }
  }
}

// CorrelateTop's top 2 when the leaders tie exactly across a chunk
// boundary, at limits {1, 2, 8} on both SIMD levels, cached and implicit.
// r = e_17 makes every correlation h_17j/√M, exact in both kernels, so
// columns sharing |h_17j| tie exactly. The mask leaves, as the unmasked
// maximum, one tied column below 1300 (the chunk boundary of limits 2
// and 8 at N = 2600) and at least two at or above it: the top 2 are the
// last of them below 1300 and the first above.
TEST(MeasurementMatrixTest, CorrelateTopBitIdenticalWithTiesAcrossChunkBoundary) {
  const size_t m = 37, n = 2600, row = 17, boundary = 1300;
  const MeasurementMatrix reference(m, n, 19);
  std::map<double, std::vector<size_t>, std::greater<double>> by_value;
  for (size_t j = 0; j < n; ++j) {
    by_value[std::fabs(reference.Entry(row, j))].push_back(j);
  }
  double tied = -1.0;
  for (const auto& [value, columns] : by_value) {
    const size_t above = static_cast<size_t>(std::count_if(
        columns.begin(), columns.end(), [&](size_t j) { return j >= boundary; }));
    if (columns.front() < boundary && above >= 2) {
      tied = value;
      break;
    }
  }
  ASSERT_GT(tied, 0.0);
  const std::vector<size_t>& columns = by_value[tied];
  const size_t first_above = *std::find_if(
      columns.begin(), columns.end(), [&](size_t j) { return j >= boundary; });
  const size_t last_below = *(std::find(columns.begin(), columns.end(),
                                        first_above) - 1);
  std::vector<bool> mask(n);
  for (size_t j = 0; j < n; ++j) {
    const double v = std::fabs(reference.Entry(row, j));
    mask[j] = v > tied || (v == tied && j < last_below);
  }
  std::vector<double> e(m, 0.0);
  e[row] = 1.0;

  const auto want = ScanTop(reference, e, &mask, 0, 2);
  ASSERT_EQ(want.size(), 2u);
  EXPECT_EQ(want[0].index, last_below);
  EXPECT_EQ(want[1].index, first_above);
  EXPECT_EQ(want[0].abs_correlation, want[1].abs_correlation);
  for (const size_t budget : {size_t{1} << 24, size_t{0}}) {
    const MeasurementMatrix matrix(m, n, 19, budget);
    ExpectTopIsExhaustive(matrix, e, &mask, 0, "tie across chunk boundary");
  }
}

// The block screen at its edges. CorrelateTop scores each chunk 64
// columns per simd::ScreenColumns call from the chunk's first column; at
// N = 2600 the chunks start at multiples of 1300 (limit 2) and 325 (limit
// 8), so the pairs (63, 64) and (2559, 2560) straddle limit 1's blocks,
// (1363, 1364) limit 2's, (388, 389) limit 8's, (324, 325) and
// (1299, 1300) chunk edges, and (0, 2599) joins the first column to the
// last. M = 600 leaves an 8-entry tail after the kernel's 16-entry groups.
// Each pair leads every other column in r = c1 + b·(1 + δ)·c2, tied in
// exact arithmetic at δ = 0 and too close at |δ| = 1e-7 for the screen to
// order. Masks: none, and one that masks the pair's first column and every
// seventh other one but the pair's second, so the runner-up comes from the
// unmasked rest. The cached matrix at every δ, and the implicit one at
// δ = 0 with the mask, match the exhaustive sort of the cached CorrelateAll
// bit for bit.
TEST(MeasurementMatrixTest, BlockScreenMatchesExhaustiveAtBlockAndChunkEdges) {
  const size_t m = 600, n = 2600;
  const MeasurementMatrix cached(m, n, 31);
  const MeasurementMatrix implicit(m, n, 31, /*cache_budget_bytes=*/0);
  for (const auto& [j1, j2] : {std::pair<size_t, size_t>{63, 64},
                               std::pair<size_t, size_t>{2559, 2560},
                               std::pair<size_t, size_t>{1363, 1364},
                               std::pair<size_t, size_t>{388, 389},
                               std::pair<size_t, size_t>{324, 325},
                               std::pair<size_t, size_t>{1299, 1300},
                               std::pair<size_t, size_t>{0, 2599}}) {
    const std::vector<double> c1 = cached.Column(j1);
    const std::vector<double> c2 = cached.Column(j2);
    const double b0 = (la::Dot(c1, c1) - la::Dot(c1, c2)) /
                      (la::Dot(c2, c2) - la::Dot(c1, c2));
    std::vector<bool> mask(n);
    for (size_t j = 0; j < n; ++j) mask[j] = j == j1 || (j % 7 == 0 && j != j2);
    for (const double delta : {-1e-7, 0.0, 1e-7}) {
      std::vector<double> r = c1;
      for (size_t i = 0; i < m; ++i) r[i] += b0 * (1.0 + delta) * c2[i];
      const auto leaders = ScanTop(cached, r, nullptr, 0, 2);
      ASSERT_EQ(leaders.size(), 2u);
      EXPECT_EQ((std::set<size_t>{leaders[0].index, leaders[1].index}),
                (std::set<size_t>{j1, j2}));
      std::ostringstream name;
      name << "pair " << j1 << "/" << j2 << " delta " << delta;
      ExpectTopIsExhaustive(cached, r, nullptr, 0, name.str() + ", no mask");
      ExpectTopIsExhaustive(cached, r, &mask, 0, name.str() + ", mask");
      if (delta == 0.0) {
        ExpectTopIsExhaustive(implicit, r, &mask, 0, name.str() + ", mask",
                              &cached);
      }
    }
  }
}

// Forwards to ExtendedDictionary and records every residual and atom mask
// the OMP loop correlates: the residual sequence of a real BOMP run.
class RecordingDictionary final : public Dictionary {
 public:
  explicit RecordingDictionary(const MeasurementMatrix* matrix)
      : inner_(matrix) {}

  size_t num_atoms() const override { return inner_.num_atoms(); }
  size_t atom_length() const override { return inner_.atom_length(); }
  void FillAtom(size_t j, double* out) const override {
    inner_.FillAtom(j, out);
  }
  Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, const std::vector<bool>& selected_mask,
      size_t count) const override {
    calls.emplace_back(r, selected_mask);
    return inner_.CorrelateTop(r, selected_mask, count);
  }
  bool IsBiasAtom(size_t j) const override { return inner_.IsBiasAtom(j); }

  mutable std::vector<std::pair<std::vector<double>, std::vector<bool>>> calls;

 private:
  ExtendedDictionary inner_;
};

// Every residual of a BOMP run (a mode of 7.5 with 25 planted outliers,
// M = 64, N = 3000, 40 iterations) through the atom-indexed mask that
// ExtendedDictionary passes with skip_offset = 1: the screened argmax is
// the exhaustive one, on cached and implicit Φ0.
TEST(MeasurementMatrixTest, ScreenedArgmaxIsExhaustiveOnBompResiduals) {
  const size_t m = 64, n = 3000;
  const MeasurementMatrix cached(m, n, 23);
  const MeasurementMatrix implicit(m, n, 23, /*cache_budget_bytes=*/0);
  std::vector<double> x(n, 7.5);
  Rng rng(5);
  for (size_t k = 0; k < 25; ++k) {
    x[rng.NextU64() % n] += (k % 2 == 0 ? 1.0 : -1.0) * (50.0 + k);
  }
  const std::vector<double> y = cached.Multiply(x).MoveValue();
  RecordingDictionary dictionary(&cached);
  OmpOptions options;
  options.max_iterations = 40;
  options.stop_on_residual_stagnation = false;
  ASSERT_TRUE(RunOmp(dictionary, y, options).ok());
  ASSERT_GE(dictionary.calls.size(), 20u);
  for (size_t call = 0; call < dictionary.calls.size(); ++call) {
    const auto& [r, atom_mask] = dictionary.calls[call];
    for (const MeasurementMatrix* matrix : {&cached, &implicit}) {
      ExpectTopIsExhaustive(*matrix, r, &atom_mask, 1,
                               "iteration " + std::to_string(call));
    }
  }
}

TEST(MeasurementMatrixTest, CorrelateArgmaxAllMaskedReturnsNoIndex) {
  MeasurementMatrix matrix(8, 20, 3);
  std::vector<double> r(8, 1.0);
  std::vector<bool> mask(20, true);
  auto pick = matrix.CorrelateArgmax(r, &mask).MoveValue();
  EXPECT_EQ(pick.index, CorrelateArgmaxResult::kNoIndex);
}

TEST(MeasurementMatrixTest, CorrelateArgmaxErrors) {
  MeasurementMatrix matrix(8, 20, 3);
  EXPECT_FALSE(matrix.CorrelateArgmax({1.0, 2.0}).ok());  // r size != M
  std::vector<double> r(8, 1.0);
  std::vector<bool> short_mask(20, false);
  // With skip_offset = 1 the mask must cover n + 1 entries.
  EXPECT_FALSE(matrix.CorrelateArgmax(r, &short_mask, 1).ok());
}

TEST(MeasurementMatrixTest, MultiplySparseDuplicateIndicesAccumulate) {
  // A pre-aggregation slice may legitimately carry the same key twice; the
  // kernel must treat that as the summed coefficient.
  MeasurementMatrix matrix(12, 50, 11);
  auto dup = matrix.MultiplySparse({3, 17, 3}, {2.5, -1.0, 1.5});
  auto manual = matrix.Multiply([] {
    std::vector<double> x(50, 0.0);
    x[3] = 2.5 + 1.5;
    x[17] = -1.0;
    return x;
  }());
  ASSERT_TRUE(dup.ok());
  ASSERT_TRUE(manual.ok());
  EXPECT_NEAR(la::DistanceL2(dup.Value(), manual.Value()), 0.0, 1e-12);
}

TEST(MeasurementMatrixTest, CorrelateImplicitMatchesCachedBitwise) {
  // Both paths dot the same pre-scaled column bits through the same
  // canonical lane split, so cached vs implicit is exact, not approximate.
  MeasurementMatrix cached(24, 600, 13);
  MeasurementMatrix implicit(24, 600, 13, /*cache_budget_bytes=*/0);
  std::vector<double> r(24);
  Rng rng(3);
  for (double& v : r) v = rng.NextGaussian();
  auto a = cached.CorrelateAll(r);
  auto b = implicit.CorrelateAll(r);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.Value(), b.Value());
}

TEST(MeasurementMatrixTest, KernelsBitIdenticalAcrossLimitsAndLevels) {
  // N spans multiple reduction blocks (kReductionBlockColumns) and the
  // sparse input spans multiple nnz blocks, so the fixed-geometry partials
  // actually get exercised. Reference: serial + portable SIMD.
  const size_t m = 24, n = 5000;
  Rng rng(41);
  std::vector<double> x(n, 0.0);
  for (size_t i = 0; i < n; i += 3) x[i] = rng.NextGaussian();
  std::vector<size_t> sparse_idx;
  std::vector<double> sparse_val;
  for (size_t k = 0; k < 1300; ++k) {
    sparse_idx.push_back((k * 37) % n);
    sparse_val.push_back(rng.NextGaussian());
  }
  std::vector<double> r(m);
  for (double& v : r) v = rng.NextGaussian();

  for (const size_t budget : {size_t{1} << 24, size_t{0}}) {
    MeasurementMatrix matrix(m, n, 17, budget);

    std::vector<double> ref_multiply, ref_sparse, ref_correlate, ref_bias;
    CorrelateArgmaxResult ref_argmax;
    {
      ScopedParallelismLimit serial(1);
      ScopedSimdLevel portable(simd::Level::kPortable);
      ref_multiply = matrix.Multiply(x).MoveValue();
      ref_sparse = matrix.MultiplySparse(sparse_idx, sparse_val).MoveValue();
      ref_correlate = matrix.CorrelateAll(r).MoveValue();
      ref_bias = matrix.BiasColumn();
      ref_argmax = matrix.CorrelateArgmax(r).MoveValue();
    }

    for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
      for (simd::Level level :
           {simd::Level::kPortable, simd::Level::kAvx2}) {
        ScopedParallelismLimit scoped_limit(limit);
        ScopedSimdLevel scoped_level(level);
        const auto label = [&] {
          return "budget=" + std::to_string(budget) +
                 " limit=" + std::to_string(limit) + " level=" +
                 std::string(simd::LevelName(simd::ActiveLevel()));
        };
        EXPECT_EQ(matrix.Multiply(x).Value(), ref_multiply) << label();
        EXPECT_EQ(matrix.MultiplySparse(sparse_idx, sparse_val).Value(),
                  ref_sparse)
            << label();
        EXPECT_EQ(matrix.CorrelateAll(r).Value(), ref_correlate) << label();
        EXPECT_EQ(matrix.BiasColumn(), ref_bias) << label();
        const auto argmax = matrix.CorrelateArgmax(r).MoveValue();
        EXPECT_EQ(argmax.index, ref_argmax.index) << label();
        EXPECT_EQ(argmax.correlation, ref_argmax.correlation) << label();
      }
    }
  }
}

TEST(MeasurementMatrixTest, MultiplySparseBatchTinyScratchMatchesPerSlice) {
  // A scratch budget far below one wave's worth of columns forces the
  // implicit batch kernel through many generation waves; every wave split
  // must leave the per-slice and summed bits untouched.
  const size_t m = 16, n = 2000;
  MeasurementMatrix implicit(m, n, 23, /*cache_budget_bytes=*/0);
  Rng rng(9);
  std::vector<SparseVectorView> views;
  std::vector<std::vector<size_t>> idx(4);
  std::vector<std::vector<double>> val(4);
  for (size_t l = 0; l < 4; ++l) {
    const size_t nnz = 700 + 100 * l;  // > kReductionBlockNnz: multi-block.
    for (size_t k = 0; k < nnz; ++k) {
      idx[l].push_back((k * 13 + l) % n);
      val[l].push_back(rng.NextGaussian());
    }
    views.push_back(SparseVectorView{idx[l].data(), val[l].data(), nnz});
  }

  std::vector<double> expected_sum(m, 0.0);
  std::vector<double> expected_per(4 * m);
  for (size_t l = 0; l < 4; ++l) {
    auto y = implicit.MultiplySparse(idx[l], val[l]);
    ASSERT_TRUE(y.ok());
    std::copy(y.Value().begin(), y.Value().end(),
              expected_per.begin() + l * m);
    for (size_t i = 0; i < m; ++i) expected_sum[i] += y.Value()[i];
  }

  // One column of scratch (m * 8 bytes) — the floor still guarantees a full
  // reduction block per wave; anything smaller is clamped up.
  for (const size_t scratch : {size_t{1}, m * sizeof(double) * 10,
                               MeasurementMatrix::kDefaultBatchScratchBytes}) {
    std::vector<double> sum, per;
    ASSERT_TRUE(implicit.MultiplySparseBatch(views, &sum, &per, scratch).ok());
    EXPECT_EQ(sum, expected_sum) << "scratch=" << scratch;
    EXPECT_EQ(per, expected_per) << "scratch=" << scratch;
  }

  // Sum-only and per-slice-only modes agree with the combined call.
  std::vector<double> sum_only;
  ASSERT_TRUE(
      implicit.MultiplySparseBatch(views, &sum_only, nullptr, 1).ok());
  EXPECT_EQ(sum_only, expected_sum);
  std::vector<double> per_only;
  ASSERT_TRUE(
      implicit.MultiplySparseBatch(views, nullptr, &per_only, 1).ok());
  EXPECT_EQ(per_only, expected_per);
}

TEST(MeasurementMatrixTest, MultiplySparseBatchPrefetchPathsMatchPerSlice) {
  // The cached batch kernel prefetches columns a fixed number of entries
  // ahead, leaves to the hardware a column starting within 4 KB after the
  // previous entry's, and never reads a zero delta's column. None of that
  // may move a bit: each slice shape below meets one of those rules, and
  // slices shorter than the prefetch distance (down to 1 entry) meet its
  // block-start lead. M = 40 rows make a column 80 bytes, so one column
  // spans two cache lines and 4 KB holds 51 of them.
  const size_t m = 40, n = 3000;
  MeasurementMatrix matrix(m, n, 29);
  ASSERT_TRUE(matrix.cached());
  Rng rng(13);
  std::vector<std::vector<size_t>> idx;
  std::vector<std::vector<double>> val;
  auto add_slice = [&](std::vector<size_t> keys) {
    std::vector<double> deltas;
    for (size_t k = 0; k < keys.size(); ++k) {
      deltas.push_back(rng.NextGaussian());
    }
    idx.push_back(std::move(keys));
    val.push_back(std::move(deltas));
  };
  // Uniform random keys over three nnz blocks, the last one partial.
  std::vector<size_t> uniform;
  for (size_t k = 0; k < 1300; ++k) uniform.push_back(rng.NextBounded(n));
  add_slice(uniform);
  // Runs of adjacent columns broken by jumps, ending on the last column.
  std::vector<size_t> runs;
  for (size_t start : {size_t{7}, size_t{900}, size_t{901}, size_t{2950}}) {
    for (size_t j = start; j < std::min(n, start + 60); ++j) {
      runs.push_back(j);
    }
  }
  add_slice(runs);
  // Ascending gaps of 1 ... 60 columns, either side of the 4 KB window.
  std::vector<size_t> gaps;
  for (size_t j = 0, gap = 1; j < n; j += gap, gap = gap % 60 + 1) {
    gaps.push_back(j);
  }
  add_slice(gaps);
  // Duplicate keys, back to back and far apart.
  std::vector<size_t> duplicates;
  for (size_t k = 0; k < 600; ++k) {
    duplicates.push_back(k % 3 == 0 ? 42 : rng.NextBounded(64));
  }
  add_slice(duplicates);
  // Zero deltas (both signs), including a block's first entry and the entry
  // right after it, amid an adjacent run.
  std::vector<size_t> zeros;
  for (size_t k = 0; k < 700; ++k) zeros.push_back(k % 2 == 0 ? k + 100 : k);
  add_slice(zeros);
  for (size_t k = 0; k < val.back().size(); k += 5) val.back()[k] = 0.0;
  val.back()[1] = -0.0;
  val.back()[512] = 0.0;
  val.back()[513] = 0.0;
  // Slices shorter than, at, and just past the prefetch distance; one empty.
  for (size_t nnz : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{8},
                     size_t{9}, size_t{17}}) {
    std::vector<size_t> keys;
    for (size_t k = 0; k < nnz; ++k) keys.push_back(rng.NextBounded(n));
    add_slice(keys);
  }
  add_slice({n - 1});
  add_slice({n - 2, n - 1});

  std::vector<SparseVectorView> views;
  for (size_t l = 0; l < idx.size(); ++l) {
    views.push_back(SparseVectorView{idx[l].data(), val[l].data(),
                                     idx[l].size()});
  }
  std::vector<double> expected_sum(m, 0.0);
  std::vector<double> expected_per;
  {
    ScopedParallelismLimit serial(1);
    ScopedSimdLevel portable(simd::Level::kPortable);
    for (size_t l = 0; l < idx.size(); ++l) {
      const std::vector<double> y =
          matrix.MultiplySparse(idx[l], val[l]).MoveValue();
      expected_per.insert(expected_per.end(), y.begin(), y.end());
      for (size_t i = 0; i < m; ++i) expected_sum[i] += y[i];
    }
  }

  for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2}) {
      ScopedParallelismLimit scoped_limit(limit);
      ScopedSimdLevel scoped_level(level);
      const std::string label =
          "limit=" + std::to_string(limit) + " level=" +
          std::string(simd::LevelName(simd::ActiveLevel()));
      std::vector<double> sum, per;
      ASSERT_TRUE(matrix.MultiplySparseBatch(views, &sum, &per).ok());
      EXPECT_TRUE(SameBits(sum, expected_sum)) << label;
      EXPECT_TRUE(SameBits(per, expected_per)) << label;
      // Each slice alone, the sum-only path: 0 + y_l.
      for (size_t l = 0; l < views.size(); ++l) {
        std::vector<double> expected_one(m, 0.0);
        for (size_t i = 0; i < m; ++i) {
          expected_one[i] += expected_per[l * m + i];
        }
        std::vector<double> one;
        ASSERT_TRUE(matrix.MultiplySparseBatch({views[l]}, &one).ok());
        EXPECT_TRUE(SameBits(one, expected_one)) << label << " slice " << l;
      }
    }
  }
}

TEST(MeasurementMatrixTest, CachedBiasColumnMatchesFreshCompute) {
  MeasurementMatrix matrix(16, 3000, 7);
  const std::vector<double>& cached = matrix.CachedBiasColumn();
  EXPECT_EQ(cached, matrix.BiasColumn());  // Bitwise.
  // Memoized: the second call hands back the same vector.
  EXPECT_EQ(&matrix.CachedBiasColumn(), &cached);
}

TEST(MeasurementMatrixTest, WrappingGeometryStaysImplicit) {
  // M·N = 2^62 entries: 2^62 bytes of int8, and a product for 4-byte
  // entries would wrap to 0 in size_t. Neither may pass as "fits the
  // budget" and try to allocate the dense cache.
  const size_t huge = size_t{1} << 31;
  EXPECT_FALSE(MeasurementMatrix(huge, huge, 1).cached());
  EXPECT_FALSE(SharedMatrix(huge, huge, 1)->cached());
  // The budget is inclusive.
  constexpr size_t kBytes = 8 * 16 * MeasurementMatrix::kBytesPerEntry;
  EXPECT_TRUE(MeasurementMatrix(8, 16, 1, kBytes).cached());
  EXPECT_FALSE(MeasurementMatrix(8, 16, 1, kBytes - 1).cached());
}

TEST(MeasurementMatrixTest, EntryIsTheInt8RoundedScaledGaussian) {
  // Φ0's entry definition (format 5), bit for bit, on both storage paths,
  // through every accessor, with the matrix built at every parallelism
  // limit and SIMD level: (q / 16) · (1/√M) with
  // q = clamp(roundeven(16·g), −127, 127) and
  // g = CounterGaussian(Phi0ColumnSeed(seed, j)).At(i). The reference rounds
  // with std::nearbyint (ties to even in the default mode), not with the
  // kernels' own rounding. N = 600 spans more than one kMinColumnsPerChunk,
  // so the dense cache is filled in parallel.
  const size_t m = 13, n = 600;
  const uint64_t seed = 2718;
  const double inv_sqrt_m = 1.0 / std::sqrt(static_cast<double>(m));
  std::vector<double> expected(m * n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < m; ++i) {
      const double g = CounterGaussian(Phi0ColumnSeed(seed, j)).At(i);
      // Through int: q is an integer, so a rounded -0.0 is 0.
      const int q = static_cast<int>(
          std::clamp(std::nearbyint(16.0 * g), -127.0, 127.0));
      expected[j * m + i] = (q / 16.0) * inv_sqrt_m;
    }
  }
  for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2}) {
      ScopedParallelismLimit scoped_limit(limit);
      ScopedSimdLevel scoped_level(level);
      for (const size_t budget : {size_t{1} << 20, size_t{0}}) {
        MeasurementMatrix matrix(m, n, seed, budget);
        ASSERT_EQ(matrix.cached(), budget != 0);
        for (size_t j = 0; j < n; ++j) {
          const std::vector<double> column = matrix.Column(j);
          for (size_t i = 0; i < m; ++i) {
            const uint64_t want = std::bit_cast<uint64_t>(expected[j * m + i]);
            ASSERT_EQ(std::bit_cast<uint64_t>(matrix.Entry(i, j)), want)
                << "limit=" << limit << " level=" << simd::LevelName(level)
                << " budget=" << budget << " (" << i << "," << j << ")";
            ASSERT_EQ(std::bit_cast<uint64_t>(column[i]), want);
          }
        }
      }
    }
  }
}

// Seeds 0..63 over 50k columns: every column seed is distinct, so no two
// Φ0 seeds share a column. (Under HashCombine(seed, j), seeds s and s + 1
// shared all but about 64 columns, shifted by 63 or 64.)
TEST(MeasurementMatrixTest, DistinctSeedsShareNoColumn) {
  constexpr uint64_t kSeeds = 64;
  constexpr uint64_t kColumns = 50000;
  std::vector<uint64_t> column_seeds;
  column_seeds.reserve(kSeeds * kColumns);
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    for (uint64_t j = 0; j < kColumns; ++j) {
      column_seeds.push_back(Phi0ColumnSeed(seed, j));
    }
  }
  std::sort(column_seeds.begin(), column_seeds.end());
  EXPECT_EQ(std::adjacent_find(column_seeds.begin(), column_seeds.end()),
            column_seeds.end());
  // And the matrices agree: seed 1001's column 0 is not seed 1000's 64.
  const MeasurementMatrix a(8, 100, 1000, 0);
  const MeasurementMatrix b(8, 100, 1001, 0);
  EXPECT_NE(a.Column(64), b.Column(0));
  EXPECT_NE(a.Column(63), b.Column(0));
}

TEST(MeasurementMatrixTest, CachedEqualsImplicitBitwiseForEveryKernel) {
  // M = 13 leaves a tail after the 8-lane tree and the 4-wide loads; M = 256
  // is the serve geometry's column. N spans three reduction blocks and the
  // sparse input three nnz blocks. Reference: the cached matrix, serially.
  const size_t n = 4500;
  Rng rng(57);
  std::vector<double> x(n, 0.0);
  for (size_t i = 0; i < n; i += 5) x[i] = rng.NextGaussian();
  std::vector<std::vector<size_t>> idx(3);
  std::vector<std::vector<double>> val(3);
  std::vector<SparseVectorView> views;
  for (size_t l = 0; l < 3; ++l) {
    for (size_t k = 0; k < 400 + 300 * l; ++k) {
      idx[l].push_back((k * 29 + 7 * l) % n);
      val[l].push_back(rng.NextGaussian());
    }
    views.push_back(SparseVectorView{idx[l].data(), val[l].data(),
                                     idx[l].size()});
  }
  std::vector<size_t> sparse_idx;
  std::vector<double> sparse_val;
  for (size_t l = 0; l < 3; ++l) {
    sparse_idx.insert(sparse_idx.end(), idx[l].begin(), idx[l].end());
    sparse_val.insert(sparse_val.end(), val[l].begin(), val[l].end());
  }

  for (const size_t m : {size_t{13}, size_t{256}}) {
    std::vector<double> r(m);
    for (double& v : r) v = rng.NextGaussian();
    std::vector<bool> mask(n, false);
    for (size_t j = 0; j < n; j += 7) mask[j] = true;

    struct Outputs {
      std::vector<double> multiply, sparse, sum, per_slice, correlate, bias;
      CorrelateArgmaxResult argmax, masked_argmax;
    };
    auto run = [&](const MeasurementMatrix& matrix) {
      Outputs o;
      o.multiply = matrix.Multiply(x).MoveValue();
      o.sparse = matrix.MultiplySparse(sparse_idx, sparse_val).MoveValue();
      EXPECT_TRUE(matrix.MultiplySparseBatch(views, &o.sum, &o.per_slice).ok());
      o.correlate = matrix.CorrelateAll(r).MoveValue();
      o.bias = matrix.BiasColumn();
      o.argmax = matrix.CorrelateArgmax(r).MoveValue();
      o.masked_argmax = matrix.CorrelateArgmax(r, &mask).MoveValue();
      return o;
    };
    const MeasurementMatrix cached(m, n, 31);
    const MeasurementMatrix implicit(m, n, 31, /*cache_budget_bytes=*/0);
    ASSERT_TRUE(cached.cached());
    ASSERT_FALSE(implicit.cached());
    Outputs ref;
    {
      ScopedParallelismLimit serial(1);
      ref = run(cached);
    }
    for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
      ScopedParallelismLimit scoped(limit);
      for (const MeasurementMatrix* matrix : {&cached, &implicit}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " limit=" +
                     std::to_string(limit) +
                     (matrix->cached() ? " cached" : " implicit"));
        const Outputs got = run(*matrix);
        EXPECT_TRUE(SameBits(got.multiply, ref.multiply));
        EXPECT_TRUE(SameBits(got.sparse, ref.sparse));
        EXPECT_TRUE(SameBits(got.sum, ref.sum));
        EXPECT_TRUE(SameBits(got.per_slice, ref.per_slice));
        EXPECT_TRUE(SameBits(got.correlate, ref.correlate));
        EXPECT_TRUE(SameBits(got.bias, ref.bias));
        for (const auto& [a, b] : {std::pair{got.argmax, ref.argmax},
                                   std::pair{got.masked_argmax,
                                             ref.masked_argmax}}) {
          EXPECT_EQ(a.index, b.index);
          EXPECT_EQ(std::bit_cast<uint64_t>(a.correlation),
                    std::bit_cast<uint64_t>(b.correlation));
        }
      }
    }
  }
}

TEST(MeasurementMatrixTest, BiasColumnIsScaledColumnSum) {
  MeasurementMatrix matrix(6, 9, 21);
  const std::vector<double> phi0 = matrix.BiasColumn();
  for (size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 9; ++j) sum += matrix.Entry(i, j);
    EXPECT_NEAR(phi0[i], sum / std::sqrt(9.0), 1e-12);
  }
}

// Adjoint property sweep: <Φx, y> == <x, Φᵀy> across shapes, on both
// the cached and the implicit (column-regenerating) path. Multiply and
// CorrelateAll sum in different orders, so the check is to tolerance.
class MatrixAdjointTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(MatrixAdjointTest, AdjointIdentity) {
  const auto [rows, cols] = GetParam();
  std::vector<double> x(cols);
  std::vector<double> y(rows);
  for (size_t c = 0; c < cols; ++c) x[c] = std::cos(static_cast<double>(c));
  for (size_t r = 0; r < rows; ++r) y[r] = std::cos(static_cast<double>(r + 7));

  for (size_t cache_budget : {MeasurementMatrix::kDefaultCacheBudgetBytes,
                              size_t{0}}) {
    SCOPED_TRACE(cache_budget);
    MeasurementMatrix phi(rows, cols, 29, cache_budget);
    auto phi_x = phi.Multiply(x).MoveValue();
    auto phi_t_y = phi.CorrelateAll(y).MoveValue();
    double lhs = 0.0;
    double rhs = 0.0;
    for (size_t r = 0; r < rows; ++r) lhs += phi_x[r] * y[r];
    for (size_t c = 0; c < cols; ++c) rhs += x[c] * phi_t_y[c];
    EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + std::fabs(lhs)));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatrixAdjointTest,
                         ::testing::Values(std::make_pair(1, 1),
                                           std::make_pair(3, 7),
                                           std::make_pair(7, 3),
                                           std::make_pair(16, 16),
                                           std::make_pair(64, 5)));

// Each SharedMatrix test uses seeds no other test requests, so the tests
// also hold when one process runs them all.
using SharedPtr = std::shared_ptr<const MeasurementMatrix>;

TEST(SharedMatrixTest, SameKeySharesOneMatrixWhileOwned) {
  const SharedPtr a = SharedMatrix(16, 300, 9101);
  const SharedPtr b = SharedMatrix(16, 300, 9101);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_TRUE(a->cached());
  EXPECT_NE(SharedMatrix(16, 300, 9102).get(), a.get());
  EXPECT_NE(SharedMatrix(17, 300, 9101).get(), a.get());
  EXPECT_NE(SharedMatrix(16, 301, 9101).get(), a.get());
}

TEST(SharedMatrixTest, RetainsTheLastRequestAfterItsOwnersDrop) {
  const std::weak_ptr<const MeasurementMatrix> weak =
      SharedMatrix(16, 300, 9201);
  // No owner is left, yet the retained slot keeps it: no rebuild.
  ASSERT_FALSE(weak.expired());
  EXPECT_EQ(SharedMatrix(16, 300, 9201), weak.lock());
}

TEST(SharedMatrixTest, NewKeyReleasesTheUnownedRetainedMatrix) {
  const std::weak_ptr<const MeasurementMatrix> unowned =
      SharedMatrix(16, 300, 9301);
  ASSERT_FALSE(unowned.expired());
  const SharedPtr next = SharedMatrix(16, 300, 9302);
  EXPECT_TRUE(unowned.expired());
  // The slot only ever drops its own reference: an owned matrix survives.
  const SharedPtr owned = next;
  const SharedPtr other = SharedMatrix(16, 300, 9303);
  EXPECT_EQ(SharedMatrix(16, 300, 9302), owned);
}

TEST(SharedMatrixTest, ImplicitRequestsLeaveTheRetainedMatrixInPlace) {
  const std::weak_ptr<const MeasurementMatrix> dense =
      SharedMatrix(16, 300, 9401);
  const SharedPtr implicit =
      SharedMatrix(16, 300, 9402, /*cache_budget_bytes=*/0);
  EXPECT_FALSE(implicit->cached());
  EXPECT_FALSE(dense.expired());
}

TEST(SharedMatrixTest, CachedAndImplicitAreDistinctEntries) {
  const SharedPtr dense = SharedMatrix(16, 300, 9501);
  const SharedPtr implicit =
      SharedMatrix(16, 300, 9501, /*cache_budget_bytes=*/0);
  EXPECT_NE(dense.get(), implicit.get());
  EXPECT_TRUE(dense->cached());
  EXPECT_FALSE(implicit->cached());
  // The key is the cache decision, not the budget: any budget the matrix
  // fits maps to the same entry.
  EXPECT_EQ(SharedMatrix(16, 300, 9501, size_t{2} << 30), dense);
  EXPECT_EQ(SharedMatrix(16, 300, 9501, 16 * 300 * sizeof(double)), dense);
}

TEST(SharedMatrixTest, BitIdenticalToAFreshMatrix) {
  for (const size_t budget :
       {MeasurementMatrix::kDefaultCacheBudgetBytes, size_t{0}}) {
    const SharedPtr shared = SharedMatrix(24, 700, 9601, budget);
    const MeasurementMatrix fresh(24, 700, 9601, budget);
    EXPECT_EQ(shared->cached(), fresh.cached());
    for (size_t col = 0; col < fresh.n(); ++col) {
      ASSERT_TRUE(SameBits(shared->Column(col), fresh.Column(col)))
          << "budget=" << budget << " col=" << col;
    }
    EXPECT_TRUE(SameBits(shared->CachedBiasColumn(), fresh.CachedBiasColumn()))
        << "budget=" << budget;
  }
}

TEST(SharedMatrixTest, ConcurrentRequestsForOneMissingKeyBuildOnce) {
  constexpr size_t kThreads = 8;
  std::vector<SharedPtr> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[t] = SharedMatrix(64, 4000, 9701);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t].get(), got[0].get()) << "thread " << t;
  }
}

}  // namespace
}  // namespace csod::cs
