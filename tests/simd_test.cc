#include "common/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

#include "test_scopes.h"

namespace csod::simd {
namespace {

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  std::vector<double> v(n);
  Rng rng(seed);
  for (double& x : v) x = rng.NextGaussian();
  return v;
}

// The canonical summation tree, written out longhand: lane l sums elements
// at positions i ≡ l (mod 8); lanes fold pairwise.
double ReferenceLaneDot(const double* a, const double* b, size_t n) {
  double lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) lane[i % 8] += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// Sizes that exercise empty input, sub-lane tails, exact multiples, and a
// long stream.
const size_t kSizes[] = {0, 1, 3, 7, 8, 9, 13, 16, 31, 64, 100, 257};

TEST(SimdTest, DotMatchesCanonicalLaneSplit) {
  for (size_t n : kSizes) {
    const auto a = RandomVector(n, 11);
    const auto b = RandomVector(n, 22);
    for (Level level : kAllLevels) {
      ScopedSimdLevel scoped(level);
      EXPECT_EQ(Dot(a.data(), b.data(), n),
                ReferenceLaneDot(a.data(), b.data(), n))
          << "n=" << n << " level=" << LevelName(ActiveLevel());
    }
  }
}

// Every vector level against the portable one, on the double kernels.
TEST(SimdTest, Avx2AndPortableAreBitIdentical) {
  if (SupportedLevel() == Level::kPortable) GTEST_SKIP() << "CPU lacks AVX2";
  for (size_t n : kSizes) {
    const auto a = RandomVector(n, 5);
    const auto b = RandomVector(n, 6);
    const auto c = RandomVector(n, 7);
    const auto d = RandomVector(n, 8);
    const auto r = RandomVector(n, 9);

    struct Outputs {
      double dot;
      double dot4[4];
      std::vector<double> axpy, axpy4, add4;
    };
    auto run_all = [&]() {
      Outputs out;
      out.dot = Dot(a.data(), r.data(), n);
      Dot4(a.data(), b.data(), c.data(), d.data(), r.data(), n, out.dot4);
      out.axpy = RandomVector(n, 33);
      Axpy(out.axpy.data(), a.data(), 1.7, n);
      Scale(out.axpy.data(), 0.3, n);
      Add(out.axpy.data(), b.data(), n);
      out.axpy4 = RandomVector(n, 44);
      Axpy4(out.axpy4.data(), a.data(), 0.5, b.data(), -1.25, c.data(), 2.0,
            d.data(), -0.75, n);
      const double* cols8[8] = {a.data(), b.data(), c.data(), d.data(),
                                r.data(), a.data(), b.data(), c.data()};
      const double xs8[8] = {1.0, -2.0, 0.5, 3.0, -0.125, 2.25, -1.0, 0.75};
      Axpy8(out.axpy4.data(), cols8, xs8, n);
      out.add4 = RandomVector(n, 55);
      Add4(out.add4.data(), a.data(), b.data(), c.data(), d.data(), n);
      return out;
    };
    Outputs portable;
    {
      ScopedSimdLevel scoped(Level::kPortable);
      portable = run_all();
    }
    for (Level level : kAllLevels) {
      if (level == Level::kPortable) continue;
      ScopedSimdLevel scoped(level);
      ASSERT_NE(ActiveLevel(), Level::kPortable);
      const Outputs vector = run_all();
      const char* name = LevelName(ActiveLevel());
      EXPECT_EQ(portable.dot, vector.dot) << "n=" << n << " " << name;
      for (size_t k = 0; k < 4; ++k) {
        EXPECT_EQ(portable.dot4[k], vector.dot4[k])
            << "n=" << n << " k=" << k << " " << name;
      }
      EXPECT_EQ(portable.axpy, vector.axpy) << "n=" << n << " " << name;
      EXPECT_EQ(portable.axpy4, vector.axpy4) << "n=" << n << " " << name;
      EXPECT_EQ(portable.add4, vector.add4) << "n=" << n << " " << name;
    }
  }
}

TEST(SimdTest, FusedVariantsMatchSequentialCallsBitwise) {
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    for (size_t n : kSizes) {
      const auto c0 = RandomVector(n, 1);
      const auto c1 = RandomVector(n, 2);
      const auto c2 = RandomVector(n, 3);
      const auto c3 = RandomVector(n, 4);
      const auto r = RandomVector(n, 5);

      double fused[4];
      Dot4(c0.data(), c1.data(), c2.data(), c3.data(), r.data(), n, fused);
      EXPECT_EQ(fused[0], Dot(c0.data(), r.data(), n));
      EXPECT_EQ(fused[1], Dot(c1.data(), r.data(), n));
      EXPECT_EQ(fused[2], Dot(c2.data(), r.data(), n));
      EXPECT_EQ(fused[3], Dot(c3.data(), r.data(), n));

      std::vector<double> acc_fused = RandomVector(n, 6);
      std::vector<double> acc_seq = acc_fused;
      Axpy4(acc_fused.data(), c0.data(), 0.5, c1.data(), -1.5, c2.data(), 2.5,
            c3.data(), -0.25, n);
      Axpy(acc_seq.data(), c0.data(), 0.5, n);
      Axpy(acc_seq.data(), c1.data(), -1.5, n);
      Axpy(acc_seq.data(), c2.data(), 2.5, n);
      Axpy(acc_seq.data(), c3.data(), -0.25, n);
      EXPECT_EQ(acc_fused, acc_seq) << "n=" << n;

      const auto c4 = RandomVector(n, 8);
      const auto c5 = RandomVector(n, 9);
      const auto c6 = RandomVector(n, 10);
      const auto c7 = RandomVector(n, 11);
      const double* cols8[8] = {c0.data(), c1.data(), c2.data(), c3.data(),
                                c4.data(), c5.data(), c6.data(), c7.data()};
      const double xs8[8] = {0.5, -1.5, 2.5, -0.25, 1.75, -3.0, 0.125, 4.5};
      std::vector<double> acc8_fused = RandomVector(n, 12);
      std::vector<double> acc8_seq = acc8_fused;
      Axpy8(acc8_fused.data(), cols8, xs8, n);
      for (size_t k = 0; k < 8; ++k) {
        Axpy(acc8_seq.data(), cols8[k], xs8[k], n);
      }
      EXPECT_EQ(acc8_fused, acc8_seq) << "n=" << n;

      std::vector<double> add_fused = RandomVector(n, 7);
      std::vector<double> add_seq = add_fused;
      Add4(add_fused.data(), c0.data(), c1.data(), c2.data(), c3.data(), n);
      Add(add_seq.data(), c0.data(), n);
      Add(add_seq.data(), c1.data(), n);
      Add(add_seq.data(), c2.data(), n);
      Add(add_seq.data(), c3.data(), n);
      EXPECT_EQ(add_fused, add_seq) << "n=" << n;
    }
  }
}

TEST(SimdTest, ElementwiseKernelsMatchScalarReference) {
  const size_t n = 37;
  const auto col = RandomVector(n, 12);
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    std::vector<double> acc = RandomVector(n, 13);
    std::vector<double> expected = acc;
    Axpy(acc.data(), col.data(), 1.25, n);
    for (size_t i = 0; i < n; ++i) expected[i] += col[i] * 1.25;
    EXPECT_EQ(acc, expected);

    Add(acc.data(), col.data(), n);
    for (size_t i = 0; i < n; ++i) expected[i] += col[i];
    EXPECT_EQ(acc, expected);

    Scale(acc.data(), -0.5, n);
    for (size_t i = 0; i < n; ++i) expected[i] *= -0.5;
    EXPECT_EQ(acc, expected);
  }
}

// n quantized Gaussians (Φ0's entries), followed by `guard` entries of 127:
// a kernel that read past element n - 1 would fold them into its result.
std::vector<int8_t> RandomInt8s(size_t n, uint64_t seed, size_t guard = 0) {
  std::vector<int8_t> v(n + guard, 127);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) v[i] = QuantizeEntry(rng.NextGaussian());
  return v;
}

std::vector<double> Widened(const std::vector<int8_t>& v, size_t n) {
  return std::vector<double>(v.begin(), v.begin() + n);
}

// Bit patterns of a double vector, so a comparison also tells -0.0 from 0.0
// and reports the differing position.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits;
  for (double x : v) bits.push_back(std::bit_cast<uint64_t>(x));
  return bits;
}

// Every kernel that reads an int8 column, run once at the active level.
struct ColumnKernelOutputs {
  double dot = 0.0;
  double dot4[4] = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> axpy, axpy4, axpy8, add, add4;

  // Bitwise, so -0.0 never compares equal to 0.0.
  bool operator==(const ColumnKernelOutputs& o) const {
    auto same = [](double a, double b) {
      return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
    };
    auto same_vec = [&](const std::vector<double>& a,
                        const std::vector<double>& b) {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!same(a[i], b[i])) return false;
      }
      return true;
    };
    for (size_t k = 0; k < 4; ++k) {
      if (!same(dot4[k], o.dot4[k])) return false;
    }
    return same(dot, o.dot) && same_vec(axpy, o.axpy) &&
           same_vec(axpy4, o.axpy4) && same_vec(axpy8, o.axpy8) &&
           same_vec(add, o.add) && same_vec(add4, o.add4);
  }
};

// Runs the column kernels over columns `c` (eight int8 or double columns of
// at least n entries) and residual `r`.
template <typename T>
ColumnKernelOutputs RunColumnKernels(const std::vector<std::vector<T>>& c,
                                     const std::vector<double>& r, size_t n) {
  const double xs[8] = {1.0, -2.0, 0.5, 3.0, -0.125, 2.25, -1.0, 0.75};
  ColumnKernelOutputs out;
  out.axpy = out.axpy4 = out.axpy8 = out.add = out.add4 = RandomVector(n, 77);
  out.dot = Dot(c[0].data(), r.data(), n);
  Dot4(c[0].data(), c[1].data(), c[2].data(), c[3].data(), r.data(), n,
       out.dot4);
  Axpy(out.axpy.data(), c[0].data(), 1.7, n);
  Axpy4(out.axpy4.data(), c[0].data(), xs[0], c[1].data(), xs[1], c[2].data(),
        xs[2], c[3].data(), xs[3], n);
  const T* cols[8];
  for (size_t k = 0; k < 8; ++k) cols[k] = c[k].data();
  Axpy8(out.axpy8.data(), cols, xs, n);
  Add(out.add.data(), c[0].data(), n);
  Add4(out.add4.data(), c[0].data(), c[1].data(), c[2].data(), c[3].data(),
       n);
  return out;
}

// Int8 columns: portable == AVX2, and each int8 overload == its double form
// on the widened column, bit for bit. The sizes cover every tail length of
// the 4- and 8-wide loads and the 8-lane tree, and a column of M = 256 with
// its neighbours. Each column is followed by eight guard entries, so a read
// past element n - 1 shows as a mismatch even without AddressSanitizer.
TEST(SimdTest, Int8ColumnKernelsAreBitIdenticalAcrossLevels) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}}) sizes.push_back(n);
  for (size_t n : sizes) {
    std::vector<std::vector<int8_t>> cols;
    std::vector<std::vector<double>> wide;
    for (uint64_t k = 0; k < 8; ++k) {
      cols.push_back(RandomInt8s(n, 100 + k, /*guard=*/8));
      wide.push_back(Widened(cols.back(), n));
    }
    const auto r = RandomVector(n, 99);
    ColumnKernelOutputs portable;
    {
      ScopedSimdLevel scoped(Level::kPortable);
      portable = RunColumnKernels(cols, r, n);
      EXPECT_TRUE(portable == RunColumnKernels(wide, r, n))
          << "n=" << n << " int8 != widened double (portable)";
    }
    for (Level level : kAllLevels) {
      if (level == Level::kPortable) continue;
      ScopedSimdLevel scoped(level);
      const char* name = LevelName(ActiveLevel());
      const ColumnKernelOutputs vector = RunColumnKernels(cols, r, n);
      EXPECT_TRUE(vector == portable) << "n=" << n << " " << name
                                      << " != portable";
      EXPECT_TRUE(vector == RunColumnKernels(wide, r, n))
          << "n=" << n << " int8 != widened double (" << name << ")";
    }
  }
}

// The int8 Axpy family against a scalar reference written out here, on
// every level, at lengths that cover each tail of the 4- and 8-row vector
// steps, a column of M = 256 with its neighbours, and batch-detect's
// M = 600. Columns and accumulator are allocated at exactly n entries, so
// AddressSanitizer reports a read or write past the end.
TEST(SimdTest, Int8AxpyKernelsAreBitIdenticalOnEveryLevelAtExactLength) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}, size_t{600}}) {
    sizes.push_back(n);
  }
  // Full-precision coefficients, so that most products round.
  const std::vector<double> xs = RandomVector(8, 402);
  for (size_t n : sizes) {
    std::vector<std::vector<int8_t>> cols;
    for (uint64_t k = 0; k < 8; ++k) cols.push_back(RandomInt8s(n, 400 + k));
    const std::vector<double> acc0 = RandomVector(n, 401);
    // acc[i] + Σ_k cols[k][i]·xs[k], one rounding per product and per sum,
    // over the first `streams` columns in order.
    auto reference = [&](size_t streams) {
      std::vector<double> want = acc0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < streams; ++k) {
          const double product = static_cast<double>(cols[k][i]) * xs[k];
          want[i] = want[i] + product;
        }
      }
      return Bits(want);
    };
    const int8_t* ptrs[8];
    for (size_t k = 0; k < 8; ++k) ptrs[k] = cols[k].data();
    for (Level level : kAllLevels) {
      ScopedSimdLevel scoped(level);
      const char* name = LevelName(ActiveLevel());
      std::vector<double> acc = acc0;
      Axpy(acc.data(), ptrs[0], xs[0], n);
      EXPECT_EQ(Bits(acc), reference(1)) << "Axpy n=" << n << " " << name;
      acc = acc0;
      Axpy4(acc.data(), ptrs[0], xs[0], ptrs[1], xs[1], ptrs[2], xs[2],
            ptrs[3], xs[3], n);
      EXPECT_EQ(Bits(acc), reference(4)) << "Axpy4 n=" << n << " " << name;
      acc = acc0;
      Axpy8(acc.data(), ptrs, xs.data(), n);
      EXPECT_EQ(Bits(acc), reference(8)) << "Axpy8 n=" << n << " " << name;
    }
  }
}

// The contraction canary. With q = 3, x = 1 + 2^-52 and acc = -3, the
// product q·x = 3 + 3·2^-52 rounds to 3 + 2^-50, so mul-then-add gives
// 2^-50, while a fused multiply-add keeps the product exact and gives
// 3·2^-52. The AVX-512 kernels are compiled for a target with FMA, and only
// -ffp-contract=off keeps the compiler from fusing their multiplies and
// adds; each stream of each kernel is checked on its own, at a length with
// vector steps and a scalar tail.
TEST(SimdTest, Int8AxpyKernelsRoundTheProductBeforeTheAdd) {
  const double x = 1.0 + 0x1p-52;
  const double acc0 = -3.0;
  const double want = 0x1p-50;
  volatile double q = 3.0;  // volatile: keeps the reference fma at run time
  ASSERT_NE(std::fma(q, x, acc0), want);
  ASSERT_EQ(std::fma(q, x, acc0), 3 * 0x1p-52);
  const size_t n = 19;
  const std::vector<int8_t> threes(n, 3);
  const std::vector<int8_t> zeros(n, 0);
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    const char* name = LevelName(ActiveLevel());
    std::vector<double> acc(n, acc0);
    Axpy(acc.data(), threes.data(), x, n);
    EXPECT_EQ(acc, std::vector<double>(n, want)) << "Axpy " << name;
    for (size_t stream = 0; stream < 8; ++stream) {
      const int8_t* c[8];
      double xs[8];
      for (size_t k = 0; k < 8; ++k) {
        c[k] = k == stream ? threes.data() : zeros.data();
        xs[k] = x;
      }
      acc.assign(n, acc0);
      Axpy8(acc.data(), c, xs, n);
      EXPECT_EQ(acc, std::vector<double>(n, want))
          << "Axpy8 stream " << stream << " " << name;
      if (stream >= 4) continue;
      acc.assign(n, acc0);
      Axpy4(acc.data(), c[0], x, c[1], x, c[2], x, c[3], x, n);
      EXPECT_EQ(acc, std::vector<double>(n, want))
          << "Axpy4 stream " << stream << " " << name;
    }
  }
}

int64_t ReferenceScreenDot(const int8_t* a, const int16_t* b, size_t n) {
  int64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += int64_t{a[i]} * int64_t{b[i]};
  return sum;
}

// ScreenColumns over the `count` contiguous n-entry columns at `cols`, and
// over each column alone (the scalar column path on the AVX2 level),
// against the int64 sum on every level.
void ExpectExactScreen(const int8_t* cols, size_t count, const int16_t* r,
                       size_t n) {
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    std::vector<int32_t> block(count);
    ScreenColumns(cols, n, count, r, block.data());
    for (size_t k = 0; k < count; ++k) {
      const int64_t want = ReferenceScreenDot(cols + k * n, r, n);
      int32_t alone = 0;
      ScreenColumns(cols + k * n, n, 1, r, &alone);
      const char* name = LevelName(ActiveLevel());
      EXPECT_EQ(alone, want) << "n=" << n << " k=" << k << " level=" << name;
      EXPECT_EQ(block[k], want) << "n=" << n << " count=" << count
                                << " k=" << k << " level=" << name;
    }
  }
}

// Four columns and a residual drawn over their whole admitted range,
// |q| ≤ 127 and |ρ| ≤ ScreenResidualLimit(n), with the block and the
// residual padded by extreme values that a read past their ends would add.
TEST(SimdTest, IntegerScreenDotIsExactOnEveryLevel) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}}) sizes.push_back(n);
  for (size_t n : sizes) {
    const int32_t limit = ScreenResidualLimit(n);
    Rng rng(300 + n);
    auto uniform = [&](int32_t bound) {
      return static_cast<int32_t>(rng.NextBounded(2 * bound + 1)) - bound;
    };
    std::vector<int8_t> cols(4 * n + 16, 127);
    for (size_t i = 0; i < 4 * n; ++i) {
      cols[i] = static_cast<int8_t>(uniform(kMaxAbsInt8Entry));
    }
    std::vector<int16_t> r(n + 16, 32767);
    for (size_t i = 0; i < n; ++i) r[i] = static_cast<int16_t>(uniform(limit));
    ExpectExactScreen(cols.data(), 4, r.data(), n);
  }
}

// The overflow rule at its edge: at the largest n it admits, a column of
// ±127 against a residual of ±L with matching signs sums to 127·n·L, just
// under 2^31, and no kernel may wrap on the way.
TEST(SimdTest, IntegerScreenDotIsExactAtTheLargestAdmittedM) {
  EXPECT_EQ(ScreenResidualLimit(1), 32767);
  EXPECT_EQ(ScreenResidualLimit(516), 32767);
  EXPECT_EQ(ScreenResidualLimit(517), 32706);
  EXPECT_EQ(ScreenResidualLimit(1600), 10568);
  const size_t n = 0x7fffffff / 127;
  ASSERT_EQ(ScreenResidualLimit(n), 1);
  ASSERT_EQ(ScreenResidualLimit(n + 1), 0);
  const int32_t limit = ScreenResidualLimit(n);
  std::vector<int8_t> cols(4 * n);
  std::vector<int16_t> r(n);
  for (size_t i = 0; i < n; ++i) {
    const int8_t q = (i % 3 == 0) ? -127 : 127;
    cols[i] = q;
    cols[n + i] = static_cast<int8_t>(-q);
    cols[2 * n + i] = 127;
    cols[3 * n + i] = (i % 2 == 0) ? q : static_cast<int8_t>(-q);
    r[i] = static_cast<int16_t>(q < 0 ? -limit : limit);
  }
  EXPECT_EQ(ReferenceScreenDot(cols.data(), r.data(), n),
            int64_t{127} * static_cast<int64_t>(n) * limit);
  EXPECT_LE(int64_t{127} * static_cast<int64_t>(n) * limit,
            int64_t{0x7fffffff});
  ExpectExactScreen(cols.data(), 4, r.data(), n);
}

// ScreenColumns at every boundary of its loops: M from 0 through one
// 16-entry group and its tails; M = 24 and 31, one 16-entry group, the
// 8-entry step and a scalar rest on AVX2, and a masked tail alone on
// AVX-512; around 256; batch-detect's M = 600 (AVX2: 37 groups and the
// 8-entry step; AVX-512: 18 groups and a 24-entry masked tail); and
// M = 607, all three AVX2 stages. Column counts run from 0 through two
// 4-column groups and their remainders, around one 64-column block and
// past two.
// Columns and residual are allocated at exactly their length, so
// AddressSanitizer reports any read past the end.
TEST(SimdTest, ScreenColumnsMatchesInt64ReferenceAtEveryBoundary) {
  std::vector<size_t> sizes;
  for (size_t m = 0; m <= 17; ++m) sizes.push_back(m);
  for (size_t m : {size_t{24}, size_t{31}, size_t{255}, size_t{256},
                   size_t{257}, size_t{600}, size_t{607}}) {
    sizes.push_back(m);
  }
  std::vector<size_t> counts;
  for (size_t count = 0; count <= 9; ++count) counts.push_back(count);
  for (size_t count : {size_t{63}, size_t{64}, size_t{65}, size_t{130}}) {
    counts.push_back(count);
  }
  for (size_t m : sizes) {
    const int32_t limit = ScreenResidualLimit(m);
    Rng rng(900 + m);
    auto uniform = [&](int32_t bound) {
      return static_cast<int32_t>(rng.NextBounded(2 * bound + 1)) - bound;
    };
    std::vector<int16_t> r(m);
    for (int16_t& v : r) v = static_cast<int16_t>(uniform(limit));
    for (size_t count : counts) {
      std::vector<int8_t> cols(count * m);
      for (int8_t& q : cols) q = static_cast<int8_t>(uniform(kMaxAbsInt8Entry));
      for (Level level : kAllLevels) {
        ScopedSimdLevel scoped(level);
        std::vector<int32_t> out(count);
        ScreenColumns(cols.data(), m, count, r.data(), out.data());
        for (size_t j = 0; j < count; ++j) {
          ASSERT_EQ(out[j], ReferenceScreenDot(cols.data() + j * m, r.data(), m))
              << "m=" << m << " count=" << count << " j=" << j
              << " level=" << LevelName(ActiveLevel());
        }
      }
    }
  }
}

// The generator kernel: portable == AVX2 bit for bit, as double and as
// int8, and both equal CounterGaussian::At (through QuantizeEntry for the
// int8 form). Odd counts end on half a pair; counts above 8 reach the scalar
// tail after the 8-position AVX2 groups.
TEST(SimdTest, GaussianFillIsBitIdenticalAcrossLevels) {
  // 1…33 reach the 16-entry AVX-512 body, the 8-entry AVX2 rest, the scalar
  // tail and the odd count's half pair in every combination; 511…513 cross
  // the int8 form's 256-entry block.
  std::vector<size_t> counts;
  for (size_t n = 1; n <= 33; ++n) counts.push_back(n);
  for (size_t n : {size_t{511}, size_t{512}, size_t{513}}) counts.push_back(n);
  const uint64_t seeds[] = {0, 5, 0x9e3779b97f4a7c15ULL, ~uint64_t{0}};
  for (uint64_t seed : seeds) {
    const CounterGaussian gen(seed);
    for (size_t n : counts) {
      const std::vector<uint64_t> keys = CounterGaussian::Keys(n);
      ASSERT_EQ(keys.size(), n + (n & 1));
      std::vector<double> at(n);
      for (size_t i = 0; i < n; ++i) at[i] = gen.At(i);
      for (Level level : kAllLevels) {
        ScopedSimdLevel scoped(level);
        // One guard slot past the end catches a write beyond `count`.
        std::vector<double> wide(n + 1, 7.0);
        std::vector<int8_t> narrow(n + 1, 7);
        GaussianFill(seed, keys.data(), n, wide.data());
        GaussianFill(seed, keys.data(), n, narrow.data());
        EXPECT_EQ(wide[n], 7.0);
        EXPECT_EQ(narrow[n], 7);
        wide.pop_back();
        EXPECT_EQ(Bits(wide), Bits(at))
            << "seed=" << seed << " n=" << n
            << " level=" << LevelName(ActiveLevel());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(narrow[i], QuantizeEntry(at[i]))
              << "seed=" << seed << " n=" << n << " i=" << i
              << " level=" << LevelName(ActiveLevel());
        }
      }
    }
  }
}

// SplitMix64^-1, so a test can choose the words the generator sees.
uint64_t UnXorShift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int i = 0; i < 64 / shift + 1; ++i) x = y ^ (x >> shift);
  return x;
}
uint64_t InverseOdd(uint64_t c) {
  uint64_t x = c;  // Newton: each step doubles the correct low bits.
  for (int i = 0; i < 6; ++i) x *= 2 - c * x;
  return x;
}
uint64_t InverseSplitMix64(uint64_t w) {
  uint64_t z = UnXorShift(w, 31) * InverseOdd(0x94d049bb133111ebULL);
  z = UnXorShift(z, 27) * InverseOdd(0xbf58476d1ce4e5b9ULL);
  return UnXorShift(z, 30) - 0x9e3779b97f4a7c15ULL;
}

// Edge words through both paths: u = 2^-53 and u = 1 (radius 0), the ends
// of every octant (angle cell 0 and the last cell, reflected in odd
// octants), and the √2 threshold of the log's range reduction.
TEST(SimdTest, GaussianFillEdgeWordsAreBitIdenticalAcrossLevels) {
  const uint64_t seed = 42;
  ASSERT_EQ(SplitMix64(InverseSplitMix64(0x0123456789abcdefULL)),
            0x0123456789abcdefULL);
  const uint64_t sqrt2_bits = std::bit_cast<uint64_t>(1.4142135623730951);
  const uint64_t radius_words[] = {
      0, ~uint64_t{0}, uint64_t{1} << 11, ~uint64_t{0} << 11,
      // u with mantissa just below, at and above √2.
      ((sqrt2_bits & 0x000fffffffffffffULL) - 1) << 11,
      (sqrt2_bits & 0x000fffffffffffffULL) << 11,
      ((sqrt2_bits & 0x000fffffffffffffULL) + 1) << 11,
      uint64_t{0x8000000000000000ULL}};
  std::vector<uint64_t> angle_words;
  for (uint64_t octant = 0; octant < 8; ++octant) {
    angle_words.push_back(octant << 61);
    angle_words.push_back((octant << 61) | ((uint64_t{1} << 61) - 1));
  }
  std::vector<uint64_t> keys;
  std::vector<double> expected;
  for (uint64_t w1 : radius_words) {
    for (uint64_t w2 : angle_words) {
      keys.push_back(InverseSplitMix64(w1) ^ seed);
      keys.push_back(InverseSplitMix64(w2) ^ seed);
      double g0;
      double g1;
      box_muller::Pair(w1, w2, &g0, &g1);
      expected.push_back(g0);
      expected.push_back(g1);
      EXPECT_TRUE(std::isfinite(g0) && std::isfinite(g1));
      EXPECT_LE(std::fabs(g0), 8.6);
      EXPECT_LE(std::fabs(g1), 8.6);
    }
  }
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    std::vector<double> out(keys.size());
    GaussianFill(seed, keys.data(), keys.size(), out.data());
    EXPECT_EQ(Bits(out), Bits(expected)) << LevelName(ActiveLevel());
  }
}

// Φ0's rounding, clamp(roundeven(16·g), ±127), on every level and through
// the scalar QuantizeEntry: ties k + 1/2 go to the even neighbour, the clamp
// acts from |g| = 7.96875 (16·g = 127.5) on, and the largest variates the
// generator can draw, |g| ≈ 8.57 at u = 2^-53, store ±127. Nineteen values
// reach the vector groups and the scalar tail.
TEST(SimdTest, QuantizeRoundsTiesToEvenAndClampsOnEveryLevel) {
  const std::vector<std::pair<double, int>> cases = {
      {0.5 / 16, 0},       {1.5 / 16, 2},      {2.5 / 16, 2},
      {-0.5 / 16, 0},      {-1.5 / 16, -2},    {-2.5 / 16, -2},
      {126.5 / 16, 126},   {-126.5 / 16, -126}, {125.5 / 16, 126},
      {7.9, 126},          {7.96875, 127},     {-7.96875, -127},
      {7.97, 127},         {-7.97, -127},      {8.5717, 127},
      {-8.5717, -127},     {1e300, 127},       {-1e300, -127},
      {0.03124, 0}};
  std::vector<double> g;
  for (const auto& [value, want] : cases) {
    g.push_back(value);
    EXPECT_EQ(QuantizeEntry(value), want) << "g=" << value;
  }
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    std::vector<int8_t> out(g.size() + 1, 7);
    Quantize(g.data(), g.size(), out.data());
    EXPECT_EQ(out.back(), 7);
    for (size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(out[i], cases[i].second)
          << "g=" << g[i] << " level=" << LevelName(ActiveLevel());
    }
    // Exact-length buffers 0…17, each starting at a different case, reach
    // the 8-wide vector groups and the scalar tail, and let a sanitizer see
    // any read or write past the end.
    for (size_t n = 0; n <= 17; ++n) {
      std::vector<double> in(n);
      std::vector<int8_t> exact(n);
      for (size_t i = 0; i < n; ++i) in[i] = g[(i + n) % g.size()];
      Quantize(in.data(), n, exact.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(exact[i], QuantizeEntry(in[i]))
            << "n=" << n << " i=" << i
            << " level=" << LevelName(ActiveLevel());
      }
    }
  }

  // u = 2^-53 (w1 >> 11 == 0) with an angle next to an axis in each octant.
  const uint64_t seed = 7;
  const uint64_t last_cell = (uint64_t{1} << 61) - 1;
  std::vector<uint64_t> keys;
  for (uint64_t octant = 0; octant < 8; ++octant) {
    for (uint64_t cell : {uint64_t{0}, last_cell}) {
      keys.push_back(InverseSplitMix64(0) ^ seed);
      keys.push_back(InverseSplitMix64((octant << 61) | cell) ^ seed);
    }
  }
  for (Level level : kAllLevels) {
    ScopedSimdLevel scoped(level);
    std::vector<int8_t> out(keys.size());
    GaussianFill(seed, keys.data(), keys.size(), out.data());
    int largest = 0;
    for (int8_t q : out) largest = std::max(largest, std::abs(int{q}));
    EXPECT_EQ(largest, kMaxAbsInt8Entry) << LevelName(ActiveLevel());
  }
}

TEST(SimdTest, SetLevelForTestingRoundTrips) {
  const Level original = ActiveLevel();
  const Level previous = SetLevelForTesting(Level::kPortable);
  EXPECT_EQ(previous, original);
  EXPECT_EQ(ActiveLevel(), Level::kPortable);
  SetLevelForTesting(original);
  EXPECT_EQ(ActiveLevel(), original);
}

// Every request clamps to the best level the host supports.
TEST(SimdTest, Avx2RequestClampsToPortableWhenUnsupported) {
  const Level original = ActiveLevel();
  for (Level level : kAllLevels) {
    SetLevelForTesting(level);
    EXPECT_EQ(ActiveLevel(), std::min(level, SupportedLevel()))
        << LevelName(level);
  }
  SetLevelForTesting(original);
}

TEST(SimdTest, LevelNames) {
  EXPECT_STREQ(LevelName(Level::kPortable), "portable");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
  EXPECT_STREQ(LevelName(Level::kAvx512), "avx512");
}

}  // namespace
}  // namespace csod::simd
