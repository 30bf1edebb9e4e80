#include "common/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/half.h"
#include "common/random.h"
#include "cs/measurement_matrix.h"

namespace csod::simd {
namespace {

// Restores the dispatch level a test overrode, even on assertion failure.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : previous_(SetLevelForTesting(level)) {}
  ~ScopedLevel() { SetLevelForTesting(previous_); }

 private:
  Level previous_;
};

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
    for (Level level : {Level::kPortable, Level::kAvx2}) {
      ScopedLevel scoped(level);
      EXPECT_EQ(Dot(a.data(), b.data(), n),
                ReferenceLaneDot(a.data(), b.data(), n))
          << "n=" << n << " level=" << LevelName(ActiveLevel());
    }
  }
}

TEST(SimdTest, Avx2AndPortableAreBitIdentical) {
  if (!Avx2Supported()) GTEST_SKIP() << "CPU lacks AVX2";
  for (size_t n : kSizes) {
    const auto a = RandomVector(n, 5);
    const auto b = RandomVector(n, 6);
    const auto c = RandomVector(n, 7);
    const auto d = RandomVector(n, 8);
    const auto r = RandomVector(n, 9);

    double portable_dot, avx2_dot;
    double portable_dot4[4], avx2_dot4[4];
    std::vector<double> portable_axpy, avx2_axpy;
    std::vector<double> portable_axpy4, avx2_axpy4;
    std::vector<double> portable_add4, avx2_add4;
    auto run_all = [&](double* dot, double dot4[4], std::vector<double>* axpy,
                       std::vector<double>* axpy4, std::vector<double>* add4) {
      *dot = Dot(a.data(), r.data(), n);
      Dot4(a.data(), b.data(), c.data(), d.data(), r.data(), n, dot4);
      *axpy = RandomVector(n, 33);
      Axpy(axpy->data(), a.data(), 1.7, n);
      Scale(axpy->data(), 0.3, n);
      Add(axpy->data(), b.data(), n);
      *axpy4 = RandomVector(n, 44);
      Axpy4(axpy4->data(), a.data(), 0.5, b.data(), -1.25, c.data(), 2.0,
            d.data(), -0.75, n);
      const double* cols8[8] = {a.data(), b.data(), c.data(), d.data(),
                                r.data(), a.data(), b.data(), c.data()};
      const double xs8[8] = {1.0, -2.0, 0.5, 3.0, -0.125, 2.25, -1.0, 0.75};
      Axpy8(axpy4->data(), cols8, xs8, n);
      *add4 = RandomVector(n, 55);
      Add4(add4->data(), a.data(), b.data(), c.data(), d.data(), n);
    };
    {
      ScopedLevel scoped(Level::kPortable);
      run_all(&portable_dot, portable_dot4, &portable_axpy, &portable_axpy4,
              &portable_add4);
    }
    {
      ScopedLevel scoped(Level::kAvx2);
      ASSERT_EQ(ActiveLevel(), Level::kAvx2);
      run_all(&avx2_dot, avx2_dot4, &avx2_axpy, &avx2_axpy4, &avx2_add4);
    }
    EXPECT_EQ(portable_dot, avx2_dot) << "n=" << n;
    for (size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(portable_dot4[k], avx2_dot4[k]) << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(portable_axpy, avx2_axpy) << "n=" << n;
    EXPECT_EQ(portable_axpy4, avx2_axpy4) << "n=" << n;
    EXPECT_EQ(portable_add4, avx2_add4) << "n=" << n;
  }
}

TEST(SimdTest, FusedVariantsMatchSequentialCallsBitwise) {
  for (Level level : {Level::kPortable, Level::kAvx2}) {
    ScopedLevel scoped(level);
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
  for (Level level : {Level::kPortable, Level::kAvx2}) {
    ScopedLevel scoped(level);
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

// n half-rounded Gaussians, followed by `guard` NaN halves: a kernel that
// read past element n - 1 would fold a NaN into its result.
std::vector<Half> RandomHalves(size_t n, uint64_t seed, size_t guard = 0) {
  std::vector<Half> v(n + guard, Half{0x7e00});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    v[i] = FloatToHalf(static_cast<float>(rng.NextGaussian()));
  }
  return v;
}

std::vector<double> Widened(const std::vector<Half>& v, size_t n) {
  std::vector<double> wide(n);
  for (size_t i = 0; i < n; ++i) wide[i] = double(HalfToFloat(v[i]));
  return wide;
}

// Every kernel that reads a half column, run once at the active level.
struct ColumnKernelOutputs {
  double dot = 0.0;
  double dot4[4] = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> axpy, axpy4, axpy8, add, add4;

  // Bitwise, so a NaN from an over-read never compares equal.
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

// Runs the half-column kernels over columns `c` (eight, each n halves plus
// guards) and residual `r`, or, with `widen`, the double kernels over the
// same columns widened to double.
ColumnKernelOutputs RunColumnKernels(const std::vector<std::vector<Half>>& c,
                                     const std::vector<double>& r, size_t n,
                                     bool widen) {
  std::vector<std::vector<double>> wide;
  for (const auto& col : c) wide.push_back(Widened(col, n));
  const double xs[8] = {1.0, -2.0, 0.5, 3.0, -0.125, 2.25, -1.0, 0.75};
  ColumnKernelOutputs out;
  out.axpy = out.axpy4 = out.axpy8 = out.add = out.add4 = RandomVector(n, 77);
  if (widen) {
    out.dot = Dot(wide[0].data(), r.data(), n);
    Dot4(wide[0].data(), wide[1].data(), wide[2].data(), wide[3].data(),
         r.data(), n, out.dot4);
    Axpy(out.axpy.data(), wide[0].data(), 1.7, n);
    Axpy4(out.axpy4.data(), wide[0].data(), xs[0], wide[1].data(), xs[1],
          wide[2].data(), xs[2], wide[3].data(), xs[3], n);
    const double* cols[8];
    for (size_t k = 0; k < 8; ++k) cols[k] = wide[k].data();
    Axpy8(out.axpy8.data(), cols, xs, n);
    Add(out.add.data(), wide[0].data(), n);
    Add4(out.add4.data(), wide[0].data(), wide[1].data(), wide[2].data(),
         wide[3].data(), n);
  } else {
    out.dot = Dot(c[0].data(), r.data(), n);
    Dot4(c[0].data(), c[1].data(), c[2].data(), c[3].data(), r.data(), n,
         out.dot4);
    Axpy(out.axpy.data(), c[0].data(), 1.7, n);
    Axpy4(out.axpy4.data(), c[0].data(), xs[0], c[1].data(), xs[1],
          c[2].data(), xs[2], c[3].data(), xs[3], n);
    const Half* cols[8];
    for (size_t k = 0; k < 8; ++k) cols[k] = c[k].data();
    Axpy8(out.axpy8.data(), cols, xs, n);
    Add(out.add.data(), c[0].data(), n);
    Add4(out.add4.data(), c[0].data(), c[1].data(), c[2].data(),
         c[3].data(), n);
  }
  return out;
}

// Half columns: portable == AVX2, and each half overload == its double form
// on the widened column, bit for bit. The sizes cover every tail length of
// the 4-wide loads and the 8-lane tree, and a column of M = 256 with its
// neighbours. Each column is followed by eight NaN halves, so a read past
// element n - 1 shows as a mismatch even without AddressSanitizer.
TEST(SimdTest, HalfColumnKernelsAreBitIdenticalAcrossLevels) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}}) sizes.push_back(n);
  for (size_t n : sizes) {
    std::vector<std::vector<Half>> cols;
    for (uint64_t k = 0; k < 8; ++k) {
      cols.push_back(RandomHalves(n, 100 + k, /*guard=*/8));
    }
    const auto r = RandomVector(n, 99);
    ColumnKernelOutputs portable;
    {
      ScopedLevel scoped(Level::kPortable);
      portable = RunColumnKernels(cols, r, n, /*widen=*/false);
      EXPECT_TRUE(portable == RunColumnKernels(cols, r, n, /*widen=*/true))
          << "n=" << n << " half != widened double (portable)";
    }
    if (!Avx2Supported()) continue;
    ScopedLevel scoped(Level::kAvx2);
    const ColumnKernelOutputs avx2 = RunColumnKernels(cols, r, n, false);
    EXPECT_TRUE(avx2 == portable) << "n=" << n << " avx2 != portable";
    EXPECT_TRUE(avx2 == RunColumnKernels(cols, r, n, /*widen=*/true))
        << "n=" << n << " half != widened double (avx2)";
  }
}

// The screen dots' tree, written out longhand in float: lane l sums
// HalfToFloat(a[i]) * b[i] for i ≡ l (mod 8); lanes fold pairwise.
float ReferenceFloatLaneDot(const Half* a, const float* b, size_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) lane[i % 8] += HalfToFloat(a[i]) * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// The half × float screen dots: Dot and each Dot4 output equal the float
// lane tree bit for bit on both levels. Sizes and NaN guards as above; a
// residual with a zero and a subnormal entry rides along.
TEST(SimdTest, ScreenDotsMatchTheFloatLaneSplitOnEveryLevel) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}}) sizes.push_back(n);
  for (size_t n : sizes) {
    std::vector<std::vector<Half>> cols;
    for (uint64_t k = 0; k < 4; ++k) {
      cols.push_back(RandomHalves(n, 200 + k, /*guard=*/8));
    }
    std::vector<float> r(n);
    const auto wide_r = RandomVector(n, 299);
    for (size_t i = 0; i < n; ++i) r[i] = static_cast<float>(wide_r[i]);
    if (n > 3) {
      r[1] = 0.0f;
      r[3] = 1e-40f;
    }
    for (Level level : {Level::kPortable, Level::kAvx2}) {
      ScopedLevel scoped(level);
      float dot4[4];
      Dot4(cols[0].data(), cols[1].data(), cols[2].data(), cols[3].data(),
           r.data(), n, dot4);
      for (size_t k = 0; k < 4; ++k) {
        const float want = ReferenceFloatLaneDot(cols[k].data(), r.data(), n);
        EXPECT_EQ(std::bit_cast<uint32_t>(Dot(cols[k].data(), r.data(), n)),
                  std::bit_cast<uint32_t>(want))
            << "n=" << n << " k=" << k << " level=" << LevelName(level);
        EXPECT_EQ(std::bit_cast<uint32_t>(dot4[k]),
                  std::bit_cast<uint32_t>(want))
            << "n=" << n << " k=" << k << " level=" << LevelName(level);
      }
    }
  }
}

// Bit patterns of a double vector, so a comparison also tells -0.0 from 0.0
// and reports the differing position.
std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits;
  for (double x : v) bits.push_back(std::bit_cast<uint64_t>(x));
  return bits;
}

// The generator kernel: portable == AVX2 bit for bit, as double and as
// half, and both equal CounterGaussian::At (rounded to float, then to half,
// for the half form). Odd counts end on half a pair; counts above 8 reach the scalar tail
// after the 8-position AVX2 groups.
TEST(SimdTest, GaussianFillIsBitIdenticalAcrossLevels) {
  std::vector<size_t> counts;
  for (size_t n = 1; n <= 17; ++n) counts.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}}) counts.push_back(n);
  const uint64_t seeds[] = {0, 5, 0x9e3779b97f4a7c15ULL, ~uint64_t{0}};
  for (uint64_t seed : seeds) {
    const CounterGaussian gen(seed);
    for (size_t n : counts) {
      const std::vector<uint64_t> keys = CounterGaussian::Keys(n);
      ASSERT_EQ(keys.size(), n + (n & 1));
      std::vector<double> at(n);
      for (size_t i = 0; i < n; ++i) at[i] = gen.At(i);
      for (Level level : {Level::kPortable, Level::kAvx2}) {
        ScopedLevel scoped(level);
        // One guard slot past the end catches a write beyond `count`.
        std::vector<double> wide(n + 1, 7.0);
        std::vector<Half> narrow(n + 1, Half{0x4700});  // 7.0
        GaussianFill(seed, keys.data(), n, wide.data());
        GaussianFill(seed, keys.data(), n, narrow.data());
        EXPECT_EQ(wide[n], 7.0);
        EXPECT_EQ(narrow[n].bits, 0x4700);
        wide.pop_back();
        EXPECT_EQ(Bits(wide), Bits(at))
            << "seed=" << seed << " n=" << n
            << " level=" << LevelName(ActiveLevel());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(narrow[i].bits,
                    FloatToHalf(static_cast<float>(at[i])).bits)
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
  for (Level level : {Level::kPortable, Level::kAvx2}) {
    ScopedLevel scoped(level);
    std::vector<double> out(keys.size());
    GaussianFill(seed, keys.data(), keys.size(), out.data());
    EXPECT_EQ(Bits(out), Bits(expected)) << LevelName(ActiveLevel());
  }
}

// The entry bound B that CorrelateArgmax's screen rests on. |g| is largest
// where the radius is: u = 2^-53, i.e. w1 >> 11 == 0, with an angle in the
// cell next to an axis, where |cos θ| or |sin θ| computes to exactly 1:
// cell 0 of an even octant, the last (reflected) cell of an odd one, so
// each octant has one such cell and the sign covers ±. The next radius, at u = 2^-52, is √(104·ln 2) ≈
// 8.49. Every such word, on both levels, stores a half of magnitude at most
// B, and the largest attains it.
TEST(SimdTest, NoHalfEntryExceedsTheScreenBound) {
  const double bound = cs::MeasurementMatrix::kMaxAbsUnscaledEntry;
  // B is the half nearest √(106·ln 2), and g's float sits below the
  // midpoint to the next half up by far more than the generator's error.
  const double r_max = std::sqrt(-2.0 * box_muller::LogOpenUnit(0));
  EXPECT_NEAR(r_max, std::sqrt(106.0 * std::log(2.0)), 1e-12);
  EXPECT_EQ(double(HalfToFloat(FloatToHalf(static_cast<float>(r_max)))),
            bound);
  EXPECT_LT(static_cast<float>(r_max), 8.57421875f - 0.002f);
  EXPECT_LT(std::sqrt(-2.0 * box_muller::LogOpenUnit(uint64_t{1} << 11)),
            8.5);

  const uint64_t seed = 7;
  const uint64_t radius_words[] = {0, (uint64_t{1} << 11) - 1,
                                   uint64_t{1} << 11};
  const uint64_t last_cell = (uint64_t{1} << 61) - 1;
  std::vector<uint64_t> keys;
  for (uint64_t w1 : radius_words) {
    for (uint64_t octant = 0; octant < 8; ++octant) {
      for (uint64_t cell : {uint64_t{0}, last_cell}) {
        keys.push_back(InverseSplitMix64(w1) ^ seed);
        keys.push_back(InverseSplitMix64((octant << 61) | cell) ^ seed);
      }
    }
  }
  for (Level level : {Level::kPortable, Level::kAvx2}) {
    ScopedLevel scoped(level);
    std::vector<Half> out(keys.size());
    GaussianFill(seed, keys.data(), keys.size(), out.data());
    double largest = 0.0;
    for (Half h : out) {
      const double v = std::fabs(double(HalfToFloat(h)));
      EXPECT_LE(v, bound) << LevelName(ActiveLevel());
      largest = std::max(largest, v);
    }
    EXPECT_EQ(largest, bound) << LevelName(ActiveLevel());
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

TEST(SimdTest, Avx2RequestClampsToPortableWhenUnsupported) {
  const Level original = ActiveLevel();
  SetLevelForTesting(Level::kAvx2);
  if (Avx2Supported()) {
    EXPECT_EQ(ActiveLevel(), Level::kAvx2);
  } else {
    EXPECT_EQ(ActiveLevel(), Level::kPortable);
  }
  SetLevelForTesting(original);
}

CpuFeatures CpuWithoutF16c() { return CpuFeatures{true, false}; }
CpuFeatures CpuWithoutAvx2() { return CpuFeatures{false, true}; }
CpuFeatures CpuWithBoth() { return CpuFeatures{true, true}; }

// The half kernels need F16C beside AVX2: a CPU (or a VM) that masks either
// bit must get the portable level, not a SIGILL. The probe is stubbed, so
// this runs on any host; no kernel runs while it is.
TEST(SimdTest, Avx2LevelNeedsBothAvx2AndF16c) {
  const Level original = ActiveLevel();
  for (CpuProbe probe : {&CpuWithoutF16c, &CpuWithoutAvx2}) {
    EXPECT_EQ(SetCpuProbeForTesting(probe), nullptr);
    EXPECT_FALSE(Avx2Supported());
    SetLevelForTesting(Level::kAvx2);
    EXPECT_EQ(ActiveLevel(), Level::kPortable);
    SetCpuProbeForTesting(nullptr);
  }
  SetCpuProbeForTesting(&CpuWithBoth);
  EXPECT_TRUE(Avx2Supported());
  EXPECT_EQ(SetCpuProbeForTesting(nullptr), &CpuWithBoth);
  SetLevelForTesting(original);
  EXPECT_EQ(ActiveLevel(), original);
}

TEST(SimdTest, LevelNames) {
  EXPECT_STREQ(LevelName(Level::kPortable), "portable");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

}  // namespace
}  // namespace csod::simd
