#include "common/simd.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

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

std::vector<float> RandomFloats(size_t n, uint64_t seed) {
  std::vector<float> v(n);
  Rng rng(seed);
  for (float& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

std::vector<double> Widened(const std::vector<float>& v) {
  return std::vector<double>(v.begin(), v.end());
}

// Every kernel that reads a float column, run once at the active level.
struct FloatKernelOutputs {
  double dot = 0.0;
  double dot4[4] = {0.0, 0.0, 0.0, 0.0};
  std::vector<double> axpy, axpy4, axpy8, add, add4;

  bool operator==(const FloatKernelOutputs& o) const {
    for (size_t k = 0; k < 4; ++k) {
      if (dot4[k] != o.dot4[k]) return false;
    }
    return dot == o.dot && axpy == o.axpy && axpy4 == o.axpy4 &&
           axpy8 == o.axpy8 && add == o.add && add4 == o.add4;
  }
};

// Runs the float-column kernels over columns `c` (eight of length n) and
// residual `r`, or, with `widen`, the double kernels over the same columns
// widened to double.
FloatKernelOutputs RunColumnKernels(const std::vector<std::vector<float>>& c,
                                    const std::vector<double>& r, size_t n,
                                    bool widen) {
  std::vector<std::vector<double>> wide;
  for (const auto& col : c) wide.push_back(Widened(col));
  const double xs[8] = {1.0, -2.0, 0.5, 3.0, -0.125, 2.25, -1.0, 0.75};
  FloatKernelOutputs out;
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
    const float* cols[8];
    for (size_t k = 0; k < 8; ++k) cols[k] = c[k].data();
    Axpy8(out.axpy8.data(), cols, xs, n);
    Add(out.add.data(), c[0].data(), n);
    Add4(out.add4.data(), c[0].data(), c[1].data(), c[2].data(),
         c[3].data(), n);
  }
  return out;
}

// Float columns: portable == AVX2, and each float overload == its double
// form on the widened column, bit for bit. The sizes cover every tail
// length of the 4-wide loads and the 8-lane tree, and a column of M = 256
// with its neighbours.
TEST(SimdTest, FloatColumnKernelsAreBitIdenticalAcrossLevels) {
  std::vector<size_t> sizes;
  for (size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {size_t{255}, size_t{256}, size_t{257}}) sizes.push_back(n);
  for (size_t n : sizes) {
    std::vector<std::vector<float>> cols;
    for (uint64_t k = 0; k < 8; ++k) cols.push_back(RandomFloats(n, 100 + k));
    const auto r = RandomVector(n, 99);
    FloatKernelOutputs portable;
    {
      ScopedLevel scoped(Level::kPortable);
      portable = RunColumnKernels(cols, r, n, /*widen=*/false);
      EXPECT_TRUE(portable == RunColumnKernels(cols, r, n, /*widen=*/true))
          << "n=" << n << " float != widened double (portable)";
    }
    if (!Avx2Supported()) continue;
    ScopedLevel scoped(Level::kAvx2);
    const FloatKernelOutputs avx2 = RunColumnKernels(cols, r, n, false);
    EXPECT_TRUE(avx2 == portable) << "n=" << n << " avx2 != portable";
    EXPECT_TRUE(avx2 == RunColumnKernels(cols, r, n, /*widen=*/true))
        << "n=" << n << " float != widened double (avx2)";
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

TEST(SimdTest, LevelNames) {
  EXPECT_STREQ(LevelName(Level::kPortable), "portable");
  EXPECT_STREQ(LevelName(Level::kAvx2), "avx2");
}

}  // namespace
}  // namespace csod::simd
