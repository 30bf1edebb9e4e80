#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/grid.h"

namespace csod {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UnitDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BoundedInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(CounterGaussianTest, PureFunctionOfSeedAndIndex) {
  CounterGaussian g1(99);
  CounterGaussian g2(99);
  // Any evaluation order yields the same values.
  const double a = g1.At(5);
  const double b = g1.At(0);
  EXPECT_EQ(g2.At(0), b);
  EXPECT_EQ(g2.At(5), a);
}

TEST(CounterGaussianTest, DistinctSeedsDecorrelated) {
  CounterGaussian g1(1);
  CounterGaussian g2(2);
  double dot = 0.0;
  double n1 = 0.0;
  double n2 = 0.0;
  for (uint64_t i = 0; i < 5000; ++i) {
    const double a = g1.At(i);
    const double b = g2.At(i);
    dot += a * b;
    n1 += a * a;
    n2 += b * b;
  }
  EXPECT_LT(std::fabs(dot) / std::sqrt(n1 * n2), 0.05);
}

TEST(CounterGaussianTest, FillMatchesAt) {
  CounterGaussian gen(4242);
  for (uint64_t count : {0u, 1u, 2u, 7u, 64u, 101u}) {
    std::vector<double> bulk(count);
    gen.Fill(count, bulk.data());
    for (uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(bulk[i], gen.At(i)) << "count=" << count << " i=" << i;
    }
  }
}

TEST(CounterGaussianTest, Moments) {
  CounterGaussian g(31337);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = g.At(static_cast<uint64_t>(i));
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

// Φ0 formats 3 to 5 pin these bits: they are the same on every host,
// compiler and libm, because box_muller:: uses only IEEE-exact operations.
// Format 5 stores them as the int8 sixteenths `golden_q`
// (roundeven(16·g), checked by hand against the doubles above them). A
// change here is a change of Φ0's format (cs::kPhi0Format).
TEST(CounterGaussianTest, GoldenBits) {
  const uint64_t golden[8] = {
      0xbfe2fd94a9e55b56ULL, 0xbff91a411eefa238ULL, 0x3fd6fb1127765cb3ULL,
      0xbfef31c4bdb10df0ULL, 0x3fcc52f10681f7d3ULL, 0xbfcbbf3e552c1c8bULL,
      0xbff6eb3c331f1323ULL, 0xbfd3fd86d36f4ce7ULL};
  const int8_t golden_q[8] = {-9, -25, 6, -16, 4, -3, -23, -5};
  const CounterGaussian gen(5);
  int8_t stored[8];
  gen.Fill(8, stored);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(gen.At(i)), golden[i])
        << "i=" << i << " got " << std::hexfloat << gen.At(i);
    EXPECT_EQ(stored[i], golden_q[i]) << "i=" << i;
  }
}

TEST(RngTest, GaussianGoldenBits) {
  const uint64_t golden[8] = {
      0x3f9475672662cd21ULL, 0xbff60d254767f6afULL, 0x3ff62b9459d21a72ULL,
      0x3fefef54eeef0d8dULL, 0xbff566ea97fa98a2ULL, 0x3ff3f1bcfabc02f8ULL,
      0xbfc5c69e2060921cULL, 0xbf88579ffbfdd715ULL};
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const double g = rng.NextGaussian();
    EXPECT_EQ(std::bit_cast<uint64_t>(g), golden[i])
        << "i=" << i << " got " << std::hexfloat << g;
  }
}

// Kolmogorov–Smirnov distance of `sample` (sorted in place) from N(0, 1).
double KsDistance(std::vector<double>* sample) {
  std::sort(sample->begin(), sample->end());
  const double n = static_cast<double>(sample->size());
  double d = 0.0;
  for (size_t i = 0; i < sample->size(); ++i) {
    const double cdf = 0.5 * std::erfc(-(*sample)[i] / std::sqrt(2.0));
    d = std::max(d, std::max(double(i + 1) / n - cdf, cdf - double(i) / n));
  }
  return d;
}

// Sample moments against N(0, 1): each tolerance is about five standard
// errors at n = 10^6.
void ExpectStandardNormalMoments(const std::vector<double>& sample) {
  const double n = static_cast<double>(sample.size());
  double m1 = 0.0, m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double x : sample) {
    m1 += x;
    m2 += x * x;
    m3 += x * x * x;
    m4 += x * x * x * x;
  }
  EXPECT_NEAR(m1 / n, 0.0, 0.005);
  EXPECT_NEAR(m2 / n, 1.0, 0.007);
  EXPECT_NEAR(m3 / n, 0.0, 0.012);
  EXPECT_NEAR(m4 / n, 3.0, 0.05);
}

// 10^6 variates from each generator pass KS at the 1% level
// (D <= 1.63/√n) and match the first four moments.
TEST(CounterGaussianTest, KolmogorovSmirnovAndMoments) {
  constexpr size_t kN = 1000000;
  std::vector<double> counter(kN);
  CounterGaussian(2024).Fill(kN, counter.data());
  ExpectStandardNormalMoments(counter);
  EXPECT_LE(KsDistance(&counter), 1.63 / std::sqrt(double(kN)));

  std::vector<double> stream(kN);
  Rng rng(2024);
  for (double& x : stream) x = rng.NextGaussian();
  ExpectStandardNormalMoments(stream);
  EXPECT_LE(KsDistance(&stream), 1.63 / std::sqrt(double(kN)));
}

// The polynomial Box–Muller against the libm transform of the same draw:
// r = sqrt(-2 ln u) and θ = (o + (2t + 1)·2^-53)·π/4 (box_muller::Pair's
// documented mapping), evaluated in long double. The gap stays within
// 4 ulp of max(r, 1); 2·10^6 draws measured 1.96.
TEST(BoxMullerTest, MatchesTheLibmTransformOfTheSameDraw) {
  Rng rng(77);
  double worst = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t w1 = rng.NextU64();
    const uint64_t w2 = rng.NextU64();
    double g0;
    double g1;
    box_muller::Pair(w1, w2, &g0, &g1);
    const double u = ToOpenUnitDouble(w1);
    const double radius = std::sqrt(-2.0 * std::log(u));
    const long double turn =
        (static_cast<long double>(w2 >> 61) +
         static_cast<long double>((((w2 << 3) >> 12) << 1) | 1) * 0x1p-53L) /
        8.0L;
    const long double theta = 2.0L * 3.14159265358979323846264338327950L * turn;
    const double c = static_cast<double>(std::cos(theta));
    const double s = static_cast<double>(std::sin(theta));
    const double scale = std::max(radius, 1.0) * 0x1p-52;
    worst = std::max(worst, std::fabs(g0 - radius * c) / scale);
    worst = std::max(worst, std::fabs(g1 - radius * s) / scale);
  }
  EXPECT_LT(worst, 4.0) << "worst gap in ulps of max(r, 1)";
}

TEST(UnitDoubleTest, Ranges) {
  EXPECT_EQ(ToUnitDouble(0), 0.0);
  EXPECT_LT(ToUnitDouble(~uint64_t{0}), 1.0);
  EXPECT_GT(ToOpenUnitDouble(0), 0.0);
  EXPECT_LE(ToOpenUnitDouble(~uint64_t{0}), 1.0);
}

TEST(HashTest, SplitMix64IsDeterministicAndMixing) {
  EXPECT_EQ(SplitMix64(0), SplitMix64(0));
  EXPECT_NE(SplitMix64(0), SplitMix64(1));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(GridTest, QuantizationIsIdempotent) {
  const double v = QuantizeToGrid(1234.56789);
  EXPECT_EQ(QuantizeToGrid(v), v);
}

TEST(GridTest, GridSumsAreExact) {
  // Sums of grid multiples below 2^37 are exact in any order.
  Rng rng(5);
  std::vector<double> shares;
  double total = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double s = QuantizeToGrid(rng.NextDouble() * 1000.0 - 500.0);
    shares.push_back(s);
    total += s;
  }
  double reverse_total = 0.0;
  for (auto it = shares.rbegin(); it != shares.rend(); ++it) {
    reverse_total += *it;
  }
  EXPECT_EQ(total, reverse_total);
}

}  // namespace
}  // namespace csod
