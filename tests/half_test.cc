#include "common/half.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "common/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#define CSOD_HALF_TEST_X86 1
#include <immintrin.h>
#else
#define CSOD_HALF_TEST_X86 0
#endif

namespace csod {
namespace {

#if CSOD_HALF_TEST_X86
// The F16C conversions the AVX2 kernels use, eight at a time.
__attribute__((target("avx,f16c"))) void F16cFloatToHalf8(const uint32_t* in,
                                                          uint16_t* out) {
  const __m256 x = _mm256_loadu_ps(reinterpret_cast<const float*>(in));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out),
                   _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
}

__attribute__((target("avx,f16c"))) void F16cHalfToFloat8(const uint16_t* in,
                                                          uint32_t* out) {
  const __m256 x =
      _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in)));
  _mm256_storeu_ps(reinterpret_cast<float*>(out), x);
}
#endif

// True when the F16C path can run here (simd's kAvx2 level needs it too).
bool HasF16c() { return CSOD_HALF_TEST_X86 && simd::Avx2Supported(); }

uint16_t ToHalfBits(float x) { return FloatToHalf(x).bits; }

uint32_t ToFloatBits(uint16_t h) {
  return std::bit_cast<uint32_t>(HalfToFloat(Half{h}));
}

// Φ0's Gaussian stays inside |g| ≤ 8.6 (BoxMullerTest), so every float it
// can round is one of these: the portable rounding must give the F16C bits
// on each of them, both signs.
TEST(HalfTest, FloatToHalfMatchesF16cOnEveryFloatUpTo16) {
  if (!HasF16c()) GTEST_SKIP() << "no F16C on this CPU";
#if CSOD_HALF_TEST_X86
  const uint32_t last = std::bit_cast<uint32_t>(16.0f);
  uint64_t mismatches = 0;
  uint32_t in[8];
  uint16_t hw[8];
  for (uint64_t base = 0; base <= last; base += 4) {
    for (uint32_t k = 0; k < 4; ++k) {
      in[k] = static_cast<uint32_t>(base) + k;
      in[k + 4] = in[k] | 0x80000000u;
    }
    F16cFloatToHalf8(in, hw);
    for (uint32_t k = 0; k < 8; ++k) {
      if (in[k % 4] > last) continue;
      if (ToHalfBits(std::bit_cast<float>(in[k])) != hw[k] &&
          mismatches++ < 5) {
        ADD_FAILURE() << std::hex << "float bits 0x" << in[k] << ": 0x"
                      << ToHalfBits(std::bit_cast<float>(in[k]))
                      << " vs F16C 0x" << hw[k];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
#endif
}

// Outside |x| ≤ 16 (overflow, inf, NaN) the two agree too, on a stride
// through every exponent.
TEST(HalfTest, FloatToHalfMatchesF16cAcrossTheWholeRange) {
  if (!HasF16c()) GTEST_SKIP() << "no F16C on this CPU";
#if CSOD_HALF_TEST_X86
  uint32_t in[8];
  uint16_t hw[8];
  for (uint64_t base = 0; base <= 0xffffffffu; base += 8 * 4099) {
    for (uint32_t k = 0; k < 8; ++k) {
      in[k] = static_cast<uint32_t>(base + k * 4099) ^ (k << 28);
    }
    F16cFloatToHalf8(in, hw);
    for (uint32_t k = 0; k < 8; ++k) {
      ASSERT_EQ(ToHalfBits(std::bit_cast<float>(in[k])), hw[k])
          << std::hex << "float bits 0x" << in[k];
    }
  }
#endif
}

TEST(HalfTest, SignedZerosAndInfinities) {
  EXPECT_EQ(ToHalfBits(0.0f), 0x0000);
  EXPECT_EQ(ToHalfBits(-0.0f), 0x8000);
  EXPECT_EQ(ToFloatBits(0x0000), std::bit_cast<uint32_t>(0.0f));
  EXPECT_EQ(ToFloatBits(0x8000), std::bit_cast<uint32_t>(-0.0f));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(ToHalfBits(inf), 0x7c00);
  EXPECT_EQ(ToHalfBits(-inf), 0xfc00);
  EXPECT_EQ(ToHalfBits(65504.0f), 0x7bff);  // The largest half.
  EXPECT_EQ(ToHalfBits(std::nextafter(65520.0f, 0.0f)), 0x7bff);
  EXPECT_EQ(ToHalfBits(65520.0f), 0x7c00);  // The tie above it: to even, inf.
  EXPECT_EQ(ToHalfBits(-65520.0f), 0xfc00);
  EXPECT_TRUE(std::isnan(HalfToFloat(FloatToHalf(std::nanf("")))));
}

// Every tie between two neighbouring finite halves, both signs: the exact
// midpoint rounds to the one with an even last bit, and the floats just
// either side of it round to the nearer neighbour. The loop starts at the
// subnormals (below 2^-14 ≈ 6.1e-5), so their ties — including the one
// between 0 and the smallest subnormal, 2^-25 — are covered too.
TEST(HalfTest, EveryTieRoundsToEven) {
  for (uint16_t h = 0; h < 0x7bff; ++h) {
    for (uint16_t sign : {uint16_t{0}, uint16_t{0x8000}}) {
      const uint16_t lo = sign | h;
      const uint16_t hi = sign | static_cast<uint16_t>(h + 1);
      const float a = HalfToFloat(Half{lo});
      const float b = HalfToFloat(Half{hi});
      const float mid = (a + b) / 2;  // Exact: 12 significant bits.
      ASSERT_EQ(double(mid), (double(a) + double(b)) / 2);
      const uint16_t even = (lo & 1) == 0 ? lo : hi;
      ASSERT_EQ(ToHalfBits(mid), even) << std::hex << "tie above 0x" << lo;
      ASSERT_EQ(ToHalfBits(std::nextafter(mid, a)), lo) << std::hex << lo;
      ASSERT_EQ(ToHalfBits(std::nextafter(mid, b)), hi) << std::hex << lo;
    }
  }
}

// Below the smallest normal half (2^-14 ≈ 6.1e-5) the halves are the
// multiples of 2^-24; each is exact both ways, and anything under half of
// 2^-24 rounds to a signed zero.
TEST(HalfTest, SubnormalRange) {
  for (uint16_t h = 1; h < 0x400; ++h) {
    const float x = std::ldexp(float(h), -24);
    EXPECT_EQ(HalfToFloat(Half{h}), x) << h;
    EXPECT_EQ(ToHalfBits(x), h) << h;
    EXPECT_EQ(ToHalfBits(-x), 0x8000 | h) << h;
  }
  EXPECT_EQ(ToHalfBits(std::ldexp(1.0f, -14)), 0x0400);  // Smallest normal.
  EXPECT_EQ(ToHalfBits(std::nextafter(std::ldexp(1.0f, -14), 0.0f)), 0x0400);
  EXPECT_EQ(ToHalfBits(std::ldexp(1.0f, -25)), 0x0000);  // Tie to even: 0.
  EXPECT_EQ(ToHalfBits(std::nextafter(std::ldexp(1.0f, -25), 1.0f)), 0x0001);
  EXPECT_EQ(ToHalfBits(std::ldexp(1.0f, -26)), 0x0000);
  EXPECT_EQ(ToHalfBits(-std::ldexp(1.0f, -26)), 0x8000);
  EXPECT_EQ(ToHalfBits(std::numeric_limits<float>::denorm_min()), 0x0000);
}

// Every one of the 65,536 halves widens to its exact value (NaNs to a quiet
// NaN with the payload in place), and back to the same bits.
TEST(HalfTest, HalfToFloatIsExactForEveryBitPattern) {
  for (uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const int exponent = (h >> 10) & 0x1f;
    const int mantissa = h & 0x3ff;
    const double sign = (h & 0x8000) != 0 ? -1.0 : 1.0;
    const float x = HalfToFloat(Half{h});
    if (exponent == 0x1f && mantissa != 0) {
      ASSERT_TRUE(std::isnan(x)) << bits;
      EXPECT_EQ(ToFloatBits(h), ((h & 0x8000u) << 16) | 0x7fc00000u |
                                    (uint32_t(mantissa) << 13))
          << bits;
      continue;
    }
    const double value =
        exponent == 0x1f ? sign * std::numeric_limits<double>::infinity()
        : exponent == 0  ? sign * std::ldexp(double(mantissa), -24)
                         : sign * std::ldexp(double(1024 + mantissa),
                                             exponent - 25);
    ASSERT_EQ(double(x), value) << bits;
    ASSERT_EQ(std::signbit(x), (h & 0x8000) != 0) << bits;
    ASSERT_EQ(ToHalfBits(x), h) << bits;
  }
}

TEST(HalfTest, HalfToFloatMatchesF16cForEveryBitPattern) {
  if (!HasF16c()) GTEST_SKIP() << "no F16C on this CPU";
#if CSOD_HALF_TEST_X86
  uint16_t in[8];
  uint32_t hw[8];
  for (uint32_t base = 0; base <= 0xffff; base += 8) {
    for (uint32_t k = 0; k < 8; ++k) in[k] = static_cast<uint16_t>(base + k);
    F16cHalfToFloat8(in, hw);
    for (uint32_t k = 0; k < 8; ++k) {
      ASSERT_EQ(ToFloatBits(in[k]), hw[k]) << std::hex << "half 0x" << in[k];
    }
  }
#endif
}

}  // namespace
}  // namespace csod
