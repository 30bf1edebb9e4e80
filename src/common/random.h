#ifndef CSOD_COMMON_RANDOM_H_
#define CSOD_COMMON_RANDOM_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/simd.h"

namespace csod {

/// \brief Stateless 64-bit mixing function (the SplitMix64 finalizer).
///
/// Used both as the step function of `Rng` and as the hash behind the
/// counter-based generators. Every distributed node derives identical
/// pseudo-random streams from a shared seed through this function, which is
/// what makes the paper's "by a consensus, each node randomly generates the
/// same measurement matrix" practical without transmitting the matrix.
inline uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes two 64-bit words into one; order-sensitive.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Maps a 64-bit word to a double in [0, 1) with 53 bits of precision.
inline double ToUnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Maps a 64-bit word to a double in (0, 1] (never zero, safe for log()).
inline double ToOpenUnitDouble(uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
}

/// \brief The repository's one Box–Muller transform, built only from
/// IEEE-exact operations: integer ops, + − × ÷ and sqrt, each correctly
/// rounded, with no FMA (the library targets build with
/// -ffp-contract=off). No libm transcendental is called, so the bits are
/// the same on every conforming host, compiler and libm, and the AVX2
/// generator kernel (simd::GaussianFill) repeats the identical operation
/// sequence four lanes wide.
///
/// A pair of uniform words (w1, w2) yields (r·cos θ, r·sin θ) with
/// r = sqrt(−2 ln u), u = ((w1 >> 11) + 1)·2^-53 ∈ (0, 1], and θ = 2π·v
/// where v's top 3 bits are w2's octant and its next 52 bits a cell
/// midpoint: θ = (o + (2t + 1)·2^-53)·π/4. The polynomials are fdlibm's
/// (Sun Microsystems) minimax kernels, each within about one ulp of the
/// true function; docs/THEORY.md §4 bounds the effect on Φ0.
namespace box_muller {

// ln: u = 2^k · m with m ∈ (√2/2, √2], f = m − 1, s = f / (2 + f) =
// (m − 1)/(m + 1) and ln m = f − f²/2 + s·(f²/2 + R(s²)): an odd series in
// s, with R a degree-7 polynomial in s².
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;
inline constexpr double kSqrt2 = 1.41421356237309504880;
// The biased exponent of x = u·2^53 is k + 1023 + 53.
inline constexpr double kExponentOffset = 1076.0;
inline constexpr uint64_t kMantissaMask = 0x000fffffffffffffULL;
inline constexpr uint64_t kOneBits = 0x3ff0000000000000ULL;

// sin and cos on [0, π/4].
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;
// (π/4)·2^-53: maps an odd integer 2t + 1 < 2^53 to its angle in the octant.
inline constexpr double kQuarterPiUlp = 0x1.921fb54442d18p-1 * 0x1p-53;

/// ln u for u = ((w >> 11) + 1)·2^-53 ∈ (0, 1].
inline double LogOpenUnit(uint64_t w) {
  const double x = static_cast<double>((w >> 11) + 1);  // ≤ 2^53: exact
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  double k = static_cast<double>(bits >> 52) - kExponentOffset;
  double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
  const bool halve = m > kSqrt2;
  m = halve ? m * 0.5 : m;
  k = k + (halve ? 1.0 : 0.0);
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double z2 = z * z;
  const double t1 = z2 * (kLg2 + z2 * (kLg4 + z2 * kLg6));
  const double t2 = z * (kLg1 + z2 * (kLg3 + z2 * (kLg5 + z2 * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

/// (cos θ, sin θ) for w's angle θ = (o + (2t + 1)·2^-53)·π/4, o = w >> 61
/// and t the next 52 bits. Odd octants reflect t, so the polynomial
/// argument x ∈ (0, π/4) is θ's distance to the nearest multiple of π/2;
/// the octant then swaps the pair and sets the signs.
inline void SinCosTurn(uint64_t w, double* cos_out, double* sin_out) {
  const uint64_t octant = w >> 61;
  const uint64_t reflect = (uint64_t{0} - (octant & 1)) >> 12;
  const uint64_t t = ((w << 3) >> 12) ^ reflect;
  const double x = static_cast<double>((t << 1) | 1) * kQuarterPiUlp;
  const double z = x * x;
  const double sr = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const double sin_x = x + (z * x) * (kS1 + z * sr);
  const double cr =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double hz = 0.5 * z;
  const double head = 1.0 - hz;
  const double cos_x = head + (((1.0 - head) - hz) + z * cr);
  const bool swap = ((octant + 1) >> 1) & 1;  // octants 1, 2, 5, 6
  const double c = swap ? sin_x : cos_x;
  const double s = swap ? cos_x : sin_x;
  *cos_out = (((octant + 2) >> 2) & 1) ? -c : c;  // octants 2..5
  *sin_out = (octant >> 2) ? -s : s;              // octants 4..7
}

/// The Box–Muller pair of words (w1, w2): two independent standard normals.
inline void Pair(uint64_t w1, uint64_t w2, double* g0, double* g1) {
  const double radius = std::sqrt(-2.0 * LogOpenUnit(w1));
  double c;
  double s;
  SinCosTurn(w2, &c, &s);
  *g0 = radius * c;
  *g1 = radius * s;
}

}  // namespace box_muller

/// \brief Small, fast, seedable sequential PRNG (xorshift-free SplitMix64
/// stream). Deterministic across platforms.
class Rng {
 public:
  /// Seeds the stream. Two `Rng`s with the same seed emit identical streams.
  explicit Rng(uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit word.
  uint64_t NextU64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return ToUnitDouble(NextU64()); }

  /// Uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    // Multiply-shift rejection-free mapping; bias is negligible for the
    // bounds used in this library (< 2^40).
    return static_cast<uint64_t>(NextDouble() * static_cast<double>(bound));
  }

  /// Standard normal variate (box_muller::Pair; consumes two words per
  /// pair, caches the second).
  double NextGaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    const uint64_t w1 = NextU64();
    const uint64_t w2 = NextU64();
    double g;
    box_muller::Pair(w1, w2, &g, &cached_);
    has_cached_ = true;
    return g;
  }

 private:
  uint64_t state_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// \brief Counter-based Gaussian source: `At(i)` is a pure function of
/// (seed, i).
///
/// This is what makes measurement-matrix columns regenerable in any order
/// and on any node: entry (row, col) of Φ0 is
/// `CounterGaussian(cs::Phi0ColumnSeed(seed, col)).At(row)`, rounded to
/// an int8 number of sixteenths (simd::QuantizeEntry).
///
/// Positions 2p and 2p+1 form one Box–Muller pair (box_muller::Pair of the
/// words Word(2p) and Word(2p+1), cos then sin), so bulk generation via
/// `Fill` costs one log + sqrt per two variates while `At` stays a pure
/// per-position function. Word(i) = SplitMix64(seed ^ SplitMix64(i)); the
/// inner SplitMix64(i) does not depend on the seed, so `Keys` tabulates it
/// once and every seed's `Fill` reuses the table.
class CounterGaussian {
 public:
  explicit CounterGaussian(uint64_t seed) : seed_(seed) {}

  /// Standard normal variate for counter position `i`. Deterministic
  /// across platforms and call orders; positions are jointly i.i.d.
  double At(uint64_t i) const {
    const uint64_t first = i & ~uint64_t{1};
    double g[2];
    box_muller::Pair(Word(first), Word(first + 1), &g[0], &g[1]);
    return g[i & 1];
  }

  /// The seed-independent key table for positions [0, count): keys[i] =
  /// SplitMix64(i), with count rounded up to a whole pair.
  static std::vector<uint64_t> Keys(uint64_t count) {
    std::vector<uint64_t> keys(count + (count & 1));
    for (uint64_t i = 0; i < keys.size(); ++i) keys[i] = SplitMix64(i);
    return keys;
  }

  /// Writes variates for positions [0, count) into `out`: At(i) as a
  /// double, or as the int8 `simd::QuantizeEntry(At(i))`, through the
  /// vectorized simd::GaussianFill. `keys` is Keys(c) for some c >= count.
  template <typename T>
  void Fill(uint64_t count, const uint64_t* keys, T* out) const {
    simd::GaussianFill(seed_, keys, count, out);
  }

  /// Fill with a key table built for this call.
  template <typename T>
  void Fill(uint64_t count, T* out) const {
    Fill(count, Keys(count).data(), out);
  }

 private:
  uint64_t Word(uint64_t i) const { return SplitMix64(seed_ ^ SplitMix64(i)); }

  uint64_t seed_;
};

}  // namespace csod

#endif  // CSOD_COMMON_RANDOM_H_
