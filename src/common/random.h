#ifndef CSOD_COMMON_RANDOM_H_
#define CSOD_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>

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

  /// Standard normal variate (Box-Muller; consumes two words per pair,
  /// caches the second).
  double NextGaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = ToOpenUnitDouble(NextU64());
    double u2 = ToUnitDouble(NextU64());
    double radius = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * kPi * u2;
    cached_ = radius * std::sin(angle);
    has_cached_ = true;
    return radius * std::cos(angle);
  }

 private:
  static constexpr double kPi = 3.14159265358979323846;
  uint64_t state_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// \brief Counter-based Gaussian source: `At(i)` is a pure function of
/// (seed, i).
///
/// This is what makes measurement-matrix columns regenerable in any order
/// and on any node: entry (row, col) of the matrix is
/// `CounterGaussian(HashCombine(seed, col)).At(row)`.
///
/// Positions 2p and 2p+1 form one Box-Muller pair (cos/sin of the same
/// draw), so bulk generation via `Fill` costs one log + sqrt per two
/// variates while `At` stays a pure per-position function.
class CounterGaussian {
 public:
  explicit CounterGaussian(uint64_t seed) : seed_(seed) {}

  /// Standard normal variate for counter position `i`. Deterministic
  /// across platforms and call orders; positions are jointly i.i.d.
  double At(uint64_t i) const {
    const uint64_t p = i >> 1;
    double radius;
    double angle;
    PairDraw(p, &radius, &angle);
    return (i & 1) ? radius * std::sin(angle) : radius * std::cos(angle);
  }

  /// Writes variates for positions [0, count) into `out`; identical values
  /// to calling At(i) per position, rounded to T (so a float output holds
  /// `float(At(i))`), ~2x faster for bulk use.
  template <typename T>
  void Fill(uint64_t count, T* out) const {
    uint64_t i = 0;
    for (; i + 2 <= count; i += 2) {
      double radius;
      double angle;
      PairDraw(i >> 1, &radius, &angle);
      out[i] = static_cast<T>(radius * std::cos(angle));
      out[i + 1] = static_cast<T>(radius * std::sin(angle));
    }
    if (i < count) out[i] = static_cast<T>(At(i));
  }

 private:
  static constexpr double kTwoPi = 6.28318530717958647692;

  // The shared Box-Muller draw of pair `p` (positions 2p and 2p+1).
  void PairDraw(uint64_t p, double* radius, double* angle) const {
    const uint64_t w1 = SplitMix64(seed_ ^ SplitMix64(2 * p));
    const uint64_t w2 = SplitMix64(seed_ ^ SplitMix64(2 * p + 1));
    *radius = std::sqrt(-2.0 * std::log(ToOpenUnitDouble(w1)));
    *angle = kTwoPi * ToUnitDouble(w2);
  }

  uint64_t seed_;
};

}  // namespace csod

#endif  // CSOD_COMMON_RANDOM_H_
