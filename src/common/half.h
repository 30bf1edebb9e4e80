#ifndef CSOD_COMMON_HALF_H_
#define CSOD_COMMON_HALF_H_

#include <bit>
#include <cstdint>

namespace csod {

/// \brief An IEEE 754 binary16 value, held as its bit pattern.
///
/// Φ0 stores its entries as halves (cs::kPhi0Format 4). A distinct type,
/// rather than a bare uint16_t, keeps the simd:: column kernels' half
/// overloads from accepting integer data.
struct Half {
  uint16_t bits;
};

/// float → half, rounding to nearest with ties to even. Integer-only, so
/// every host computes the same bits; matches the F16C conversion
/// `_mm256_cvtps_ph(·, _MM_FROUND_TO_NEAREST_INT)` on every input,
/// including the half-subnormal range, overflow to ±inf (|x| ≥ 65520) and
/// NaNs (quieted, payload truncated to its top 9 bits).
inline Half FloatToHalf(float x) {
  const uint32_t f = std::bit_cast<uint32_t>(x);
  const uint32_t sign = (f >> 16) & 0x8000u;
  const uint32_t a = f & 0x7fffffffu;
  if (a > 0x7f800000u) {  // NaN
    return Half{static_cast<uint16_t>(sign | 0x7e00u | ((a >> 13) & 0x3ffu))};
  }
  if (a >= 0x477ff000u) {  // ≥ 65520, the tie above the largest half: ±inf
    return Half{static_cast<uint16_t>(sign | 0x7c00u)};
  }
  if (a >= 0x38800000u) {  // ≥ 2^-14: a normal half
    // Rebias the exponent (127 → 15) and round the 13 dropped bits; a
    // mantissa carry moves into the exponent, which is the right result.
    uint32_t m = a - 0x38000000u;
    m += 0x0fffu + ((m >> 13) & 1u);
    return Half{static_cast<uint16_t>(sign | (m >> 13))};
  }
  if (a < 0x33000000u) {  // < 2^-25, half the smallest subnormal: ±0
    return Half{static_cast<uint16_t>(sign)};
  }
  // A half subnormal: round a's significand, in units of 2^-24.
  const uint32_t shift = 126u - (a >> 23);  // 14..25
  const uint32_t significand = (a & 0x7fffffu) | 0x800000u;
  const uint32_t rest = significand & ((1u << shift) - 1u);
  const uint32_t tie = 1u << (shift - 1u);
  uint32_t q = significand >> shift;
  if (rest > tie || (rest == tie && (q & 1u))) ++q;
  return Half{static_cast<uint16_t>(sign | q)};
}

/// half → float, exact (every half is a float). Matches the F16C
/// conversion `_mm_cvtph_ps` bit for bit: NaNs come back quieted.
inline float HalfToFloat(Half h) {
  const uint32_t sign = uint32_t{h.bits & 0x8000u} << 16;
  const uint32_t exponent = (h.bits >> 10) & 0x1fu;
  const uint32_t mantissa = h.bits & 0x3ffu;
  uint32_t f;
  if (exponent == 0x1fu) {  // ±inf, NaN
    f = 0x7f800000u | (mantissa << 13) | (mantissa != 0 ? 0x400000u : 0u);
  } else if (exponent != 0) {
    f = ((exponent + 112u) << 23) | (mantissa << 13);
  } else if (mantissa != 0) {
    // Subnormal: mantissa · 2^-24, renormalized so its top bit is implicit.
    const uint32_t width = std::bit_width(mantissa);  // 1..10
    f = ((width + 102u) << 23) | ((mantissa << (24u - width)) & 0x7fffffu);
  } else {
    f = 0;
  }
  return std::bit_cast<float>(sign | f);
}

}  // namespace csod

#endif  // CSOD_COMMON_HALF_H_
