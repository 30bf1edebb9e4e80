#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/random.h"

#if defined(__x86_64__) || defined(__i386__)
#define CSOD_SIMD_X86 1
#include <immintrin.h>
#else
#define CSOD_SIMD_X86 0
#endif

namespace csod::simd {

namespace {

// ---------------------------------------------------------------------------
// Portable kernels. The 8-lane split in DotPortable is the canonical
// summation tree; every other implementation must reproduce it bit-for-bit.
// Each column kernel is a template over the column element type T (double
// or int8_t): `Widen(c[i])` is the exact widening, after which the
// arithmetic is the same for both.
// ---------------------------------------------------------------------------

inline double Widen(double x) { return x; }
inline double Widen(int8_t q) { return q; }

// The canonical fold of the eight lane sums.
inline double FoldLanes(const double lane[8]) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

template <typename T>
double DotPortable(const T* a, const double* b, size_t n) {
  double lane[8] = {};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t l = 0; l < 8; ++l) lane[l] += Widen(a[i + l]) * b[i + l];
  }
  // Tail elements continue the i mod 8 lane assignment.
  for (size_t l = 0; i < n; ++i, ++l) lane[l] += Widen(a[i]) * b[i];
  return FoldLanes(lane);
}

template <typename T>
void Dot4Portable(const T* c0, const T* c1, const T* c2, const T* c3,
                  const double* r, size_t n, double out[4]) {
  // Four independent canonical dots; the AVX2 path fuses the r loads but
  // the per-column arithmetic — and so the bits — are the same.
  out[0] = DotPortable(c0, r, n);
  out[1] = DotPortable(c1, r, n);
  out[2] = DotPortable(c2, r, n);
  out[3] = DotPortable(c3, r, n);
}

// ScreenColumns's prefetch distance (simd.h).
constexpr size_t kScreenPrefetchBytes = 4096;
constexpr size_t kCacheLineBytes = 64;

// Requests the cache lines of the `bytes` bytes that start
// kScreenPrefetchBytes past `p`. The address is formed as an integer, since
// it may lie past the end of p's array. Always inlined: a function whose
// only effect is a prefetch counts as side-effect free to GCC, which may
// then delete its calls.
[[gnu::always_inline]] inline void PrefetchAhead(const int8_t* p,
                                                 size_t bytes) {
  const uintptr_t ahead =
      reinterpret_cast<uintptr_t>(p) + kScreenPrefetchBytes;
  for (size_t b = 0; b < bytes; b += kCacheLineBytes) {
    __builtin_prefetch(reinterpret_cast<const void*>(ahead + b));
  }
}

// The screen in plain int32: exact under ScreenResidualLimit, and a signed
// overflow past it is undefined behaviour that UBSan reports.
void ScreenColumnsPortable(const int8_t* cols, size_t m, size_t count,
                           const int16_t* rho, int32_t* out) {
  for (size_t j = 0; j < count; ++j) {
    const int8_t* col = cols + j * m;
    PrefetchAhead(col, m);
    int32_t sum = 0;
    for (size_t i = 0; i < m; ++i) sum += int32_t{col[i]} * int32_t{rho[i]};
    out[j] = sum;
  }
}

template <typename T>
void AxpyPortable(double* acc, const T* col, double x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += Widen(col[i]) * x;
}

template <typename T>
void Axpy4Portable(double* acc, const T* c0, double x0, const T* c1, double x1,
                   const T* c2, double x2, const T* c3, double x3, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    t += Widen(c0[i]) * x0;
    t += Widen(c1[i]) * x1;
    t += Widen(c2[i]) * x2;
    t += Widen(c3[i]) * x3;
    acc[i] = t;
  }
}

template <typename T>
void Axpy8Portable(double* acc, const T* const cols[8], const double xs[8],
                   size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += Widen(cols[k][i]) * xs[k];
    acc[i] = t;
  }
}

template <typename T>
void AddPortable(double* acc, const T* src, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += Widen(src[i]);
}

template <typename T>
void Add4Portable(double* acc, const T* s0, const T* s1, const T* s2,
                  const T* s3, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    t += Widen(s0[i]);
    t += Widen(s1[i]);
    t += Widen(s2[i]);
    t += Widen(s3[i]);
    acc[i] = t;
  }
}

void ScalePortable(double* v, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] *= s;
}

void QuantizePortable(const double* g, size_t n, int8_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = QuantizeEntry(g[i]);
}

// The generator's reference path: box_muller::Pair per pair, exactly what
// CounterGaussian::At evaluates.
void GaussianFillPortable(uint64_t seed, const uint64_t* keys, size_t count,
                          double* out) {
  for (size_t i = 0; i < count; i += 2) {
    double g0;
    double g1;
    box_muller::Pair(SplitMix64(seed ^ keys[i]), SplitMix64(seed ^ keys[i + 1]),
                     &g0, &g1);
    out[i] = g0;
    if (i + 1 < count) out[i + 1] = g1;
  }
}

#if CSOD_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels. target("avx2") without "fma": the compiler cannot contract
// the mul/add pairs below into FMAs, which keeps every rounding step — and
// so every bit — identical to the portable kernels above.
// ---------------------------------------------------------------------------

#define CSOD_AVX2 __attribute__((target("avx2")))

// Four consecutive column elements as doubles. The int8 form loads exactly
// 4 bytes and widens them int8 → int32 → double (both exact), so a group
// never reads past its fourth element.
CSOD_AVX2 inline __m256d Load4(const double* p) { return _mm256_loadu_pd(p); }
CSOD_AVX2 inline __m256d Load4(const int8_t* p) {
  int32_t bytes;
  std::memcpy(&bytes, p, sizeof(bytes));
  return _mm256_cvtepi32_pd(_mm_cvtepi8_epi32(_mm_cvtsi32_si128(bytes)));
}

// Eight consecutive column elements as two vectors of four doubles. The
// int8 form loads exactly 8 bytes and sign-extends all eight in one
// vpmovsxbd.
CSOD_AVX2 inline void Load8(const double* p, __m256d* lo, __m256d* hi) {
  *lo = _mm256_loadu_pd(p);
  *hi = _mm256_loadu_pd(p + 4);
}
CSOD_AVX2 inline void Load8(const int8_t* p, __m256d* lo, __m256d* hi) {
  const __m256i v = _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  *lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(v));
  *hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(v, 1));
}

// (*t0, *t1) += col[0..8) * v, element-wise.
template <typename T>
CSOD_AVX2 inline void MulAdd8(const T* col, __m256d v, __m256d* t0,
                              __m256d* t1) {
  __m256d lo;
  __m256d hi;
  Load8(col, &lo, &hi);
  *t0 = _mm256_add_pd(*t0, _mm256_mul_pd(lo, v));
  *t1 = _mm256_add_pd(*t1, _mm256_mul_pd(hi, v));
}

template <typename T>
CSOD_AVX2 double DotAvx2(const T* a, const double* b, size_t n) {
  // acc0 holds lanes 0..3, acc1 lanes 4..7 of the canonical split.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d lo;
    __m256d hi;
    Load8(a + i, &lo, &hi);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(lo, _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(hi, _mm256_loadu_pd(b + i + 4)));
  }
  double lane[8];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t l = 0; i < n; ++i, ++l) lane[l] += Widen(a[i]) * b[i];
  return FoldLanes(lane);
}

template <typename T>
CSOD_AVX2 void Dot4Avx2(const T* c0, const T* c1, const T* c2, const T* c3,
                        const double* r, size_t n, double out[4]) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
  __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_loadu_pd(r + i);
    const __m256d r1 = _mm256_loadu_pd(r + i + 4);
    __m256d lo;
    __m256d hi;
    Load8(c0 + i, &lo, &hi);
    a00 = _mm256_add_pd(a00, _mm256_mul_pd(lo, r0));
    a01 = _mm256_add_pd(a01, _mm256_mul_pd(hi, r1));
    Load8(c1 + i, &lo, &hi);
    a10 = _mm256_add_pd(a10, _mm256_mul_pd(lo, r0));
    a11 = _mm256_add_pd(a11, _mm256_mul_pd(hi, r1));
    Load8(c2 + i, &lo, &hi);
    a20 = _mm256_add_pd(a20, _mm256_mul_pd(lo, r0));
    a21 = _mm256_add_pd(a21, _mm256_mul_pd(hi, r1));
    Load8(c3 + i, &lo, &hi);
    a30 = _mm256_add_pd(a30, _mm256_mul_pd(lo, r0));
    a31 = _mm256_add_pd(a31, _mm256_mul_pd(hi, r1));
  }
  const __m256d* accs0[4] = {&a00, &a10, &a20, &a30};
  const __m256d* accs1[4] = {&a01, &a11, &a21, &a31};
  const T* cols[4] = {c0, c1, c2, c3};
  for (size_t k = 0; k < 4; ++k) {
    double lane[8];
    _mm256_storeu_pd(lane, *accs0[k]);
    _mm256_storeu_pd(lane + 4, *accs1[k]);
    size_t j = i;
    for (size_t l = 0; j < n; ++j, ++l) lane[l] += Widen(cols[k][j]) * r[j];
    out[k] = FoldLanes(lane);
  }
}

// The screen kernel. Sixteen int8 entries widen to int16 in one vpmovsxbw,
// and vpmaddwd sums their products with sixteen int16 residual entries
// pairwise into eight int32 lanes; MulPairs8 is the same step on eight
// entries and four lanes. Under ScreenResidualLimit no lane, and no sum of
// lanes, leaves int32, so the order of the integer additions does not
// matter.
CSOD_AVX2 inline __m256i MulPairs16(const int8_t* c, const int16_t* r) {
  const __m128i bytes = _mm_loadu_si128(reinterpret_cast<const __m128i*>(c));
  return _mm256_madd_epi16(
      _mm256_cvtepi8_epi16(bytes),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r)));
}
CSOD_AVX2 inline __m128i MulPairs8(const int8_t* c, const int16_t* r) {
  const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c));
  return _mm_madd_epi16(_mm_cvtepi8_epi16(bytes),
                        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r)));
}

// Folds four columns' int32 lanes to one sum per column, in column order:
// two hadd levels leave, in each 128-bit half, one partial sum per column,
// and adding the halves completes them.
CSOD_AVX2 inline void FoldColumns(__m256i a0, __m256i a1, __m256i a2,
                                  __m256i a3, int32_t sums[4]) {
  const __m256i h = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                      _mm256_hadd_epi32(a2, a3));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(sums),
                   _mm_add_epi32(_mm256_castsi256_si128(h),
                                 _mm256_extracti128_si256(h, 1)));
}

CSOD_AVX2 void ScreenColumnsAvx2(const int8_t* cols, size_t m, size_t count,
                                 const int16_t* rho, int32_t* out) {
  const size_t body = m - m % 16;
  const size_t vector_end = m - m % 8;  // body, or body + one 8-entry step
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const int8_t* c = cols + j * m;
    PrefetchAhead(c, 4 * m);
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = _mm256_setzero_si256();
    __m256i a2 = _mm256_setzero_si256();
    __m256i a3 = _mm256_setzero_si256();
    for (size_t i = 0; i < body; i += 16) {
      a0 = _mm256_add_epi32(a0, MulPairs16(c + i, rho + i));
      a1 = _mm256_add_epi32(a1, MulPairs16(c + m + i, rho + i));
      a2 = _mm256_add_epi32(a2, MulPairs16(c + 2 * m + i, rho + i));
      a3 = _mm256_add_epi32(a3, MulPairs16(c + 3 * m + i, rho + i));
    }
    if (vector_end > body) {
      // Zero-extended into the low half of each accumulator.
      a0 = _mm256_add_epi32(
          a0, _mm256_zextsi128_si256(MulPairs8(c + body, rho + body)));
      a1 = _mm256_add_epi32(
          a1, _mm256_zextsi128_si256(MulPairs8(c + m + body, rho + body)));
      a2 = _mm256_add_epi32(
          a2, _mm256_zextsi128_si256(MulPairs8(c + 2 * m + body, rho + body)));
      a3 = _mm256_add_epi32(
          a3, _mm256_zextsi128_si256(MulPairs8(c + 3 * m + body, rho + body)));
    }
    int32_t sums[4];
    FoldColumns(a0, a1, a2, a3, sums);
    for (size_t k = 0; k < 4; ++k) {
      const int8_t* col = c + k * m;
      int32_t sum = sums[k];
      for (size_t i = vector_end; i < m; ++i) {
        sum += int32_t{col[i]} * int32_t{rho[i]};
      }
      out[j + k] = sum;
    }
  }
  ScreenColumnsPortable(cols + j * m, m, count - j, rho, out + j);
}

template <typename T>
CSOD_AVX2 void AxpyAvx2(double* acc, const T* col, double x, size_t n) {
  const __m256d vx = _mm256_set1_pd(x);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                    _mm256_mul_pd(Load4(col + i), vx));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) acc[i] += Widen(col[i]) * x;
}

template <typename T>
CSOD_AVX2 void Axpy4Avx2(double* acc, const T* c0, double x0, const T* c1,
                         double x1, const T* c2, double x2, const T* c3,
                         double x3, size_t n) {
  const __m256d v0 = _mm256_set1_pd(x0);
  const __m256d v1 = _mm256_set1_pd(x1);
  const __m256d v2 = _mm256_set1_pd(x2);
  const __m256d v3 = _mm256_set1_pd(x3);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_loadu_pd(acc + i);
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(c0 + i), v0));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(c1 + i), v1));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(c2 + i), v2));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(c3 + i), v3));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    t += Widen(c0[i]) * x0;
    t += Widen(c1[i]) * x1;
    t += Widen(c2[i]) * x2;
    t += Widen(c3[i]) * x3;
    acc[i] = t;
  }
}

template <typename T>
CSOD_AVX2 void Axpy8Avx2(double* acc, const T* const cols[8],
                         const double xs[8], size_t n) {
  // Eight broadcast coefficients stay resident; each 8-element group of acc
  // folds the eight streams in order, reading all eight columns in the same
  // iteration — eight concurrent load streams for the memory system.
  const __m256d v0 = _mm256_set1_pd(xs[0]);
  const __m256d v1 = _mm256_set1_pd(xs[1]);
  const __m256d v2 = _mm256_set1_pd(xs[2]);
  const __m256d v3 = _mm256_set1_pd(xs[3]);
  const __m256d v4 = _mm256_set1_pd(xs[4]);
  const __m256d v5 = _mm256_set1_pd(xs[5]);
  const __m256d v6 = _mm256_set1_pd(xs[6]);
  const __m256d v7 = _mm256_set1_pd(xs[7]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d t0 = _mm256_loadu_pd(acc + i);
    __m256d t1 = _mm256_loadu_pd(acc + i + 4);
    MulAdd8(cols[0] + i, v0, &t0, &t1);
    MulAdd8(cols[1] + i, v1, &t0, &t1);
    MulAdd8(cols[2] + i, v2, &t0, &t1);
    MulAdd8(cols[3] + i, v3, &t0, &t1);
    MulAdd8(cols[4] + i, v4, &t0, &t1);
    MulAdd8(cols[5] + i, v5, &t0, &t1);
    MulAdd8(cols[6] + i, v6, &t0, &t1);
    MulAdd8(cols[7] + i, v7, &t0, &t1);
    _mm256_storeu_pd(acc + i, t0);
    _mm256_storeu_pd(acc + i + 4, t1);
  }
  // At most one group of four remains.
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_loadu_pd(acc + i);
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[0] + i), v0));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[1] + i), v1));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[2] + i), v2));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[3] + i), v3));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[4] + i), v4));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[5] + i), v5));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[6] + i), v6));
    t = _mm256_add_pd(t, _mm256_mul_pd(Load4(cols[7] + i), v7));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += Widen(cols[k][i]) * xs[k];
    acc[i] = t;
  }
}

template <typename T>
CSOD_AVX2 void AddAvx2(double* acc, const T* src, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(acc + i,
                     _mm256_add_pd(_mm256_loadu_pd(acc + i), Load4(src + i)));
  }
  for (; i < n; ++i) acc[i] += Widen(src[i]);
}

template <typename T>
CSOD_AVX2 void Add4Avx2(double* acc, const T* s0, const T* s1, const T* s2,
                        const T* s3, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_loadu_pd(acc + i);
    t = _mm256_add_pd(t, Load4(s0 + i));
    t = _mm256_add_pd(t, Load4(s1 + i));
    t = _mm256_add_pd(t, Load4(s2 + i));
    t = _mm256_add_pd(t, Load4(s3 + i));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    t += Widen(s0[i]);
    t += Widen(s1[i]);
    t += Widen(s2[i]);
    t += Widen(s3[i]);
    acc[i] = t;
  }
}

CSOD_AVX2 void ScaleAvx2(double* v, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), vs));
  }
  for (; i < n; ++i) v[i] *= s;
}

// ---------------------------------------------------------------------------
// The generator, four Box–Muller pairs wide. Floating-point lines use the
// vector types' own operators, so each reads as the scalar line of
// box_muller:: it repeats, in the same order; under target("avx2") without
// "fma" they compile to single vaddpd/vsubpd/vmulpd/vdivpd/vsqrtpd, each
// correctly rounded like its scalar form. Integer steps use intrinsics.
// ---------------------------------------------------------------------------

// Lane-wise a * b mod 2^64. AVX2 has no 64-bit multiply; with a = ah·2^32
// + al and b = bh·2^32 + bl, a·b ≡ al·bl + ((ah·bl + al·bh) << 32), and
// _mm256_mul_epu32 forms each 32×32 → 64-bit product.
CSOD_AVX2 inline __m256i Mul64(__m256i a, uint64_t b) {
  const __m256i b_lo =
      _mm256_set1_epi64x(static_cast<int64_t>(b & 0xffffffffULL));
  const __m256i b_hi = _mm256_set1_epi64x(static_cast<int64_t>(b >> 32));
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b_lo),
                          _mm256_slli_epi64(cross, 32));
}

CSOD_AVX2 inline __m256i SplitMix64x4(__m256i z) {
  z = _mm256_add_epi64(
      z, _mm256_set1_epi64x(static_cast<int64_t>(0x9e3779b97f4a7c15ULL)));
  z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            0xbf58476d1ce4e5b9ULL);
  z = Mul64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            0x94d049bb133111ebULL);
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

// Lane-wise double(v) for v < 2^52: v in the mantissa of 2^52, minus 2^52.
CSOD_AVX2 inline __m256d SmallToDouble(__m256i v) {
  const __m256i two52 = _mm256_set1_epi64x(0x4330000000000000LL);
  return _mm256_castsi256_pd(_mm256_or_si256(v, two52)) - 0x1p52;
}

// Lane-wise double(v) for v <= 2^53, exact, in two halves: the high 21
// bits in the mantissa of 2^84 (minus 2^84 leaves hi·2^32 exactly), the low
// 32 bits through SmallToDouble; their sum is v, exactly representable.
CSOD_AVX2 inline __m256d ToDouble53(__m256i v) {
  const __m256i two84 = _mm256_set1_epi64x(0x4530000000000000LL);
  const __m256i low_mask = _mm256_set1_epi64x(0xffffffffLL);
  const __m256d hi = _mm256_castsi256_pd(
                         _mm256_or_si256(_mm256_srli_epi64(v, 32), two84)) -
                     0x1p84;
  return hi + SmallToDouble(_mm256_and_si256(v, low_mask));
}

// box_muller::LogOpenUnit, lane-wise.
CSOD_AVX2 inline __m256d LogOpenUnit4(__m256i w) {
  using namespace box_muller;
  const __m256d x = ToDouble53(
      _mm256_add_epi64(_mm256_srli_epi64(w, 11), _mm256_set1_epi64x(1)));
  const __m256i bits = _mm256_castpd_si256(x);
  __m256d k = SmallToDouble(_mm256_srli_epi64(bits, 52)) - kExponentOffset;
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits,
                       _mm256_set1_epi64x(static_cast<int64_t>(kMantissaMask))),
      _mm256_set1_epi64x(static_cast<int64_t>(kOneBits))));
  const __m256d halve = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, m * 0.5, halve);
  k = k + _mm256_and_pd(halve, _mm256_set1_pd(1.0));
  const __m256d f = m - 1.0;
  const __m256d s = f / (2.0 + f);
  const __m256d z = s * s;
  const __m256d z2 = z * z;
  const __m256d t1 = z2 * (kLg2 + z2 * (kLg4 + z2 * kLg6));
  const __m256d t2 = z * (kLg1 + z2 * (kLg3 + z2 * (kLg5 + z2 * kLg7)));
  const __m256d r = t2 + t1;
  const __m256d hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// box_muller::SinCosTurn, lane-wise; the swap and the signs are masks.
CSOD_AVX2 inline void SinCosTurn4(__m256i w, __m256d* cos_out,
                                  __m256d* sin_out) {
  using namespace box_muller;
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i octant = _mm256_srli_epi64(w, 61);
  const __m256i reflect = _mm256_srli_epi64(
      _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(octant, one)),
      12);
  const __m256i t = _mm256_xor_si256(
      _mm256_srli_epi64(_mm256_slli_epi64(w, 3), 12), reflect);
  const __m256d x =
      ToDouble53(_mm256_or_si256(_mm256_slli_epi64(t, 1), one)) *
      kQuarterPiUlp;
  const __m256d z = x * x;
  const __m256d sr = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const __m256d sin_x = x + (z * x) * (kS1 + z * sr);
  const __m256d cr =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const __m256d hz = 0.5 * z;
  const __m256d head = 1.0 - hz;
  const __m256d cos_x = head + (((1.0 - head) - hz) + z * cr);
  const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_srli_epi64(_mm256_add_epi64(octant, one), 1),
                       one),
      one));
  const __m256d c = _mm256_blendv_pd(cos_x, sin_x, swap);
  const __m256d s = _mm256_blendv_pd(sin_x, cos_x, swap);
  // Bit 0 of (octant + 2) >> 2, resp. octant >> 2, moved to the sign bit.
  const __m256i cos_sign = _mm256_slli_epi64(
      _mm256_srli_epi64(_mm256_add_epi64(octant, _mm256_set1_epi64x(2)), 2),
      63);
  const __m256i sin_sign = _mm256_slli_epi64(_mm256_srli_epi64(octant, 2), 63);
  *cos_out = _mm256_xor_pd(c, _mm256_castsi256_pd(cos_sign));
  *sin_out = _mm256_xor_pd(s, _mm256_castsi256_pd(sin_sign));
}

CSOD_AVX2 void GaussianFillAvx2(uint64_t seed, const uint64_t* keys,
                                size_t count, double* out) {
  const __m256i vseed = _mm256_set1_epi64x(static_cast<int64_t>(seed));
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i k0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i k1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 4));
    // The unpacks put pairs 0, 2, 1, 3 in lanes 0..3: w1 holds their
    // radius words (even keys), w2 their angle words (odd keys).
    const __m256i w1 =
        SplitMix64x4(_mm256_xor_si256(vseed, _mm256_unpacklo_epi64(k0, k1)));
    const __m256i w2 =
        SplitMix64x4(_mm256_xor_si256(vseed, _mm256_unpackhi_epi64(k0, k1)));
    const __m256d radius = _mm256_sqrt_pd(-2.0 * LogOpenUnit4(w1));
    __m256d c;
    __m256d s;
    SinCosTurn4(w2, &c, &s);
    const __m256d g0 = radius * c;
    const __m256d g1 = radius * s;
    // Interleaving undoes the lane order: (c0 s0 c1 s1), (c2 s2 c3 s3).
    _mm256_storeu_pd(out + i, _mm256_unpacklo_pd(g0, g1));
    _mm256_storeu_pd(out + i + 4, _mm256_unpackhi_pd(g0, g1));
  }
  GaussianFillPortable(seed, keys + i, count - i, out + i);
}

// QuantizeEntry on four lanes: the same clamp, then vroundpd to nearest
// even, which gives the integers the portable 1.5·2^52 trick gives; the
// conversion to int32 is exact.
CSOD_AVX2 inline __m128i Quantize4(const double* g) {
  const __m256d bound = _mm256_set1_pd(kMaxAbsInt8Entry);
  __m256d x = _mm256_loadu_pd(g) * kInt8StepsPerUnit;
  x = _mm256_max_pd(_mm256_min_pd(x, bound), -bound);
  return _mm256_cvtpd_epi32(
      _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
}

CSOD_AVX2 void QuantizeAvx2(const double* g, size_t n, int8_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Both packs saturate, a no-op on values within ±127.
    const __m128i words =
        _mm_packs_epi32(Quantize4(g + i), Quantize4(g + i + 4));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(words, words));
  }
  QuantizePortable(g + i, n - i, out + i);
}

#undef CSOD_AVX2

// ---------------------------------------------------------------------------
// AVX-512 kernels: the int8 Axpy family and the screen, the two loops behind
// every sketch and every BOMP sweep. Every other kernel runs its AVX2 form
// at this level. AVX-512F implies FMA, so unlike the AVX2 kernels these rely
// on -ffp-contract=off (src/common/CMakeLists.txt) to keep each
// _mm512_mul_pd and _mm512_add_pd two roundings, as on the other paths.
// ---------------------------------------------------------------------------

#define CSOD_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))

// The all-ones mask of the 64-bit-lane intrinsics below, which take their
// zero-masked forms: GCC 12's unmasked forms merge into an undefined
// register, which -Wmaybe-uninitialized reports, while an all-ones mask
// compiles to the same unmasked instruction.
constexpr __mmask8 kAllLanes8 = 0xff;

// Eight consecutive int8 column entries as eight doubles: exactly 8 bytes
// loaded, sign-extended to int64 (vpmovsxbq) and converted (vcvtqq2pd),
// both exact.
CSOD_AVX512 inline __m512d Load8x8(const int8_t* p) {
  return _mm512_cvtepi64_pd(_mm512_maskz_cvtepi8_epi64(
      kAllLanes8, _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
}

// t + col[0..8) * v, element-wise, multiply then add.
CSOD_AVX512 inline __m512d MulAdd8x8(__m512d t, const int8_t* col,
                                     __m512d v) {
  return _mm512_add_pd(t, _mm512_mul_pd(Load8x8(col), v));
}

CSOD_AVX512 void AxpyAvx512(double* acc, const int8_t* col, double x,
                            size_t n) {
  const __m512d vx = _mm512_set1_pd(x);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(acc + i,
                     MulAdd8x8(_mm512_loadu_pd(acc + i), col + i, vx));
  }
  AxpyPortable(acc + i, col + i, x, n - i);
}

CSOD_AVX512 void Axpy4Avx512(double* acc, const int8_t* c0, double x0,
                             const int8_t* c1, double x1, const int8_t* c2,
                             double x2, const int8_t* c3, double x3,
                             size_t n) {
  const __m512d v0 = _mm512_set1_pd(x0);
  const __m512d v1 = _mm512_set1_pd(x1);
  const __m512d v2 = _mm512_set1_pd(x2);
  const __m512d v3 = _mm512_set1_pd(x3);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d t = _mm512_loadu_pd(acc + i);
    t = MulAdd8x8(t, c0 + i, v0);
    t = MulAdd8x8(t, c1 + i, v1);
    t = MulAdd8x8(t, c2 + i, v2);
    t = MulAdd8x8(t, c3 + i, v3);
    _mm512_storeu_pd(acc + i, t);
  }
  Axpy4Portable(acc + i, c0 + i, x0, c1 + i, x1, c2 + i, x2, c3 + i, x3,
                n - i);
}

CSOD_AVX512 void Axpy8Avx512(double* acc, const int8_t* const cols[8],
                             const double xs[8], size_t n) {
  const __m512d v0 = _mm512_set1_pd(xs[0]);
  const __m512d v1 = _mm512_set1_pd(xs[1]);
  const __m512d v2 = _mm512_set1_pd(xs[2]);
  const __m512d v3 = _mm512_set1_pd(xs[3]);
  const __m512d v4 = _mm512_set1_pd(xs[4]);
  const __m512d v5 = _mm512_set1_pd(xs[5]);
  const __m512d v6 = _mm512_set1_pd(xs[6]);
  const __m512d v7 = _mm512_set1_pd(xs[7]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d t = _mm512_loadu_pd(acc + i);
    t = MulAdd8x8(t, cols[0] + i, v0);
    t = MulAdd8x8(t, cols[1] + i, v1);
    t = MulAdd8x8(t, cols[2] + i, v2);
    t = MulAdd8x8(t, cols[3] + i, v3);
    t = MulAdd8x8(t, cols[4] + i, v4);
    t = MulAdd8x8(t, cols[5] + i, v5);
    t = MulAdd8x8(t, cols[6] + i, v6);
    t = MulAdd8x8(t, cols[7] + i, v7);
    _mm512_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += Widen(cols[k][i]) * xs[k];
    acc[i] = t;
  }
}

// The screen step 32 entries wide: vpmovsxbw to 32 int16, vpmaddwd into
// sixteen int32 lanes. The masked form reads only the entries `mask`
// selects and zeroes the others, whose products then add nothing.
CSOD_AVX512 inline __m512i MulPairs32(const int8_t* c, const int16_t* r) {
  const __m256i bytes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c));
  return _mm512_madd_epi16(_mm512_cvtepi8_epi16(bytes), _mm512_loadu_si512(r));
}
CSOD_AVX512 inline __m512i MulPairs32(const int8_t* c, __m512i r,
                                      __mmask32 mask) {
  return _mm512_madd_epi16(
      _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(mask, c)), r);
}

// The sixteen lanes of `a` summed into eight: the two 256-bit halves added.
CSOD_AVX512 inline __m256i FoldHalves(__m512i a) {
  return _mm256_add_epi32(_mm512_maskz_extracti64x4_epi64(kAllLanes8, a, 0),
                          _mm512_maskz_extracti64x4_epi64(kAllLanes8, a, 1));
}

CSOD_AVX512 void ScreenColumnsAvx512(const int8_t* cols, size_t m,
                                     size_t count, const int16_t* rho,
                                     int32_t* out) {
  const size_t body = m - m % 32;
  const __mmask32 tail = static_cast<__mmask32>((uint64_t{1} << (m % 32)) - 1);
  const __m512i rho_tail = _mm512_maskz_loadu_epi16(tail, rho + body);
  size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const int8_t* c = cols + j * m;
    PrefetchAhead(c, 4 * m);
    __m512i a0 = _mm512_setzero_si512();
    __m512i a1 = _mm512_setzero_si512();
    __m512i a2 = _mm512_setzero_si512();
    __m512i a3 = _mm512_setzero_si512();
    for (size_t i = 0; i < body; i += 32) {
      a0 = _mm512_add_epi32(a0, MulPairs32(c + i, rho + i));
      a1 = _mm512_add_epi32(a1, MulPairs32(c + m + i, rho + i));
      a2 = _mm512_add_epi32(a2, MulPairs32(c + 2 * m + i, rho + i));
      a3 = _mm512_add_epi32(a3, MulPairs32(c + 3 * m + i, rho + i));
    }
    a0 = _mm512_add_epi32(a0, MulPairs32(c + body, rho_tail, tail));
    a1 = _mm512_add_epi32(a1, MulPairs32(c + m + body, rho_tail, tail));
    a2 = _mm512_add_epi32(a2, MulPairs32(c + 2 * m + body, rho_tail, tail));
    a3 = _mm512_add_epi32(a3, MulPairs32(c + 3 * m + body, rho_tail, tail));
    FoldColumns(FoldHalves(a0), FoldHalves(a1), FoldHalves(a2),
                FoldHalves(a3), out + j);
  }
  ScreenColumnsPortable(cols + j * m, m, count - j, rho, out + j);
}

// ---------------------------------------------------------------------------
// The generator, eight Box–Muller pairs wide: the AVX2 form line for line.
// The 64-bit multiply is one vpmullq, the exact integer-to-double
// conversions are one vcvtuqq2pd (exact for v ≤ 2^53), and the lane selects
// are mask blends. Floating-point lines keep box_muller::'s order; with
// -ffp-contract=off each compiles to one correctly rounded vector
// instruction, as on the other paths.
// ---------------------------------------------------------------------------

CSOD_AVX512 inline __m512i Srl64(__m512i v, unsigned shift) {
  return _mm512_maskz_srli_epi64(kAllLanes8, v, shift);
}
CSOD_AVX512 inline __m512i Sll64(__m512i v, unsigned shift) {
  return _mm512_maskz_slli_epi64(kAllLanes8, v, shift);
}
CSOD_AVX512 inline __m512i Set64(uint64_t v) {
  return _mm512_set1_epi64(static_cast<int64_t>(v));
}

CSOD_AVX512 inline __m512i SplitMix64x8(__m512i z) {
  z = _mm512_add_epi64(z, Set64(0x9e3779b97f4a7c15ULL));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, Srl64(z, 30)),
                         Set64(0xbf58476d1ce4e5b9ULL));
  z = _mm512_mullo_epi64(_mm512_xor_si512(z, Srl64(z, 27)),
                         Set64(0x94d049bb133111ebULL));
  return _mm512_xor_si512(z, Srl64(z, 31));
}

// box_muller::LogOpenUnit, lane-wise.
CSOD_AVX512 inline __m512d LogOpenUnit8(__m512i w) {
  using namespace box_muller;
  const __m512d x =
      _mm512_cvtepu64_pd(_mm512_add_epi64(Srl64(w, 11), Set64(1)));
  const __m512i bits = _mm512_castpd_si512(x);
  __m512d k = _mm512_cvtepu64_pd(Srl64(bits, 52)) - kExponentOffset;
  __m512d m = _mm512_castsi512_pd(_mm512_or_si512(
      _mm512_and_si512(bits, Set64(kMantissaMask)), Set64(kOneBits)));
  const __mmask8 halve =
      _mm512_cmp_pd_mask(m, _mm512_set1_pd(kSqrt2), _CMP_GT_OQ);
  m = _mm512_mask_blend_pd(halve, m, m * 0.5);
  k = k + _mm512_maskz_mov_pd(halve, _mm512_set1_pd(1.0));
  const __m512d f = m - 1.0;
  const __m512d s = f / (2.0 + f);
  const __m512d z = s * s;
  const __m512d z2 = z * z;
  const __m512d t1 = z2 * (kLg2 + z2 * (kLg4 + z2 * kLg6));
  const __m512d t2 = z * (kLg1 + z2 * (kLg3 + z2 * (kLg5 + z2 * kLg7)));
  const __m512d r = t2 + t1;
  const __m512d hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// box_muller::SinCosTurn, lane-wise; the swap is a mask blend, the signs
// are sign-bit masks.
CSOD_AVX512 inline void SinCosTurn8(__m512i w, __m512d* cos_out,
                                    __m512d* sin_out) {
  using namespace box_muller;
  const __m512i one = Set64(1);
  const __m512i octant = Srl64(w, 61);
  const __m512i reflect = Srl64(
      _mm512_sub_epi64(_mm512_setzero_si512(), _mm512_and_si512(octant, one)),
      12);
  const __m512i t = _mm512_xor_si512(Srl64(Sll64(w, 3), 12), reflect);
  const __m512d x =
      _mm512_cvtepu64_pd(_mm512_or_si512(Sll64(t, 1), one)) * kQuarterPiUlp;
  const __m512d z = x * x;
  const __m512d sr = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const __m512d sin_x = x + (z * x) * (kS1 + z * sr);
  const __m512d cr =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const __m512d hz = 0.5 * z;
  const __m512d head = 1.0 - hz;
  const __m512d cos_x = head + (((1.0 - head) - hz) + z * cr);
  // Bit 1 of octant + 1: octants 1, 2, 5, 6.
  const __mmask8 swap =
      _mm512_test_epi64_mask(_mm512_add_epi64(octant, one), Set64(2));
  const __m512d c = _mm512_mask_blend_pd(swap, cos_x, sin_x);
  const __m512d s = _mm512_mask_blend_pd(swap, sin_x, cos_x);
  // Bit 0 of (octant + 2) >> 2, resp. octant >> 2, moved to the sign bit.
  const __m512i cos_sign =
      Sll64(Srl64(_mm512_add_epi64(octant, Set64(2)), 2), 63);
  const __m512i sin_sign = Sll64(Srl64(octant, 2), 63);
  *cos_out = _mm512_xor_pd(c, _mm512_castsi512_pd(cos_sign));
  *sin_out = _mm512_xor_pd(s, _mm512_castsi512_pd(sin_sign));
}

CSOD_AVX512 void GaussianFillAvx512(uint64_t seed, const uint64_t* keys,
                                    size_t count, double* out) {
  const __m512i vseed = Set64(seed);
  // vpermt2q indices: lane l of the result takes lane idx[l] of k0 (0..7)
  // or of k1 (8..15).
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512i lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m512i k0 = _mm512_loadu_si512(keys + i);
    const __m512i k1 = _mm512_loadu_si512(keys + i + 8);
    // Pairs 0..7 in lanes 0..7: w1 their radius words (even keys), w2 their
    // angle words (odd keys).
    const __m512i w1 = SplitMix64x8(
        _mm512_xor_si512(vseed, _mm512_permutex2var_epi64(k0, even, k1)));
    const __m512i w2 = SplitMix64x8(
        _mm512_xor_si512(vseed, _mm512_permutex2var_epi64(k0, odd, k1)));
    const __m512d radius =
        _mm512_maskz_sqrt_pd(kAllLanes8, -2.0 * LogOpenUnit8(w1));
    __m512d c;
    __m512d s;
    SinCosTurn8(w2, &c, &s);
    const __m512d g0 = radius * c;
    const __m512d g1 = radius * s;
    _mm512_storeu_pd(out + i, _mm512_permutex2var_pd(g0, lo, g1));
    _mm512_storeu_pd(out + i + 8, _mm512_permutex2var_pd(g0, hi, g1));
  }
  GaussianFillAvx2(seed, keys + i, count - i, out + i);
}

// QuantizeEntry eight lanes wide: the AVX2 clamp, then vcvtpd2dq with
// round-to-nearest-even encoded in the instruction (exact, since the clamped
// value fits int32), then vpmovdb, a no-op narrowing on values within ±127.
CSOD_AVX512 void QuantizeAvx512(const double* g, size_t n, int8_t* out) {
  const __m512d bound = _mm512_set1_pd(kMaxAbsInt8Entry);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512d x = _mm512_loadu_pd(g + i) * kInt8StepsPerUnit;
    x = _mm512_maskz_max_pd(kAllLanes8,
                            _mm512_maskz_min_pd(kAllLanes8, x, bound), -bound);
    const __m256i words = _mm512_maskz_cvt_roundpd_epi32(
        kAllLanes8, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm256_maskz_cvtepi32_epi8(kAllLanes8, words));
  }
  QuantizePortable(g + i, n - i, out + i);
}

#undef CSOD_AVX512

#endif  // CSOD_SIMD_X86

Level DetectLevel() {
#if defined(CSOD_FORCE_PORTABLE_SIMD)
  return Level::kPortable;
#else
  const char* force = std::getenv("CSOD_FORCE_PORTABLE_SIMD");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Level::kPortable;
  }
  return SupportedLevel();
#endif
}

std::atomic<Level>& ActiveLevelSlot() {
  static std::atomic<Level> level{DetectLevel()};
  return level;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kPortable:
      return "portable";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Level SupportedLevel() {
#if CSOD_SIMD_X86
  // libgcc's probe reports an AVX or AVX-512 feature only when the OS also
  // saves the registers it needs (XCR0).
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kPortable;
}

Level ActiveLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

Level SetLevelForTesting(Level level) {
  return ActiveLevelSlot().exchange(std::min(level, SupportedLevel()),
                                    std::memory_order_relaxed);
}

// Dispatch. The double and int8 overloads of a kernel forward to one
// template per ISA path, so the two forms cannot drift apart. A kernel with
// no AVX-512 form runs its AVX2 form at kAvx512; CSOD_SIMD_DISPATCH512
// dispatches the six that have one.
#if CSOD_SIMD_X86
#define CSOD_SIMD_DISPATCH(kernel, ...)                      \
  (ActiveLevel() >= Level::kAvx2 ? kernel##Avx2(__VA_ARGS__) \
                                 : kernel##Portable(__VA_ARGS__))
#define CSOD_SIMD_DISPATCH512(kernel, ...)                         \
  (ActiveLevel() == Level::kAvx512 ? kernel##Avx512(__VA_ARGS__) \
                                   : CSOD_SIMD_DISPATCH(kernel, __VA_ARGS__))
#else
#define CSOD_SIMD_DISPATCH(kernel, ...) kernel##Portable(__VA_ARGS__)
#define CSOD_SIMD_DISPATCH512(kernel, ...) kernel##Portable(__VA_ARGS__)
#endif

double Dot(const double* a, const double* b, size_t n) {
  return CSOD_SIMD_DISPATCH(Dot, a, b, n);
}
double Dot(const int8_t* a, const double* b, size_t n) {
  return CSOD_SIMD_DISPATCH(Dot, a, b, n);
}

void Dot4(const double* c0, const double* c1, const double* c2,
          const double* c3, const double* r, size_t n, double out[4]) {
  CSOD_SIMD_DISPATCH(Dot4, c0, c1, c2, c3, r, n, out);
}
void Dot4(const int8_t* c0, const int8_t* c1, const int8_t* c2,
          const int8_t* c3, const double* r, size_t n, double out[4]) {
  CSOD_SIMD_DISPATCH(Dot4, c0, c1, c2, c3, r, n, out);
}
void ScreenColumns(const int8_t* cols, size_t m, size_t count,
                   const int16_t* rho, int32_t* out) {
  CSOD_SIMD_DISPATCH512(ScreenColumns, cols, m, count, rho, out);
}

void Axpy(double* acc, const double* col, double x, size_t n) {
  CSOD_SIMD_DISPATCH(Axpy, acc, col, x, n);
}
void Axpy(double* acc, const int8_t* col, double x, size_t n) {
  CSOD_SIMD_DISPATCH512(Axpy, acc, col, x, n);
}

void Axpy4(double* acc, const double* c0, double x0, const double* c1,
           double x1, const double* c2, double x2, const double* c3, double x3,
           size_t n) {
  CSOD_SIMD_DISPATCH(Axpy4, acc, c0, x0, c1, x1, c2, x2, c3, x3, n);
}
void Axpy4(double* acc, const int8_t* c0, double x0, const int8_t* c1,
           double x1, const int8_t* c2, double x2, const int8_t* c3, double x3,
           size_t n) {
  CSOD_SIMD_DISPATCH512(Axpy4, acc, c0, x0, c1, x1, c2, x2, c3, x3, n);
}

void Axpy8(double* acc, const double* const cols[8], const double xs[8],
           size_t n) {
  CSOD_SIMD_DISPATCH(Axpy8, acc, cols, xs, n);
}
void Axpy8(double* acc, const int8_t* const cols[8], const double xs[8],
           size_t n) {
  CSOD_SIMD_DISPATCH512(Axpy8, acc, cols, xs, n);
}

void Add(double* acc, const double* src, size_t n) {
  CSOD_SIMD_DISPATCH(Add, acc, src, n);
}
void Add(double* acc, const int8_t* src, size_t n) {
  CSOD_SIMD_DISPATCH(Add, acc, src, n);
}

void Add4(double* acc, const double* s0, const double* s1, const double* s2,
          const double* s3, size_t n) {
  CSOD_SIMD_DISPATCH(Add4, acc, s0, s1, s2, s3, n);
}
void Add4(double* acc, const int8_t* s0, const int8_t* s1, const int8_t* s2,
          const int8_t* s3, size_t n) {
  CSOD_SIMD_DISPATCH(Add4, acc, s0, s1, s2, s3, n);
}

void Scale(double* v, double s, size_t n) {
  CSOD_SIMD_DISPATCH(Scale, v, s, n);
}

void GaussianFill(uint64_t seed, const uint64_t* keys, size_t count,
                  double* out) {
  CSOD_SIMD_DISPATCH512(GaussianFill, seed, keys, count, out);
}
void Quantize(const double* g, size_t n, int8_t* out) {
  CSOD_SIMD_DISPATCH512(Quantize, g, n, out);
}

void GaussianFill(uint64_t seed, const uint64_t* keys, size_t count,
                  int8_t* out) {
  // Through a stack block of doubles, whose even length keeps every block
  // on a whole pair.
  constexpr size_t kBlock = 256;
  double g[kBlock];
  for (size_t i = 0; i < count; i += kBlock) {
    const size_t block = std::min(kBlock, count - i);
    GaussianFill(seed, keys + i, block, g);
    Quantize(g, block, out + i);
  }
}

#undef CSOD_SIMD_DISPATCH512
#undef CSOD_SIMD_DISPATCH

}  // namespace csod::simd
