#ifndef CSOD_COMMON_SIMD_H_
#define CSOD_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace csod::simd {

/// \brief Runtime-dispatched dense kernels with a *canonical* floating-point
/// summation tree, shared by every ISA path.
///
/// The repo's determinism contract ("bit-identical results at any
/// parallelism limit", DESIGN.md §6) extends here across instruction sets:
/// the AVX-512, AVX2 and portable implementations of every kernel below
/// produce bit-identical results, by construction rather than by accident.
///
/// How: reductions (`Dot`, `Dot4`) split the index space into a fixed
/// 8-accumulator lane split — lane `l` sums the elements at positions
/// `i ≡ l (mod 8)` in ascending order, the tail continues the same pattern,
/// and the eight lane sums are folded in the fixed order
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. The AVX2 path holds the lanes in
/// two 4-wide vector accumulators and performs the identical per-lane
/// additions; the portable path keeps eight scalars (which the compiler may
/// itself vectorize — any lane-preserving vectorization is bit-safe because
/// the lanes never mix). Element-wise kernels (`Axpy*`, `Add*`, `Scale`)
/// have no reduction at all, so per-element identity is automatic.
///
/// FMA is deliberately NOT used: a fused multiply-add rounds once where
/// mul-then-add rounds twice, which would break bit-identity between the
/// vector and portable paths (and against the pre-existing scalar kernels).
/// The AVX2 kernels are compiled for AVX2 without FMA, so the compiler has
/// no fused instruction to emit. The AVX-512 kernels cannot be: AVX-512F
/// implies FMA, and their exactness rests on `-ffp-contract=off`, which
/// src/common/CMakeLists.txt sets PUBLIC on csod_common;
/// `SimdTest.Int8AxpyKernelsRoundTheProductBeforeTheAdd` fails without it.
///
/// The fused 4-stream variants (`Dot4`, `Axpy4`, `Add4`) amortize one pass
/// over the shared operand across four streams; each stream's per-element
/// operation order is identical to the 1-stream kernel, so
/// `Axpy4(acc, c0,x0, ..., c3,x3)` is bit-identical to four sequential
/// `Axpy` calls — callers may batch freely without changing results.
///
/// Int8 columns: every kernel that reads a column (`Dot*`'s `a`/`c*`,
/// `Axpy*`'s `col`/`cols`, `Add*`'s `src`/`s*`) also takes `const int8_t*`,
/// Φ0's stored entries (cs::kPhi0Format 5). The int8 overloads widen each
/// element to double in-register (exact), then run the identical double
/// arithmetic in the identical order, so an int8 overload is bit-identical
/// to its double form on the widened column, on every ISA path. The other
/// operands (`r`, `acc`, `x`) and every result stay double, except in the
/// integer screen kernel below. Storing Φ0's columns as int8 cuts the bytes
/// a correlate streams to one per entry without a second summation tree.
/// Vector loads touch only full 4-, 8-, 16- or 32-element groups, or use
/// masked loads that read only the elements they keep; tails are scalar, so
/// no path reads past element n - 1.
enum class Level {
  kPortable = 0,  ///< Fixed-8-lane scalar kernels (any platform).
  kAvx2 = 1,      ///< AVX2 4-wide double kernels (x86-64, no FMA).
  /// AVX-512 (F, BW, DQ, VL): the int8 `Axpy`, `Axpy4` and `Axpy8` run
  /// eight rows per register and `ScreenColumns` 32 entries per step; every
  /// other kernel runs its AVX2 form.
  kAvx512 = 2,
};

/// Every level, lowest first. Tests and benchmarks that compare the paths
/// loop over this list; SetLevelForTesting clamps a level the host lacks.
inline constexpr Level kAllLevels[] = {Level::kPortable, Level::kAvx2,
                                       Level::kAvx512};

/// Human-readable name ("portable" / "avx2" / "avx512") for logs and bench
/// output.
const char* LevelName(Level level);

/// The best level the running CPU and OS support (raw probe; ignores level
/// overrides): kAvx512 when they report AVX512F, BW, DQ and VL, else kAvx2
/// when they report AVX2, else kPortable. A CPU, or a VM, that masks a bit
/// gets the level below.
Level SupportedLevel();

/// The level the kernels currently dispatch to. Resolved once on first use:
/// SupportedLevel(), unless compiled with -DCSOD_FORCE_PORTABLE_SIMD or run
/// with CSOD_FORCE_PORTABLE_SIMD=1 in the environment (both force the
/// portable path).
Level ActiveLevel();

/// Overrides the dispatch level (clamped to SupportedLevel()) and returns
/// the previously active level. For tests and benchmarks that compare the
/// paths inside one binary; also works in CSOD_FORCE_PORTABLE_SIMD builds,
/// where the vector code is still compiled.
Level SetLevelForTesting(Level level);

/// Σ_i a[i] * b[i] over the canonical 8-lane split.
double Dot(const double* a, const double* b, size_t n);
double Dot(const int8_t* a, const double* b, size_t n);

/// Four dots sharing one pass over r: out[k] = Σ_i ck[i] * r[i].
/// Each out[k] is bit-identical to Dot(ck, r, n).
void Dot4(const double* c0, const double* c1, const double* c2,
          const double* c3, const double* r, size_t n, double out[4]);
void Dot4(const int8_t* c0, const int8_t* c1, const int8_t* c2,
          const int8_t* c3, const double* r, size_t n, double out[4]);

/// The largest |entry| an int8 column holds: Φ0's entries are clamped to
/// ±127 (GaussianFill), so -128 never occurs.
inline constexpr int32_t kMaxAbsInt8Entry = 127;

/// \brief The overflow rule of the screen kernel: the largest |b[i]| at which
/// Σ_i |a[i]|·|b[i]| over n elements with |a[i]| ≤ kMaxAbsInt8Entry stays
/// at most 2^31 − 1. That is min(32767, ⌊(2^31 − 1) / (127·n)⌋): 32767 up
/// to n = 516, 1 at n = 16,909,320, and 0 beyond, where no nonzero residual
/// fits.
constexpr int32_t ScreenResidualLimit(size_t n) {
  constexpr uint64_t kMaxSum = uint64_t{0x7fffffff};
  if (n > kMaxSum / kMaxAbsInt8Entry) return 0;
  const uint64_t limit = n == 0 ? kMaxSum : kMaxSum / (kMaxAbsInt8Entry * n);
  return limit < 32767 ? static_cast<int32_t>(limit) : 32767;
}

/// \brief The screen kernel: `count` int8 columns against one int16
/// residual, in exact integer arithmetic.
///
/// Sets out[j] = Σ_i cols[j·m + i]·rho[i] for the `count` contiguous
/// M-entry columns at `cols`. When |rho[i]| ≤ ScreenResidualLimit(m) and
/// every |entry| ≤ kMaxAbsInt8Entry, no partial sum exceeds 2^31 − 1 in
/// magnitude, so every summation order gives the exact sum and every path
/// writes the same values. The vector paths score four columns per pass
/// over rho. AVX2 widens sixteen int8 entries to int16 (vpmovsxbw), sums
/// their products pairwise into eight int32 lanes per column (vpmaddwd),
/// takes one 8-entry SSE step when m % 16 ≥ 8, and folds the four columns'
/// lanes in one shared hadd tree; the m % 8 tail entries are scalar.
/// AVX-512 takes 32 entries per step into sixteen lanes and reads the
/// m % 32 tail with masked loads, which read nothing past the column or
/// rho. The portable path sums each column in plain int32, where a residual
/// past the rule is a signed overflow that UBSan reports. The count % 4
/// last columns are scalar. Every path prefetches the bytes 4 KB past the
/// columns it scores, since the hardware prefetcher follows an ascending
/// stream only within a 4 KB page; those bytes may lie past the block, which
/// is safe because a prefetch is a hint that never faults.
/// MeasurementMatrix::CorrelateTop scores Φ0 a block of columns per call and
/// rules out columns under the error bound of docs/THEORY.md §9.
void ScreenColumns(const int8_t* cols, size_t m, size_t count,
                   const int16_t* rho, int32_t* out);

/// acc[i] += col[i] * x (element-wise; bit-identical on every path).
/// The int8 forms of Axpy, Axpy4 and Axpy8 take eight rows per step at
/// kAvx512 (vpmovsxbq, vcvtqq2pd, then a separate multiply and add) and
/// four or eight at kAvx2; the rows past the last full step are scalar.
void Axpy(double* acc, const double* col, double x, size_t n);
void Axpy(double* acc, const int8_t* col, double x, size_t n);

/// Four fused axpys in one pass over acc:
/// acc[i] = (((acc[i] + c0[i]*x0) + c1[i]*x1) + c2[i]*x2) + c3[i]*x3,
/// bit-identical to four sequential Axpy calls in that order.
void Axpy4(double* acc, const double* c0, double x0, const double* c1,
           double x1, const double* c2, double x2, const double* c3,
           double x3, size_t n);
void Axpy4(double* acc, const int8_t* c0, double x0, const int8_t* c1,
           double x1, const int8_t* c2, double x2, const int8_t* c3,
           double x3, size_t n);

/// Eight fused axpys in one pass over acc (array-of-streams form):
/// acc[i] folds cols[0][i]*xs[0] .. cols[7][i]*xs[7] in stream order,
/// bit-identical to eight sequential Axpy calls. Eight concurrent column
/// streams keep more memory requests in flight than four, which is what
/// hides DRAM latency when the columns miss cache.
void Axpy8(double* acc, const double* const cols[8], const double xs[8],
           size_t n);
void Axpy8(double* acc, const int8_t* const cols[8], const double xs[8],
           size_t n);

/// acc[i] += src[i].
void Add(double* acc, const double* src, size_t n);
void Add(double* acc, const int8_t* src, size_t n);

/// Four fused adds in one pass over acc, bit-identical to four sequential
/// Add calls in s0..s3 order.
void Add4(double* acc, const double* s0, const double* s1, const double* s2,
          const double* s3, size_t n);
void Add4(double* acc, const int8_t* s0, const int8_t* s1, const int8_t* s2,
          const int8_t* s3, size_t n);

/// v[i] *= s.
void Scale(double* v, double s, size_t n);

/// Φ0's entries count in steps of 1/kInt8StepsPerUnit standard deviations.
inline constexpr double kInt8StepsPerUnit = 16.0;

/// \brief One Φ0 entry from its Gaussian g: clamp(roundeven(16·g), ±127).
///
/// 16·g is exact. Clamping before rounding gives the same integer, since
/// both bounds are integers; the clamp acts only for |g| ≥ 7.96875, which a
/// standard normal reaches with probability ~10⁻¹⁵. Adding and subtracting
/// 1.5·2^52 rounds any |x| ≤ 2^51 to an integer, ties to even, in IEEE
/// double arithmetic, so no libm call is involved. Quantize's AVX2 path
/// rounds with vroundpd instead, to the same integers.
inline int8_t QuantizeEntry(double g) {
  double x = g * kInt8StepsPerUnit;
  const double bound = kMaxAbsInt8Entry;
  x = x < -bound ? -bound : (x > bound ? bound : x);
  return static_cast<int8_t>((x + 0x1.8p52) - 0x1.8p52);
}

/// out[i] = QuantizeEntry(g[i]) for i in [0, n), on either path.
void Quantize(const double* g, size_t n, int8_t* out);

/// \brief The counter Gaussian generator (CounterGaussian::Fill's kernel).
///
/// Writes out[i] for positions i in [0, count): pair p = (2p, 2p + 1) holds
/// box_muller::Pair(SplitMix64(seed ^ keys[2p]), SplitMix64(seed ^
/// keys[2p + 1])), stored as the double g or as the int8 QuantizeEntry(g).
/// `keys` holds `count` rounded up to a whole pair (CounterGaussian::Keys);
/// an odd count writes only the last pair's first variate. Every operation
/// of the transform is IEEE-exact and FMA-free, and the AVX2 path runs the
/// scalar sequence four pairs wide, with the 64-bit SplitMix64 multiply
/// built from 32-bit products and the 53-bit integer-to-double conversion
/// done in two exact halves — so both paths write identical bits. Vector loads and stores
/// touch only whole groups of four pairs; tails are scalar.
void GaussianFill(uint64_t seed, const uint64_t* keys, size_t count,
                  double* out);
void GaussianFill(uint64_t seed, const uint64_t* keys, size_t count,
                  int8_t* out);

}  // namespace csod::simd

#endif  // CSOD_COMMON_SIMD_H_
