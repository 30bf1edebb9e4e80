#ifndef CSOD_COMMON_SIMD_H_
#define CSOD_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "common/half.h"

namespace csod::simd {

/// \brief Runtime-dispatched dense kernels with a *canonical* floating-point
/// summation tree, shared by every ISA path.
///
/// The repo's determinism contract ("bit-identical results at any
/// parallelism limit", DESIGN.md §6) extends here across instruction sets:
/// the AVX2 and portable implementations of every kernel below produce
/// bit-identical results, by construction rather than by accident.
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
/// AVX2 and portable paths (and against the pre-existing scalar kernels).
/// Dispatch therefore keys on AVX2 and F16C (for the half conversions), not
/// on FMA.
///
/// The fused 4-stream variants (`Dot4`, `Axpy4`, `Add4`) amortize one pass
/// over the shared operand across four streams; each stream's per-element
/// operation order is identical to the 1-stream kernel, so
/// `Axpy4(acc, c0,x0, ..., c3,x3)` is bit-identical to four sequential
/// `Axpy` calls — callers may batch freely without changing results.
///
/// Half columns: every kernel that reads a column (`Dot*`'s `a`/`c*`,
/// `Axpy*`'s `col`/`cols`, `Add*`'s `src`/`s*`) also takes `const Half*`
/// (binary16, common/half.h). The half overloads widen each element half →
/// float → double in-register (both steps exact; F16C on the AVX2 path,
/// HalfToFloat on the portable one), then run the identical double
/// arithmetic in the identical order, so a half overload is bit-identical
/// to its double form on the widened column, on every ISA path. The other
/// operands (`r`, `acc`, `x`) and every result stay double, except in the
/// float screen dots below. Storing Φ0's columns as halves quarters the
/// bytes a correlate streams without a second summation tree. Vector loads
/// touch only full 4- or 8-element groups; tails are scalar, so no path
/// reads past element n - 1.
enum class Level {
  kPortable = 0,  ///< Fixed-8-lane scalar kernels (any platform).
  kAvx2 = 1,      ///< AVX2 4-wide double kernels + F16C (x86-64, no FMA).
};

/// Human-readable name ("portable" / "avx2") for logs and bench output.
const char* LevelName(Level level);

/// The CPUID bits the kAvx2 level needs.
struct CpuFeatures {
  bool avx2 = false;
  bool f16c = false;
};

/// True iff the running CPU supports AVX2 and F16C (raw probe; ignores
/// level overrides). A CPU, or a VM, that masks either bit gets the
/// portable level.
bool Avx2Supported();

/// Replaces the CPUID probe behind Avx2Supported() (nullptr restores the
/// real one) and returns the previous replacement, or nullptr. For tests of
/// the dispatch rule.
using CpuProbe = CpuFeatures (*)();
CpuProbe SetCpuProbeForTesting(CpuProbe probe);

/// The level the kernels currently dispatch to. Resolved once on first use:
/// AVX2 when the CPU supports it, unless compiled with
/// -DCSOD_FORCE_PORTABLE_SIMD or run with CSOD_FORCE_PORTABLE_SIMD=1 in the
/// environment (both force the portable path).
Level ActiveLevel();

/// Overrides the dispatch level (clamped to kPortable when Avx2Supported()
/// is false) and returns the previously active level. For tests and
/// benchmarks that compare the two paths inside one binary; also works in
/// CSOD_FORCE_PORTABLE_SIMD builds, where the AVX2 code is still compiled.
Level SetLevelForTesting(Level level);

/// Σ_i a[i] * b[i] over the canonical 8-lane split.
double Dot(const double* a, const double* b, size_t n);
double Dot(const Half* a, const double* b, size_t n);

/// Four dots sharing one pass over r: out[k] = Σ_i ck[i] * r[i].
/// Each out[k] is bit-identical to Dot(ck, r, n).
void Dot4(const double* c0, const double* c1, const double* c2,
          const double* c3, const double* r, size_t n, double out[4]);
void Dot4(const Half* c0, const Half* c1, const Half* c2, const Half* c3,
          const double* r, size_t n, double out[4]);

/// \brief The screen dots: half × float in float arithmetic.
///
/// Each half widens exactly to float, and every product and sum rounds to
/// float, on the same 8-lane split and fold as the double Dot. The AVX2 path
/// holds the eight lanes in one 8-wide float vector, so it does the work of
/// the double kernel's two 4-wide vectors in one and skips the float →
/// double widening; both paths give identical bits. The value is an
/// approximation of the double Dot's: MeasurementMatrix::CorrelateArgmax
/// uses it only to rule out columns, under the error bound of
/// docs/THEORY.md §9. Dot4's out[k] is bit-identical to Dot(ck, r, n).
float Dot(const Half* a, const float* b, size_t n);
void Dot4(const Half* c0, const Half* c1, const Half* c2, const Half* c3,
          const float* r, size_t n, float out[4]);

/// acc[i] += col[i] * x (element-wise; bit-identical on every path).
void Axpy(double* acc, const double* col, double x, size_t n);
void Axpy(double* acc, const Half* col, double x, size_t n);

/// Four fused axpys in one pass over acc:
/// acc[i] = (((acc[i] + c0[i]*x0) + c1[i]*x1) + c2[i]*x2) + c3[i]*x3,
/// bit-identical to four sequential Axpy calls in that order.
void Axpy4(double* acc, const double* c0, double x0, const double* c1,
           double x1, const double* c2, double x2, const double* c3,
           double x3, size_t n);
void Axpy4(double* acc, const Half* c0, double x0, const Half* c1,
           double x1, const Half* c2, double x2, const Half* c3, double x3,
           size_t n);

/// Eight fused axpys in one pass over acc (array-of-streams form):
/// acc[i] folds cols[0][i]*xs[0] .. cols[7][i]*xs[7] in stream order,
/// bit-identical to eight sequential Axpy calls. Eight concurrent column
/// streams keep more memory requests in flight than four, which is what
/// hides DRAM latency when the columns miss cache.
void Axpy8(double* acc, const double* const cols[8], const double xs[8],
           size_t n);
void Axpy8(double* acc, const Half* const cols[8], const double xs[8],
           size_t n);

/// acc[i] += src[i].
void Add(double* acc, const double* src, size_t n);
void Add(double* acc, const Half* src, size_t n);

/// Four fused adds in one pass over acc, bit-identical to four sequential
/// Add calls in s0..s3 order.
void Add4(double* acc, const double* s0, const double* s1, const double* s2,
          const double* s3, size_t n);
void Add4(double* acc, const Half* s0, const Half* s1, const Half* s2,
          const Half* s3, size_t n);

/// v[i] *= s.
void Scale(double* v, double s, size_t n);

/// \brief The counter Gaussian generator (CounterGaussian::Fill's kernel).
///
/// Writes out[i] for positions i in [0, count): pair p = (2p, 2p + 1) holds
/// box_muller::Pair(SplitMix64(seed ^ keys[2p]), SplitMix64(seed ^
/// keys[2p + 1])), stored as the double g or as the half
/// FloatToHalf(float(g)) (the AVX2 path rounds with F16C, same bits).
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
                  Half* out);

}  // namespace csod::simd

#endif  // CSOD_COMMON_SIMD_H_
