#ifndef CSOD_CS_BASIS_PURSUIT_H_
#define CSOD_CS_BASIS_PURSUIT_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/dictionary.h"
#include "cs/measurement_matrix.h"

namespace csod::cs {

/// Tuning knobs for the FISTA basis-pursuit solver.
struct BasisPursuitOptions {
  /// L1 regularization weight λ in  min ½||y - Φx||² + λ||x||₁.
  /// When <= 0, a data-dependent default λ = 0.01 * ||Φᵀy||_∞ is used.
  double lambda = 0.0;
  /// Maximum FISTA iterations.
  size_t max_iterations = 500;
  /// Stop when the relative change of the iterate drops below this.
  double tolerance = 1e-8;
  /// Atom indices exempt from the L1 penalty (used by the biased variant
  /// to leave the bias coefficient free). Must be sorted or small.
  std::vector<size_t> unpenalized_atoms;
  /// Telemetry sink ("fista.*" histograms + the "fista.recover" span) —
  /// the same parity as BOMP. Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Outcome of a basis-pursuit recovery.
struct BasisPursuitResult {
  /// Recovered dense vector x̂ (size N).
  std::vector<double> x;
  /// Iterations executed.
  size_t iterations = 0;
  /// ||y - Φx̂||₂ at termination.
  double final_residual_norm = 0.0;
};

/// \brief Basis Pursuit denoising via FISTA — the convex-relaxation
/// recovery alternative the paper contrasts OMP against (Section 2.2).
///
/// Solves `min_x ½||y − Φ0 x||² + λ||x||₁` with the accelerated proximal
/// gradient method; the step size comes from a power-iteration estimate of
/// `σ_max(Φ0)²`. Only suitable for data sparse at zero (the limitation
/// that motivates BOMP); used as a baseline and in ablation benches.
Result<BasisPursuitResult> RunBasisPursuit(const MeasurementMatrix& matrix,
                                           const std::vector<double>& y,
                                           const BasisPursuitOptions& options);

/// Basis pursuit over an abstract dictionary (the generic form; the
/// matrix overload above delegates here).
Result<BasisPursuitResult> RunBasisPursuit(const Dictionary& dictionary,
                                           const std::vector<double>& y,
                                           const BasisPursuitOptions& options);

/// \brief Biased Basis Pursuit: the library's L1 counterpart to BOMP.
///
/// Applies FISTA to the BOMP-extended dictionary `[φ0, Φ0]` — only the
/// data coefficients are L1-penalized; the bias coefficient is left free
/// (it is not sparse). Recovers both the unknown mode and the outliers by
/// convex relaxation; compared against BOMP in `bench/ablation_recovery`.
Result<BompResult> RunBiasedBasisPursuit(const MeasurementMatrix& matrix,
                                         const std::vector<double>& y,
                                         const BasisPursuitOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_BASIS_PURSUIT_H_
