#ifndef CSOD_CS_AMP_H_
#define CSOD_CS_AMP_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/dictionary.h"
#include "cs/measurement_matrix.h"

namespace csod::cs {

/// Tuning knobs for the AMP (approximate message passing) solver.
struct AmpOptions {
  /// Iteration budget T. 0 selects `DefaultAmpIterations()`. Unlike the
  /// greedy solvers, the per-iteration cost is support-independent (one
  /// Φ·x and one Φᵀ·z matvec), so T stays flat as sparsity grows — that
  /// flatness is the whole point of the engine (see DESIGN.md §14).
  size_t max_iterations = 0;

  /// Stop when the relative iterate change ||x_{t+1}−x_t||/||x_{t+1}||
  /// drops below this.
  double tolerance = 1e-9;

  /// Atom indices exempt from thresholding (the biased variant leaves the
  /// bias coefficient free, exactly like basis pursuit's
  /// `unpenalized_atoms`).
  std::vector<size_t> unthresholded_atoms;

  /// Telemetry sink ("amp.*" histograms + the "amp.recover" span). Null
  /// or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Outcome of an AMP recovery.
struct AmpResult {
  /// Recovered dense coefficient vector (size = num_atoms). Exactly zero
  /// outside the detected support.
  std::vector<double> x;
  size_t iterations = 0;
  /// ||y − Φx̂||₂ at termination (after the debias pass).
  double final_residual_norm = 0.0;
  /// Per-iteration effective-noise estimates σ̂_t (the state-evolution
  /// trajectory; decays geometrically when AMP is converging).
  std::vector<double> sigma_trace;
};

/// Default AMP iteration budget: a fixed 40. AMP converges geometrically
/// in the regimes the protocols operate in (σ̂ contracts per iteration),
/// so unlike OMP's R = f(k) the budget does not scale with sparsity; the
/// tolerance check usually stops the loop much earlier.
size_t DefaultAmpIterations();

/// \brief AMP recovery over an abstract dictionary (Donoho–Maleki–
/// Montanari iteration):
///
///     x_{t+1} = η(x_t + Φᵀ z_t; θ_t)                      (soft threshold)
///     z_{t+1} = y − Φ x_{t+1} + (|supp x_{t+1}|/M) · z_t  (Onsager term)
///
/// Both matvecs are the dictionary's existing `ParallelFor`-blocked SIMD
/// kernels (fixed-lane summation trees, fixed block geometry), and every
/// element-wise update runs serially, so the result is bit-identical
/// across thread limits and ISAs — the same determinism contract as the
/// greedy solvers. Cost per iteration is 2·M·N flops regardless of
/// sparsity; see `bench/bench_recovery` for the crossover against OMP.
Result<AmpResult> RunAmp(const Dictionary& dictionary,
                         const std::vector<double>& y,
                         const AmpOptions& options);

/// AMP over the plain measurement matrix (data sparse at zero).
Result<AmpResult> RunAmp(const MeasurementMatrix& matrix,
                         const std::vector<double>& y,
                         const AmpOptions& options);

/// \brief Biased AMP: AMP over the BOMP-extended dictionary `[φ0, Φ0]`
/// with the bias coefficient unthresholded, recovering data concentrated
/// around an unknown mode. Returns the same shape as BOMP (mode +
/// recovered entries) for drop-in use by the protocols and the Detector.
Result<BompResult> RunBiasedAmp(const MeasurementMatrix& matrix,
                                const std::vector<double>& y,
                                const AmpOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_AMP_H_
