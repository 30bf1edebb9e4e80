#ifndef CSOD_CS_BOMP_H_
#define CSOD_CS_BOMP_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/measurement_matrix.h"
#include "cs/omp.h"

namespace csod::cs {

/// One recovered non-mode component of the data vector.
struct RecoveredEntry {
  /// Position in the global key dictionary, 0 <= index < N.
  size_t index = 0;
  /// Recovered value x̂_index (already includes the mode shift z0/√N).
  double value = 0.0;
};

/// Tuning knobs for BOMP (Algorithm 1).
struct BompOptions {
  /// OMP iteration budget R. The paper uses R = f(k) ∈ [2k, 5k]
  /// (Section 5); see `DefaultIterationsForK`.
  size_t max_iterations = 0;

  /// Record the mode estimate b after every iteration (Figures 4(b), 9).
  /// Costs an extra least-squares solve per iteration.
  bool record_mode_trace = false;

  /// Passed through to the inner OMP (Section 5 remedy).
  bool stop_on_residual_stagnation = true;

  /// Telemetry sink ("bomp.*" histograms + the "bomp.recover" span; also
  /// forwarded to the inner OMP). Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Outcome of a BOMP recovery.
struct BompResult {
  /// Estimated mode b = z0 / √N. Zero when the bias atom was never
  /// selected (data sparse at zero).
  double mode = 0.0;

  /// True when the bias atom was selected by some OMP iteration.
  bool bias_selected = false;

  /// Recovered non-mode components (the outlier candidate set O), in OMP
  /// selection order. At most R - 1 entries (Section 3.2).
  std::vector<RecoveredEntry> entries;

  /// Mode estimate after each OMP iteration (empty unless
  /// BompOptions::record_mode_trace). trace[i] is the estimate after
  /// iteration i+1; zero before the bias atom is selected.
  std::vector<double> mode_trace;

  /// Inner OMP diagnostics. `iterations` counts selected atoms; `passes`
  /// counts the correlate sweeps over Φ0 that selected them (OmpResult;
  /// 0 from RunBiasedBasisPursuit, which does not run the OMP loop).
  size_t iterations = 0;
  size_t passes = 0;
  bool stopped_by_stagnation = false;
  double final_residual_norm = 0.0;

  /// Materializes the full recovered vector x̂ of size `n`: `mode`
  /// everywhere except the recovered entries.
  std::vector<double> Materialize(size_t n) const;
};

/// The paper's default iteration budget R = f(k): midpoint of the tuned
/// range [2k, 5k] (Section 5), never below 8 so tiny k still converges.
size_t DefaultIterationsForK(size_t k);

/// The budget R a detector runs with: `configured` when the caller set one,
/// else the paper's f(k). Every `iterations = 0 means f(k)` option resolves
/// here. R counts atoms; BOMP selects kAtomsPerPass (omp.h) of them per Φ0
/// sweep, so a solve makes at most ⌈R/2⌉ + 1 sweeps.
size_t IterationBudget(size_t configured, size_t k);

/// \brief Biased OMP (Algorithm 1): recovers a vector whose values
/// concentrate around an *unknown* non-zero mode from the measurement
/// `y = Φ0 x`.
///
/// Extends the measurement matrix with the bias column
/// `φ0 = (1/√N) Σ φ_i`, runs standard OMP on the extended problem, and
/// maps the extended solution ẑ back:
/// `b = z0/√N`, `x̂_i = z_i + z0/√N` (Equation 4).
Result<BompResult> RunBomp(const MeasurementMatrix& matrix,
                           const std::vector<double>& y,
                           const BompOptions& options);

/// \brief Standard-OMP recovery with a mode that is known in advance
/// (the Figure 4(a) baseline "OMP+known mode").
///
/// Shifts the measurement by the known bias (`y' = y - b·Φ0·1`), recovers
/// the sparse deviation with plain OMP, and shifts back.
Result<BompResult> RecoverWithKnownMode(const MeasurementMatrix& matrix,
                                        const std::vector<double>& y,
                                        double known_mode,
                                        const BompOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_BOMP_H_
