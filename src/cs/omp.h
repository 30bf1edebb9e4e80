#ifndef CSOD_CS_OMP_H_
#define CSOD_CS_OMP_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.h"
#include "cs/dictionary.h"
#include "obs/telemetry.h"

namespace csod::cs {

/// Per-iteration snapshot passed to OmpOptions::iteration_callback.
/// References stay valid only for the duration of the callback.
struct OmpIterationInfo {
  /// 1-based iteration count.
  size_t iteration = 0;
  /// Atom selected this iteration.
  size_t selected_atom = 0;
  /// ||r||_2 after the projection update of this iteration.
  double residual_norm = 0.0;
  /// All selected atoms so far, in selection order.
  const std::vector<size_t>* selected = nullptr;
  /// Least-squares coefficients for `selected` (same order). Only populated
  /// when OmpOptions::solve_coefficients_each_iteration is set.
  const std::vector<double>* coefficients = nullptr;
};

/// OMP and CoSaMP stop once ||r||_2 <= kResidualTolerance * ||y||_2.
inline constexpr double kResidualTolerance = 1e-9;

/// Tuning knobs for the OMP column-selection loop (Algorithm 2).
struct OmpOptions {
  /// Maximum number of iterations R. The paper tunes R = f(k) in [2k, 5k]
  /// (Section 5). The effective cap is min(R, M, num_atoms).
  size_t max_iterations = 0;

  /// Section 5 floating-point remedy: "terminate the recovery process once
  /// the residual stops decreasing".
  bool stop_on_residual_stagnation = true;

  /// Solve the least-squares coefficients after every iteration (needed for
  /// per-iteration mode traces, Figs. 4(b)/9). Adds O(r*M) per iteration.
  bool solve_coefficients_each_iteration = false;

  /// Optional observer invoked after each iteration.
  std::function<void(const OmpIterationInfo&)> iteration_callback;

  /// Telemetry sink for the iteration/residual trajectory (DESIGN.md §9:
  /// "omp.*" histograms). Null or disabled costs one branch per iteration.
  obs::Telemetry* telemetry = nullptr;
};

/// Outcome of an OMP run.
struct OmpResult {
  /// Selected atom indices in selection order.
  std::vector<size_t> selected;
  /// Final least-squares coefficients z (same order as `selected`):
  /// y ≈ Σ z_i * atom(selected_i).
  std::vector<double> coefficients;
  /// ||r||_2 after each iteration.
  std::vector<double> residual_norms;
  /// Number of iterations executed.
  size_t iterations = 0;
  /// True when the Section-5 stagnation rule fired.
  bool stopped_by_stagnation = false;
  /// Final residual norm (== residual_norms.back() when non-empty).
  double final_residual_norm = 0.0;
};

/// \brief Orthogonal Matching Pursuit (Tropp & Gilbert) over an abstract
/// dictionary, with QR-based projection.
///
/// Each iteration selects the atom with the largest absolute inner product
/// with the residual, appends it to an incremental QR factorization, and
/// re-projects `y` onto the selected subspace. Runs standard OMP when given
/// a MatrixDictionary and the BOMP inner loop when given an
/// ExtendedDictionary.
Result<OmpResult> RunOmp(const Dictionary& dictionary,
                         const std::vector<double>& y,
                         const OmpOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_OMP_H_
