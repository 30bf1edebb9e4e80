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

/// OMP stops once ||r||_2 <= kResidualTolerance * ||y||_2.
inline constexpr double kResidualTolerance = 1e-9;

/// Atoms OMP selects per correlate pass over the dictionary: generalized
/// OMP (Wang, Kwon & Shim, IEEE TSP 60(12), 2012) with S = 2. A pass whose
/// best atom is the dictionary's bias atom selects that atom alone, so a
/// budget of R atoms takes at most ⌈R/2⌉ + 1 passes (DESIGN.md §5,
/// decision 2).
inline constexpr size_t kAtomsPerPass = 2;

/// Tuning knobs for the OMP column-selection loop (Algorithm 2).
struct OmpOptions {
  /// Maximum number of iterations R, one selected atom each. The paper
  /// tunes R = f(k) in [2k, 5k] (Section 5). The effective cap is
  /// min(R, M, num_atoms).
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
  /// Number of iterations executed: selected atoms.
  size_t iterations = 0;
  /// Correlate passes over the dictionary (each selects up to
  /// kAtomsPerPass atoms): the Φ0 sweeps the run paid for.
  size_t passes = 0;
  /// True when the Section-5 stagnation rule fired.
  bool stopped_by_stagnation = false;
  /// Final residual norm (== residual_norms.back() when non-empty).
  double final_residual_norm = 0.0;
};

/// \brief Orthogonal Matching Pursuit (Tropp & Gilbert) over an abstract
/// dictionary, with QR-based projection.
///
/// Each pass correlates the residual with every unselected atom once and
/// takes the kAtomsPerPass atoms of largest absolute inner product (only
/// the first when it is the dictionary's bias atom). It appends them one at
/// a time, in that order, to an incremental QR factorization and
/// re-projects `y` onto the selected subspace after each, so the stopping
/// rules (residual tolerance, stagnation, dependent atom) and the
/// iteration callback see every atom as its own iteration. Runs standard
/// OMP when given a MatrixDictionary and the BOMP inner loop when given an
/// ExtendedDictionary. A `y` with a NaN or infinite entry is refused with
/// InvalidArgument naming the row, before any sweep.
Result<OmpResult> RunOmp(const Dictionary& dictionary,
                         const std::vector<double>& y,
                         const OmpOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_OMP_H_
