#ifndef CSOD_CS_SOLVER_H_
#define CSOD_CS_SOLVER_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"

namespace csod::cs {

/// The recovery engines the library ships (DESIGN.md §14 compares them).
/// Every engine solves the same biased problem — recover data concentrated
/// around an unknown mode from `y = Φ0 x` via the extended dictionary
/// `[φ0, Φ0]` — and returns the common `BompResult` currency, so callers
/// (Detector, protocols, serve, CLI) switch engines without code changes.
enum class RecoverySolver {
  kOmp,     ///< BOMP — the paper's Algorithm 1 (greedy, default).
  kCosamp,  ///< Biased CoSaMP (greedy with uniform guarantees).
  kAmp,     ///< Biased AMP (fixed-cost iterations; fastest at large k).
};

/// Canonical lowercase name ("omp", "cosamp", "amp") — the
/// `--solver=` flag values and the provenance-block spelling.
const char* SolverName(RecoverySolver solver);

/// Parses a `--solver=` flag value; InvalidArgument on unknown names.
Result<RecoverySolver> ParseSolverName(const std::string& name);

/// Options for the engine-agnostic recovery entry point.
struct SolverOptions {
  RecoverySolver solver = RecoverySolver::kOmp;
  /// Unified iteration budget R (the paper's f(k) knob). Per-engine
  /// mapping, documented so cross-solver runs are comparable:
  ///  - omp:    OMP iterations = R (0 → caller must size it, as today).
  ///  - cosamp: sparsity s = max(8, 2R/7) — the inverse of the paper's
  ///            R = f(k) ≈ 3.5k midpoint, so the same R targets the same
  ///            outlier count; halving iterations stay at their default.
  ///  - amp:    AMP keeps its fixed default budget (iterations are
  ///            support-independent); R only caps it when R is smaller.
  size_t iterations = 0;
  /// Telemetry sink, forwarded to the selected engine.
  obs::Telemetry* telemetry = nullptr;
};

/// Runs the selected engine on the biased problem and returns the common
/// result shape. This is the single dispatch point the Detector, the
/// serve layer, and the CLI share.
Result<BompResult> RecoverBiased(const MeasurementMatrix& matrix,
                                 const std::vector<double>& y,
                                 const SolverOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_SOLVER_H_
