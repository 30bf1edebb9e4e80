#ifndef CSOD_CS_SOLVER_H_
#define CSOD_CS_SOLVER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"

namespace csod::cs {

/// The recovery engine: BOMP, the paper's Algorithm 1 (DESIGN.md §14).
/// The enum stays only because the benchmark ledger (ledger/ledger.cc)
/// still names it; it goes when the ledger stops doing so.
enum class RecoverySolver {
  kOmp,  ///< BOMP.
};

/// Options for the one recovery entry point.
struct SolverOptions {
  /// Only for the benchmark ledger, which still sets it; always kOmp.
  RecoverySolver solver = RecoverySolver::kOmp;
  /// BOMP iteration budget R (the paper's f(k) knob); must be nonzero.
  size_t iterations = 0;
  /// Telemetry sink, forwarded to BOMP.
  obs::Telemetry* telemetry = nullptr;
};

/// Runs BOMP on the biased problem. This is the single recovery entry
/// point the Detector, the protocols, the serve layer and the CLI share.
Result<BompResult> RecoverBiased(const MeasurementMatrix& matrix,
                                 const std::vector<double>& y,
                                 const SolverOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_SOLVER_H_
