#include "cs/solver.h"

#include <algorithm>

#include "cs/amp.h"
#include "cs/cosamp.h"

namespace csod::cs {

const char* SolverName(RecoverySolver solver) {
  switch (solver) {
    case RecoverySolver::kOmp:
      return "omp";
    case RecoverySolver::kCosamp:
      return "cosamp";
    case RecoverySolver::kAmp:
      return "amp";
  }
  return "omp";
}

Result<RecoverySolver> ParseSolverName(const std::string& name) {
  if (name == "omp" || name == "bomp") return RecoverySolver::kOmp;
  if (name == "cosamp") return RecoverySolver::kCosamp;
  if (name == "amp") return RecoverySolver::kAmp;
  return Status::InvalidArgument(
      "unknown solver '" + name + "' (expected omp|cosamp|amp)");
}

Result<BompResult> RecoverBiased(const MeasurementMatrix& matrix,
                                 const std::vector<double>& y,
                                 const SolverOptions& options) {
  switch (options.solver) {
    case RecoverySolver::kOmp: {
      BompOptions bomp;
      bomp.max_iterations = options.iterations;
      bomp.telemetry = options.telemetry;
      return RunBomp(matrix, y, bomp);
    }
    case RecoverySolver::kCosamp: {
      CosampOptions cosamp;
      cosamp.sparsity =
          std::max<size_t>(8, (2 * options.iterations) / 7);
      cosamp.telemetry = options.telemetry;
      return RunBiasedCosamp(matrix, y, cosamp);
    }
    case RecoverySolver::kAmp: {
      AmpOptions amp;
      if (options.iterations != 0) {
        amp.max_iterations =
            std::min(options.iterations, DefaultAmpIterations());
      }
      amp.telemetry = options.telemetry;
      return RunBiasedAmp(matrix, y, amp);
    }
  }
  return Status::Internal("RecoverBiased: unreachable solver");
}

}  // namespace csod::cs
