#include "cs/solver.h"

namespace csod::cs {

Result<BompResult> RecoverBiased(const MeasurementMatrix& matrix,
                                 const std::vector<double>& y,
                                 const SolverOptions& options) {
  BompOptions bomp;
  bomp.max_iterations = options.iterations;
  bomp.telemetry = options.telemetry;
  return RunBomp(matrix, y, bomp);
}

}  // namespace csod::cs
