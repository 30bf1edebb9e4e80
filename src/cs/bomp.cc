#include "cs/bomp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "cs/dictionary.h"
#include "la/vector_ops.h"

namespace csod::cs {

std::vector<double> BompResult::Materialize(size_t n) const {
  std::vector<double> x(n, mode);
  for (const RecoveredEntry& e : entries) {
    if (e.index < n) x[e.index] = e.value;
  }
  return x;
}

size_t DefaultIterationsForK(size_t k) {
  // Midpoint of the paper's tuned range [2k, 5k], floored at 8, and
  // saturated where 7k + 1 would wrap.
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  if (k > (kMax - 1) / 7) return kMax;
  const size_t r = (7 * k + 1) / 2;  // 3.5k
  return std::max<size_t>(r, 8);
}

size_t IterationBudget(size_t configured, size_t k) {
  return configured == 0 ? DefaultIterationsForK(k) : configured;
}

namespace {

// Shared conversion from the extended-problem OMP solution to BompResult.
// `bias_atom_present` distinguishes RunBomp (atom 0 is the bias column and
// data atoms are shifted by one) from known-mode recovery (no bias atom).
BompResult BuildResult(const OmpResult& omp, size_t n, bool bias_atom_present,
                       double known_mode) {
  BompResult out;
  double z0 = 0.0;
  if (bias_atom_present) {
    for (size_t i = 0; i < omp.selected.size(); ++i) {
      if (omp.selected[i] == 0) {
        z0 = omp.coefficients[i];
        out.bias_selected = true;
        break;
      }
    }
    out.mode = z0 / std::sqrt(static_cast<double>(n));
  } else {
    out.mode = known_mode;
  }

  for (size_t i = 0; i < omp.selected.size(); ++i) {
    const size_t atom = omp.selected[i];
    if (bias_atom_present && atom == 0) continue;
    RecoveredEntry e;
    e.index = bias_atom_present ? atom - 1 : atom;
    e.value = omp.coefficients[i] + out.mode;
    out.entries.push_back(e);
  }

  out.iterations = omp.iterations;
  out.passes = omp.passes;
  out.stopped_by_stagnation = omp.stopped_by_stagnation;
  out.final_residual_norm = omp.final_residual_norm;
  return out;
}

}  // namespace

Result<BompResult> RunBomp(const MeasurementMatrix& matrix,
                           const std::vector<double>& y,
                           const BompOptions& options) {
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("RunBomp: max_iterations must be > 0");
  }
  obs::TraceSpan span(options.telemetry, "bomp.recover");
  // Step 1 of Algorithm 1: extend the measurement matrix with the bias
  // column φ0 = (1/√N) Σ φ_i.
  ExtendedDictionary dictionary(&matrix);

  OmpOptions omp_options;
  omp_options.max_iterations = options.max_iterations;
  omp_options.stop_on_residual_stagnation =
      options.stop_on_residual_stagnation;
  omp_options.telemetry = options.telemetry;

  std::vector<double> mode_trace;
  const double inv_sqrt_n = 1.0 / std::sqrt(static_cast<double>(matrix.n()));
  if (options.record_mode_trace) {
    omp_options.solve_coefficients_each_iteration = true;
    omp_options.iteration_callback = [&](const OmpIterationInfo& info) {
      double z0 = 0.0;
      for (size_t i = 0; i < info.selected->size(); ++i) {
        if ((*info.selected)[i] == 0) {
          z0 = (*info.coefficients)[i];
          break;
        }
      }
      mode_trace.push_back(z0 * inv_sqrt_n);
    };
  }

  // Step 2: standard OMP on y = Φ ẑ.
  CSOD_ASSIGN_OR_RETURN(OmpResult omp, RunOmp(dictionary, y, omp_options));

  // Step 3: assemble x̂, b, O (Equation 4).
  BompResult result = BuildResult(omp, matrix.n(), /*bias_atom_present=*/true,
                                  /*known_mode=*/0.0);
  result.mode_trace = std::move(mode_trace);
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.telemetry->AddCounter("bomp.runs");
    if (result.bias_selected) options.telemetry->AddCounter("bomp.bias_selected");
    options.telemetry->RecordValue("bomp.iterations",
                                   static_cast<double>(result.iterations));
    options.telemetry->RecordValue("bomp.passes",
                                   static_cast<double>(result.passes));
    options.telemetry->RecordValue("bomp.support_size",
                                   static_cast<double>(result.entries.size()));
    options.telemetry->RecordValue("bomp.final_residual_norm",
                                   result.final_residual_norm);
  }
  return result;
}

Result<BompResult> RecoverWithKnownMode(const MeasurementMatrix& matrix,
                                        const std::vector<double>& y,
                                        double known_mode,
                                        const BompOptions& options) {
  if (options.max_iterations == 0) {
    return Status::InvalidArgument(
        "RecoverWithKnownMode: max_iterations must be > 0");
  }
  // y' = y - b * Φ0 * 1 = y - b * √N * φ0. The memoized bias column makes
  // repeated known-mode recoveries over one matrix skip the O(M·N) column
  // sum after the first call.
  std::vector<double> shifted = y;
  if (known_mode != 0.0) {
    const std::vector<double>& bias = matrix.CachedBiasColumn();
    const double scale =
        known_mode * std::sqrt(static_cast<double>(matrix.n()));
    la::Axpy(-scale, bias, &shifted);
  }

  MatrixDictionary dictionary(&matrix);
  OmpOptions omp_options;
  omp_options.max_iterations = options.max_iterations;
  omp_options.stop_on_residual_stagnation =
      options.stop_on_residual_stagnation;
  omp_options.telemetry = options.telemetry;

  CSOD_ASSIGN_OR_RETURN(OmpResult omp, RunOmp(dictionary, shifted, omp_options));
  return BuildResult(omp, matrix.n(), /*bias_atom_present=*/false, known_mode);
}

}  // namespace csod::cs
