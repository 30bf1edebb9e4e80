#include "cs/basis_pursuit.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/random.h"
#include "la/vector_ops.h"

namespace csod::cs {

namespace {

// Largest squared singular value of the dictionary operator, by power
// iteration on ΦᵀΦ.
Result<double> EstimateLipschitz(const Dictionary& dictionary) {
  Rng rng(0x9d5f1c2b7ULL ^ dictionary.num_atoms());
  std::vector<double> v(dictionary.num_atoms());
  for (double& e : v) e = rng.NextGaussian();
  double eigen = 1.0;
  for (int it = 0; it < 30; ++it) {
    CSOD_ASSIGN_OR_RETURN(std::vector<double> w, dictionary.MultiplyDense(v));
    CSOD_ASSIGN_OR_RETURN(std::vector<double> u, dictionary.Correlate(w));
    const double norm = la::Norm2(u);
    if (norm == 0.0) break;
    eigen = norm / std::max(la::Norm2(v), 1e-300);
    la::Scale(1.0 / norm, &u);
    v = std::move(u);
  }
  return eigen;
}

double SoftThreshold(double v, double t) {
  if (v > t) return v - t;
  if (v < -t) return v + t;
  return 0.0;
}

}  // namespace

Result<BasisPursuitResult> RunBasisPursuit(
    const Dictionary& dictionary, const std::vector<double>& y,
    const BasisPursuitOptions& options) {
  if (y.size() != dictionary.atom_length()) {
    return Status::InvalidArgument(
        "RunBasisPursuit: y size " + std::to_string(y.size()) + " != M " +
        std::to_string(dictionary.atom_length()));
  }
  const size_t n = dictionary.num_atoms();

  std::vector<bool> penalized(n, true);
  for (size_t idx : options.unpenalized_atoms) {
    if (idx >= n) {
      return Status::OutOfRange("RunBasisPursuit: unpenalized atom " +
                                std::to_string(idx) + " out of range");
    }
    penalized[idx] = false;
  }

  double lambda = options.lambda;
  if (lambda <= 0.0) {
    CSOD_ASSIGN_OR_RETURN(std::vector<double> corr, dictionary.Correlate(y));
    double max_abs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (penalized[j]) max_abs = std::max(max_abs, std::fabs(corr[j]));
    }
    lambda = 0.01 * max_abs;
    if (lambda == 0.0) lambda = 1e-12;
  }

  CSOD_ASSIGN_OR_RETURN(double lipschitz, EstimateLipschitz(dictionary));
  // Small safety factor: power iteration under-estimates slightly.
  const double step = 1.0 / (lipschitz * 1.05);

  obs::TraceSpan span(options.telemetry, "fista.recover");
  BasisPursuitResult result;
  std::vector<double> x(n, 0.0);
  std::vector<double> momentum = x;  // FISTA extrapolation point.
  std::vector<double> residual;      // Reused across iterations.
  double t_prev = 1.0;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Gradient of the smooth part at the extrapolation point:
    // Φᵀ(Φ z − y).
    CSOD_ASSIGN_OR_RETURN(std::vector<double> fitted,
                          dictionary.MultiplyDense(momentum));
    la::SubtractInto(fitted, y, &residual);
    CSOD_ASSIGN_OR_RETURN(std::vector<double> grad,
                          dictionary.Correlate(residual));

    std::vector<double> x_next(n);
    const double threshold = lambda * step;
    for (size_t i = 0; i < n; ++i) {
      const double candidate = momentum[i] - step * grad[i];
      x_next[i] =
          penalized[i] ? SoftThreshold(candidate, threshold) : candidate;
    }

    const double t_next = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_prev * t_prev));
    const double beta = (t_prev - 1.0) / t_next;
    for (size_t i = 0; i < n; ++i) {
      momentum[i] = x_next[i] + beta * (x_next[i] - x[i]);
    }

    const double change = la::DistanceL2(x_next, x);
    const double scale = std::max(la::Norm2(x_next), 1e-300);
    x = std::move(x_next);
    t_prev = t_next;
    result.iterations = iter + 1;
    if (options.telemetry != nullptr && options.telemetry->enabled()) {
      // Per-iteration trajectory, recorded serially like OMP's
      // histograms so snapshots stay deterministic. The residual
      // at the extrapolation point is already in hand — no extra matvec.
      options.telemetry->RecordValue("fista.residual_norm",
                                     la::Norm2(residual));
      options.telemetry->RecordValue("fista.relative_change",
                                     change / scale);
    }
    if (change / scale < options.tolerance) break;
  }

  CSOD_ASSIGN_OR_RETURN(std::vector<double> fitted,
                        dictionary.MultiplyDense(x));
  result.final_residual_norm = la::DistanceL2(fitted, y);
  result.x = std::move(x);
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.telemetry->AddCounter("fista.runs");
    options.telemetry->RecordValue("fista.iterations",
                                   static_cast<double>(result.iterations));
    options.telemetry->RecordValue("fista.final_residual_norm",
                                   result.final_residual_norm);
  }
  return result;
}

Result<BasisPursuitResult> RunBasisPursuit(
    const MeasurementMatrix& matrix, const std::vector<double>& y,
    const BasisPursuitOptions& options) {
  MatrixDictionary dictionary(&matrix);
  return RunBasisPursuit(dictionary, y, options);
}

Result<BompResult> RunBiasedBasisPursuit(const MeasurementMatrix& matrix,
                                         const std::vector<double>& y,
                                         const BasisPursuitOptions& options) {
  ExtendedDictionary dictionary(&matrix);
  BasisPursuitOptions inner = options;
  inner.unpenalized_atoms.push_back(0);  // The bias coefficient is free.
  CSOD_ASSIGN_OR_RETURN(BasisPursuitResult bp,
                        RunBasisPursuit(dictionary, y, inner));

  BompResult out;
  const double z0 = bp.x.empty() ? 0.0 : bp.x[0];
  out.bias_selected = z0 != 0.0;
  out.mode = z0 / std::sqrt(static_cast<double>(matrix.n()));
  for (size_t j = 1; j < bp.x.size(); ++j) {
    if (bp.x[j] == 0.0) continue;
    RecoveredEntry e;
    e.index = j - 1;
    e.value = bp.x[j] + out.mode;
    out.entries.push_back(e);
  }
  out.iterations = bp.iterations;
  out.final_residual_norm = bp.final_residual_norm;
  return out;
}

}  // namespace csod::cs
