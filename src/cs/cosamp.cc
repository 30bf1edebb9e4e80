#include "cs/cosamp.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

#include "la/incremental_qr.h"
#include "la/vector_ops.h"

namespace csod::cs {

namespace {

// Indices of the `count` largest |values| (ties by index).
std::vector<size_t> TopAbsIndices(const std::vector<double>& values,
                                  size_t count) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  count = std::min(count, order.size());
  std::partial_sort(order.begin(), order.begin() + count, order.end(),
                    [&](size_t a, size_t b) {
                      const double fa = std::fabs(values[a]);
                      const double fb = std::fabs(values[b]);
                      if (fa != fb) return fa > fb;
                      return a < b;
                    });
  order.resize(count);
  return order;
}

// Least squares of y over the given atoms; returns coefficients aligned
// with `support` (zero for dependent atoms).
Result<std::vector<double>> SolveOnSupport(const Dictionary& dictionary,
                                           const std::vector<size_t>& support,
                                           const std::vector<double>& y) {
  la::IncrementalQr qr(dictionary.atom_length());
  std::vector<double> atom(dictionary.atom_length());
  std::vector<size_t> kept;  // Positions in `support` that entered the QR.
  for (size_t pos = 0; pos < support.size(); ++pos) {
    dictionary.FillAtom(support[pos], atom.data());
    CSOD_ASSIGN_OR_RETURN(double ortho, qr.AppendColumn(atom));
    if (ortho > 0.0) kept.push_back(pos);
  }
  std::vector<double> coeffs(support.size(), 0.0);
  if (!kept.empty()) {
    CSOD_ASSIGN_OR_RETURN(std::vector<double> z, qr.SolveLeastSquares(y));
    for (size_t i = 0; i < kept.size(); ++i) coeffs[kept[i]] = z[i];
  }
  return coeffs;
}

}  // namespace

Result<CosampResult> RunCosamp(const Dictionary& dictionary,
                               const std::vector<double>& y,
                               const CosampOptions& options) {
  const size_t m = dictionary.atom_length();
  if (y.size() != m) {
    return Status::InvalidArgument("RunCosamp: y size " +
                                   std::to_string(y.size()) + " != M " +
                                   std::to_string(m));
  }
  if (options.sparsity == 0) {
    return Status::InvalidArgument("RunCosamp: sparsity must be > 0");
  }
  const size_t s = std::min(options.sparsity, m);

  CosampResult result;
  const double y_norm = la::Norm2(y);
  if (y_norm == 0.0) return result;

  std::vector<size_t> support;
  std::vector<double> coefficients;
  std::vector<double> residual = y;
  // Scratch reused across iterations for the residual update.
  std::vector<double> fitted(m);
  std::vector<double> atom(m);
  double prev_residual_norm = y_norm;
  double last_residual_norm = y_norm;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // 1. Identify: 2s strongest correlations, merged with the support.
    CSOD_ASSIGN_OR_RETURN(std::vector<double> correlations,
                          dictionary.Correlate(residual));
    std::vector<size_t> candidates = TopAbsIndices(correlations, 2 * s);
    std::unordered_set<size_t> merged(candidates.begin(), candidates.end());
    for (size_t idx : support) merged.insert(idx);
    std::vector<size_t> omega(merged.begin(), merged.end());
    std::sort(omega.begin(), omega.end());

    // 2. Estimate: least squares over the merged support.
    CSOD_ASSIGN_OR_RETURN(std::vector<double> omega_coeffs,
                          SolveOnSupport(dictionary, omega, y));

    // 3. Prune to the s largest coefficients, re-solve on the pruned
    //    support for unbiased coefficients.
    std::vector<size_t> top_positions = TopAbsIndices(omega_coeffs, s);
    std::vector<size_t> new_support;
    new_support.reserve(top_positions.size());
    for (size_t pos : top_positions) new_support.push_back(omega[pos]);
    std::sort(new_support.begin(), new_support.end());
    CSOD_ASSIGN_OR_RETURN(std::vector<double> new_coeffs,
                          SolveOnSupport(dictionary, new_support, y));

    // 4. Update residual.
    fitted.assign(m, 0.0);
    for (size_t i = 0; i < new_support.size(); ++i) {
      if (new_coeffs[i] == 0.0) continue;
      dictionary.FillAtom(new_support[i], atom.data());
      la::Axpy(new_coeffs[i], atom, &fitted);
    }
    la::SubtractInto(y, fitted, &residual);
    // Computed once per iteration; the loop's checks and the final
    // diagnostics below all reuse this value (no recompute at the end).
    const double residual_norm = la::Norm2(residual);
    last_residual_norm = residual_norm;

    support = std::move(new_support);
    coefficients = std::move(new_coeffs);
    result.iterations = iter + 1;
    if (options.telemetry != nullptr && options.telemetry->enabled()) {
      options.telemetry->RecordValue("cosamp.residual_norm", residual_norm);
      options.telemetry->RecordValue("cosamp.support_size",
                                     static_cast<double>(support.size()));
    }

    if (residual_norm <= kResidualTolerance * y_norm) break;
    // Halting on stagnation (the same Section-5 remedy as OMP).
    if (residual_norm >= prev_residual_norm * (1.0 - 1e-9)) break;
    prev_residual_norm = residual_norm;
  }

  result.selected = std::move(support);
  result.coefficients = std::move(coefficients);
  result.final_residual_norm = last_residual_norm;
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.telemetry->AddCounter("cosamp.runs");
    options.telemetry->RecordValue("cosamp.iterations",
                                   static_cast<double>(result.iterations));
    options.telemetry->RecordValue("cosamp.final_residual_norm",
                                   result.final_residual_norm);
  }
  return result;
}

Result<BompResult> RunBiasedCosamp(const MeasurementMatrix& matrix,
                                   const std::vector<double>& y,
                                   const CosampOptions& options) {
  ExtendedDictionary dictionary(&matrix);
  CosampOptions inner = options;
  inner.sparsity = options.sparsity + 1;  // Budget the bias column too.
  CSOD_ASSIGN_OR_RETURN(CosampResult cosamp, RunCosamp(dictionary, y, inner));

  BompResult out;
  double z0 = 0.0;
  for (size_t i = 0; i < cosamp.selected.size(); ++i) {
    if (cosamp.selected[i] == 0) {
      z0 = cosamp.coefficients[i];
      out.bias_selected = true;
      break;
    }
  }
  out.mode = z0 / std::sqrt(static_cast<double>(matrix.n()));
  for (size_t i = 0; i < cosamp.selected.size(); ++i) {
    if (cosamp.selected[i] == 0) continue;
    RecoveredEntry e;
    e.index = cosamp.selected[i] - 1;
    e.value = cosamp.coefficients[i] + out.mode;
    out.entries.push_back(e);
  }
  out.iterations = cosamp.iterations;
  out.final_residual_norm = cosamp.final_residual_norm;
  return out;
}

}  // namespace csod::cs
