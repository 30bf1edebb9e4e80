#include "cs/omp.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "la/incremental_qr.h"
#include "la/vector_ops.h"

namespace csod::cs {

namespace {

// Relative decrease below which the residual counts as "not decreasing"
// (the Section 5 stagnation remedy).
constexpr double kStagnationTolerance = 1e-12;

}  // namespace

Result<OmpResult> RunOmp(const Dictionary& dictionary,
                         const std::vector<double>& y,
                         const OmpOptions& options) {
  const size_t m = dictionary.atom_length();
  const size_t num_atoms = dictionary.num_atoms();
  if (y.size() != m) {
    return Status::InvalidArgument("RunOmp: y size " +
                                   std::to_string(y.size()) + " != M " +
                                   std::to_string(m));
  }
  // A sketch of finite values can still overflow to ±inf; such a y has no
  // sparse answer, and the sweeps would rank NaN correlations as nothing.
  for (size_t i = 0; i < m; ++i) {
    if (!std::isfinite(y[i])) {
      return Status::InvalidArgument("RunOmp: y[" + std::to_string(i) +
                                     "] is not finite");
    }
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("RunOmp: max_iterations must be > 0");
  }

  OmpResult result;
  const double y_norm = la::Norm2(y);
  if (y_norm == 0.0) return result;  // Nothing to recover.

  const size_t iteration_cap =
      std::min({options.max_iterations, m, num_atoms});
  la::IncrementalQr qr(m);
  std::vector<double> residual = y;
  std::vector<bool> selected_mask(num_atoms, false);
  std::vector<double> atom(m);
  // proj(y, Φs), kept across iterations (statement 6); with the in-place
  // residual update the loop allocates nothing of size M or N.
  std::vector<double> projection(m, 0.0);

  bool done = false;
  while (!done && result.iterations < iteration_cap) {
    // Statement 4 of Algorithm 2, generalized: the kAtomsPerPass atoms of
    // largest |<atom_j, r>| over unselected atoms, fused into the
    // dictionary's correlate pass, so no N-vector of correlations is
    // materialized, copied, or rescanned.
    CSOD_ASSIGN_OR_RETURN(
        std::vector<CorrelateArgmaxResult> picks,
        dictionary.CorrelateTop(residual, selected_mask, kAtomsPerPass));
    ++result.passes;
    if (picks.empty() || picks.front().abs_correlation == 0.0) break;
    // The bias column is the sum of all others: once it leads, the
    // runner-up correlation is taken against a residual it is about to
    // change, and following it loses exact recovery (DESIGN.md §5).
    if (dictionary.IsBiasAtom(picks.front().index)) picks.resize(1);

    for (const CorrelateArgmaxResult& pick : picks) {
      if (result.iterations == iteration_cap || pick.abs_correlation == 0.0) {
        break;
      }
      const size_t best = pick.index;
      dictionary.FillAtom(best, atom.data());
      CSOD_ASSIGN_OR_RETURN(double ortho_norm, qr.AppendColumn(atom));
      if (ortho_norm == 0.0) {
        // Linearly dependent atom: the projection cannot improve; treat as
        // stagnation (the floating-point regime Section 5 worries about).
        result.stopped_by_stagnation = true;
        done = true;
        break;
      }
      selected_mask[best] = true;
      result.selected.push_back(best);

      // Statement 6: r <- y - proj(y, Φs). An append leaves Q's earlier
      // columns as they were, so the projection grows by one term,
      // (q_newᵀy)·q_new. Adding it to the kept sum repeats qr.Project(y)'s
      // per-element additions in its order, so the bits are the same.
      const std::vector<double>& q_new = qr.q(qr.size() - 1);
      la::Axpy(la::Dot(q_new, y), q_new, &projection);
      la::SubtractInto(y, projection, &residual);
      // Computed once per iteration and reused for the trajectory, the
      // telemetry histogram, the tolerance check, and the stagnation check
      // (the previous iteration's value is read back off the trajectory
      // rather than shadowed in a separate variable).
      const double residual_norm = la::Norm2(residual);
      const double prev_residual_norm = result.residual_norms.empty()
                                            ? y_norm
                                            : result.residual_norms.back();
      result.residual_norms.push_back(residual_norm);
      ++result.iterations;
      if (options.telemetry != nullptr && options.telemetry->enabled()) {
        // The per-iteration trajectory the paper plots (residual decay and
        // support growth); recorded serially, so snapshots stay
        // deterministic.
        options.telemetry->RecordValue("omp.residual_norm", residual_norm);
        options.telemetry->RecordValue(
            "omp.support_size", static_cast<double>(result.selected.size()));
      }

      std::vector<double> iteration_coeffs;
      if (options.solve_coefficients_each_iteration ||
          options.iteration_callback) {
        if (options.solve_coefficients_each_iteration) {
          CSOD_ASSIGN_OR_RETURN(iteration_coeffs, qr.SolveLeastSquares(y));
        }
        if (options.iteration_callback) {
          OmpIterationInfo info;
          info.iteration = result.iterations;
          info.selected_atom = best;
          info.residual_norm = residual_norm;
          info.selected = &result.selected;
          info.coefficients =
              options.solve_coefficients_each_iteration ? &iteration_coeffs
                                                        : nullptr;
          options.iteration_callback(info);
        }
      }

      if (residual_norm <= kResidualTolerance * y_norm) {
        done = true;
        break;
      }
      if (options.stop_on_residual_stagnation &&
          residual_norm >= prev_residual_norm * (1.0 - kStagnationTolerance)) {
        result.stopped_by_stagnation = true;
        done = true;
        break;
      }
    }
  }

  if (!result.selected.empty()) {
    CSOD_ASSIGN_OR_RETURN(result.coefficients, qr.SolveLeastSquares(y));
  }
  result.final_residual_norm =
      result.residual_norms.empty() ? y_norm : result.residual_norms.back();
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.telemetry->AddCounter("omp.runs");
    options.telemetry->RecordValue("omp.iterations",
                                   static_cast<double>(result.iterations));
    if (result.stopped_by_stagnation) {
      options.telemetry->AddCounter("omp.stagnation_stops");
    }
  }
  return result;
}

}  // namespace csod::cs
