#ifndef CSOD_CS_COSAMP_H_
#define CSOD_CS_COSAMP_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/dictionary.h"
#include "cs/measurement_matrix.h"

namespace csod::cs {

/// Tuning knobs for CoSaMP.
struct CosampOptions {
  /// Target sparsity s (the algorithm maintains an s-sized support).
  size_t sparsity = 0;
  /// Maximum halving iterations.
  size_t max_iterations = 50;
  /// Telemetry sink ("cosamp.*" histograms). Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Outcome of a CoSaMP run.
struct CosampResult {
  /// Final support (atom indices), unordered.
  std::vector<size_t> selected;
  /// Least-squares coefficients for `selected` (same order).
  std::vector<double> coefficients;
  size_t iterations = 0;
  double final_residual_norm = 0.0;
};

/// \brief CoSaMP (Needell & Tropp): compressive sampling matching pursuit
/// over an abstract dictionary.
///
/// An alternative greedy recovery to OMP with uniform guarantees: each
/// iteration merges the 2s best-correlated atoms into the support, solves
/// least squares, and prunes back to the s largest coefficients.
/// Implemented as a library extension (the paper evaluates OMP only) and
/// compared in `bench/ablation_recovery`.
Result<CosampResult> RunCosamp(const Dictionary& dictionary,
                               const std::vector<double>& y,
                               const CosampOptions& options);

/// \brief Biased CoSaMP: CoSaMP over the BOMP-extended dictionary
/// `[φ0, Φ0]`, recovering data concentrated around an unknown mode.
/// `options.sparsity` counts the outliers (the bias column is budgeted
/// automatically). Returns the same shape as BOMP for easy comparison.
Result<BompResult> RunBiasedCosamp(const MeasurementMatrix& matrix,
                                   const std::vector<double>& y,
                                   const CosampOptions& options);

}  // namespace csod::cs

#endif  // CSOD_CS_COSAMP_H_
