#include "cs/amp.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "la/incremental_qr.h"
#include "la/vector_ops.h"

namespace csod::cs {

namespace {

// Threshold multiplier λ: each iteration soft-thresholds the pseudo-data
// at θ_t = λ·σ̂_t with σ̂_t = ||z_t||₂/√M, the AMP state-evolution
// estimate of the effective noise. Values in [1.2, 2] trade support
// precision against convergence speed; 1.4 is robust in the
// undersampling regimes the protocols run at. Whenever λ·σ̂ would keep
// more than M/3 atoms alive, the threshold is raised to the order
// statistic that caps the support (see the loop below).
constexpr double kThresholdMultiplier = 1.4;

double SoftThreshold(double v, double t) {
  if (v > t) return v - t;
  if (v < -t) return v + t;
  return 0.0;
}

// Least squares of y over the given atoms; coefficients aligned with
// `support` (zero for linearly dependent atoms). Serial QR in the fixed
// support order — deterministic by construction.
Result<std::vector<double>> LeastSquaresOnSupport(
    const Dictionary& dictionary, const std::vector<size_t>& support,
    const std::vector<double>& y) {
  la::IncrementalQr qr(dictionary.atom_length());
  std::vector<double> atom(dictionary.atom_length());
  std::vector<size_t> kept;
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

// Re-solves least squares on the detected support so the soft-threshold
// shrinkage (every surviving coefficient is biased toward zero by θ) is
// removed from the reported values. The support is the unthresholded
// atoms plus the strongest remaining nonzeros of `x`, capped at M/4 so
// the QR stays well-posed far from the M-column degeneracy.
Status Debias(const Dictionary& dictionary, const std::vector<double>& y,
              const std::vector<bool>& unthresholded,
              std::vector<double>* x) {
  const size_t m = dictionary.atom_length();
  const size_t cap = std::max<size_t>(1, m / 4);

  std::vector<size_t> support;
  std::vector<size_t> candidates;
  for (size_t j = 0; j < x->size(); ++j) {
    if (unthresholded[j]) {
      support.push_back(j);
    } else if ((*x)[j] != 0.0) {
      candidates.push_back(j);
    }
  }
  if (support.size() < cap && !candidates.empty()) {
    const size_t take = std::min(candidates.size(), cap - support.size());
    std::partial_sort(candidates.begin(), candidates.begin() + take,
                      candidates.end(), [&](size_t a, size_t b) {
                        const double fa = std::fabs((*x)[a]);
                        const double fb = std::fabs((*x)[b]);
                        if (fa != fb) return fa > fb;
                        return a < b;
                      });
    candidates.resize(take);
    std::sort(candidates.begin(), candidates.end());
    support.insert(support.end(), candidates.begin(), candidates.end());
    std::sort(support.begin(), support.end());
  }
  if (support.empty()) return Status::OK();

  CSOD_ASSIGN_OR_RETURN(std::vector<double> coeffs,
                        LeastSquaresOnSupport(dictionary, support, y));
  std::fill(x->begin(), x->end(), 0.0);
  for (size_t i = 0; i < support.size(); ++i) {
    (*x)[support[i]] = coeffs[i];
  }
  return Status::OK();
}

}  // namespace

size_t DefaultAmpIterations() { return 40; }

Result<AmpResult> RunAmp(const Dictionary& dictionary,
                         const std::vector<double>& y,
                         const AmpOptions& options) {
  const size_t m = dictionary.atom_length();
  const size_t n = dictionary.num_atoms();
  if (y.size() != m) {
    return Status::InvalidArgument("RunAmp: y size " +
                                   std::to_string(y.size()) + " != M " +
                                   std::to_string(m));
  }
  std::vector<bool> unthresholded(n, false);
  for (size_t idx : options.unthresholded_atoms) {
    if (idx >= n) {
      return Status::OutOfRange("RunAmp: unthresholded atom " +
                                std::to_string(idx) + " out of range");
    }
    unthresholded[idx] = true;
  }
  const size_t iterations = options.max_iterations == 0
                                ? DefaultAmpIterations()
                                : options.max_iterations;

  obs::TraceSpan span(options.telemetry, "amp.recover");
  AmpResult result;
  result.x.assign(n, 0.0);
  if (la::Norm2(y) == 0.0) return result;  // Nothing to recover.

  const double inv_sqrt_m = 1.0 / std::sqrt(static_cast<double>(m));
  std::vector<double> z = y;          // Onsager-corrected residual.
  std::vector<double> x_next(n);
  std::vector<double> z_next(m);
  std::vector<double> magnitudes;

  // Support cap. θ = λ·σ̂ keeps roughly 2(1−Φ(λ))·N atoms alive; at small
  // undersampling ratios M/N (the protocols run at 1-2%) that is far more
  // than M, the Onsager coefficient |supp|/M blows past 1, and the
  // iteration diverges. Whenever the λ·σ̂ threshold would keep more than
  // M/3 atoms, θ is raised to the (cap+1)-th largest pseudo-data
  // magnitude so at most M/3 survive — an order statistic of a fixed
  // multiset, so the capped threshold is as deterministic as the plain
  // one and bit-identity across thread limits and ISAs is preserved.
  const size_t cap = std::max<size_t>(1, m / 3);

  for (size_t iter = 0; iter < iterations; ++iter) {
    // Pseudo-data v = x_t + Φᵀ z_t: the correlation is the dictionary's
    // ParallelFor-blocked kernel; the element-wise add is serial.
    CSOD_ASSIGN_OR_RETURN(std::vector<double> corr, dictionary.Correlate(z));

    // State-evolution noise estimate and threshold.
    const double sigma = la::Norm2(z) * inv_sqrt_m;
    if (!std::isfinite(sigma)) break;  // Diverged; keep the last iterate.
    result.sigma_trace.push_back(sigma);
    const double theta = kThresholdMultiplier * sigma;

    // Raw pseudo-data first, so the capped threshold can be computed
    // before any shrinkage is applied.
    for (size_t j = 0; j < n; ++j) x_next[j] = result.x[j] + corr[j];
    double theta_eff = theta;
    size_t alive = 0;
    for (size_t j = 0; j < n; ++j) {
      if (!unthresholded[j] && std::fabs(x_next[j]) > theta) ++alive;
    }
    if (alive > cap) {
      magnitudes.clear();
      for (size_t j = 0; j < n; ++j) {
        if (!unthresholded[j]) magnitudes.push_back(std::fabs(x_next[j]));
      }
      std::nth_element(magnitudes.begin(), magnitudes.begin() + cap,
                       magnitudes.end(), std::greater<double>());
      theta_eff = std::max(theta, magnitudes[cap]);
    }

    size_t active = 0;
    for (size_t j = 0; j < n; ++j) {
      const double v = x_next[j];
      if (unthresholded[j]) {
        x_next[j] = v;
        ++active;
      } else {
        x_next[j] = SoftThreshold(v, theta_eff);
        if (x_next[j] != 0.0) ++active;
      }
    }

    // z_{t+1} = y − Φ x_{t+1} + (|supp|/M)·z_t. The Onsager term is what
    // keeps the effective noise Gaussian — dropping it degrades AMP to
    // plain iterative soft thresholding with a much slower contraction.
    CSOD_ASSIGN_OR_RETURN(std::vector<double> fitted,
                          dictionary.MultiplyDense(x_next));
    const double onsager =
        static_cast<double>(active) / static_cast<double>(m);
    for (size_t j = 0; j < m; ++j) {
      z_next[j] = y[j] - fitted[j] + onsager * z[j];
    }

    const double change = la::DistanceL2(x_next, result.x);
    const double scale = std::max(la::Norm2(x_next), 1e-300);
    result.x.swap(x_next);
    z.swap(z_next);
    result.iterations = iter + 1;
    if (options.telemetry != nullptr && options.telemetry->enabled()) {
      options.telemetry->RecordValue("amp.residual_norm",
                                     la::DistanceL2(fitted, y));
      options.telemetry->RecordValue("amp.support_size",
                                     static_cast<double>(active));
    }
    if (change / scale < options.tolerance) break;
    if (sigma == 0.0) break;
  }

  // Debiased, AMP values compare with the greedy solvers' least-squares
  // values, for about one OMP iteration of extra cost.
  CSOD_RETURN_NOT_OK(Debias(dictionary, y, unthresholded, &result.x));
  CSOD_ASSIGN_OR_RETURN(std::vector<double> fitted,
                        dictionary.MultiplyDense(result.x));
  result.final_residual_norm = la::DistanceL2(fitted, y);
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    options.telemetry->AddCounter("amp.runs");
    options.telemetry->RecordValue("amp.iterations",
                                   static_cast<double>(result.iterations));
    options.telemetry->RecordValue("amp.final_residual_norm",
                                   result.final_residual_norm);
  }
  return result;
}

Result<AmpResult> RunAmp(const MeasurementMatrix& matrix,
                         const std::vector<double>& y,
                         const AmpOptions& options) {
  MatrixDictionary dictionary(&matrix);
  return RunAmp(dictionary, y, options);
}

Result<BompResult> RunBiasedAmp(const MeasurementMatrix& matrix,
                                const std::vector<double>& y,
                                const AmpOptions& options) {
  ExtendedDictionary dictionary(&matrix);
  AmpOptions inner = options;
  inner.unthresholded_atoms.push_back(0);  // The bias coefficient is free.
  CSOD_ASSIGN_OR_RETURN(AmpResult amp, RunAmp(dictionary, y, inner));

  BompResult out;
  const double z0 = amp.x.empty() ? 0.0 : amp.x[0];
  out.bias_selected = z0 != 0.0;
  out.mode = z0 / std::sqrt(static_cast<double>(matrix.n()));
  for (size_t j = 1; j < amp.x.size(); ++j) {
    if (amp.x[j] == 0.0) continue;
    RecoveredEntry e;
    e.index = j - 1;
    e.value = amp.x[j] + out.mode;
    out.entries.push_back(e);
  }
  out.iterations = amp.iterations;
  out.final_residual_norm = amp.final_residual_norm;
  return out;
}

}  // namespace csod::cs
