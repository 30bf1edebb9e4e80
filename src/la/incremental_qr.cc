#include "la/incremental_qr.h"

#include <cmath>
#include <string>

#include "la/vector_ops.h"

namespace csod::la {

namespace {
// Relative threshold below which the orthogonal component is considered
// zero (the candidate column is linearly dependent).
constexpr double kDependenceTolerance = 1e-12;
}  // namespace

Result<double> IncrementalQr::AppendColumn(const std::vector<double>& a) {
  if (a.size() != m_) {
    return Status::InvalidArgument(
        "AppendColumn: column size " + std::to_string(a.size()) +
        " != m " + std::to_string(m_));
  }
  const double original_norm = Norm2(a);
  std::vector<double> v = a;
  std::vector<double> coeffs(q_.size(), 0.0);

  // Modified Gram-Schmidt with one re-orthogonalization pass.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < q_.size(); ++i) {
      const double c = Dot(q_[i], v);
      coeffs[i] += c;
      Axpy(-c, q_[i], &v);
    }
  }

  const double residual_norm = Norm2(v);
  if (residual_norm <= kDependenceTolerance * std::max(1.0, original_norm)) {
    return 0.0;  // Linearly dependent; not appended.
  }

  Scale(1.0 / residual_norm, &v);
  q_.push_back(std::move(v));
  coeffs.push_back(residual_norm);
  r_.push_back(std::move(coeffs));
  return residual_norm;
}

Result<std::vector<double>> IncrementalQr::ApplyQTransposed(
    const std::vector<double>& y) const {
  if (y.size() != m_) {
    return Status::InvalidArgument("ApplyQTransposed: vector size " +
                                   std::to_string(y.size()) + " != m " +
                                   std::to_string(m_));
  }
  std::vector<double> out(q_.size());
  for (size_t i = 0; i < q_.size(); ++i) out[i] = Dot(q_[i], y);
  return out;
}

Result<std::vector<double>> IncrementalQr::Project(
    const std::vector<double>& y) const {
  CSOD_ASSIGN_OR_RETURN(const std::vector<double> qty, ApplyQTransposed(y));
  std::vector<double> out(m_, 0.0);
  for (size_t i = 0; i < q_.size(); ++i) Axpy(qty[i], q_[i], &out);
  return out;
}

Result<std::vector<double>> IncrementalQr::SolveLeastSquares(
    const std::vector<double>& y) const {
  CSOD_ASSIGN_OR_RETURN(std::vector<double> rhs, ApplyQTransposed(y));
  const size_t r = q_.size();
  std::vector<double> z(r, 0.0);
  // Back substitution on R z = rhs; R is upper triangular with column j
  // stored in r_[j] (entries 0..j).
  for (size_t ii = r; ii-- > 0;) {
    double acc = rhs[ii];
    for (size_t j = ii + 1; j < r; ++j) acc -= r_[j][ii] * z[j];
    const double diag = r_[ii][ii];
    if (diag == 0.0) {
      return Status::Internal("SolveLeastSquares: zero diagonal in R");
    }
    z[ii] = acc / diag;
  }
  return z;
}

}  // namespace csod::la
