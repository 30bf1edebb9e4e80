#ifndef CSOD_LA_INCREMENTAL_QR_H_
#define CSOD_LA_INCREMENTAL_QR_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace csod::la {

/// \brief Incremental thin QR factorization by modified Gram-Schmidt.
///
/// Maintains `A = Q R` for a tall matrix `A (m x r)` whose columns arrive
/// one at a time — exactly the access pattern of OMP, which appends the
/// best-matching dictionary column each iteration and re-projects the
/// measurement onto the selected subspace.
///
/// `Q` holds `r` orthonormal columns of length `m`; `R` is `r x r` upper
/// triangular. One re-orthogonalization pass ("twice is enough",
/// Kahan/Parlett) keeps Q numerically orthonormal, which is the same remedy
/// the paper applies to its Gram-Schmidt QR precision problem (Section 5).
class IncrementalQr {
 public:
  /// Factorization for column length `m` (the measurement size M).
  explicit IncrementalQr(size_t m) : m_(m) {}

  /// Number of columns appended so far (the rank r, assuming no rejects).
  size_t size() const { return q_.size(); }
  /// Column length m.
  size_t column_length() const { return m_; }

  /// Appends column `a` (size m) to the factorization.
  ///
  /// Returns the norm of the component of `a` orthogonal to the current
  /// column space. A return value of (numerically) zero means `a` is
  /// linearly dependent on the existing columns; in that case the column is
  /// NOT appended and the factorization is unchanged.
  Result<double> AppendColumn(const std::vector<double>& a);

  /// Computes `Q^T y` (size r). y.size() must equal m.
  Result<std::vector<double>> ApplyQTransposed(
      const std::vector<double>& y) const;

  /// Projection of `y` onto the column space: `Q Q^T y` (size m), summed as
  /// `0 + (q_0ᵀy)·q_0 + ... + (q_{r-1}ᵀy)·q_{r-1}` in column order. An
  /// append never changes the earlier columns, so a caller that adds
  /// `Axpy(Dot(q(r), y), q(r), ·)` after each append holds these bits.
  Result<std::vector<double>> Project(const std::vector<double>& y) const;

  /// Least-squares solve: coefficients `z` (size r) minimizing
  /// `||A z - y||_2`, via `R z = Q^T y` back-substitution.
  Result<std::vector<double>> SolveLeastSquares(
      const std::vector<double>& y) const;

  /// The i-th orthonormal basis column (size m).
  const std::vector<double>& q(size_t i) const { return q_[i]; }

  /// Entry R(i, j) of the upper-triangular factor, j >= i.
  double r_entry(size_t i, size_t j) const { return r_[j][i]; }

 private:
  size_t m_;
  // Orthonormal columns.
  std::vector<std::vector<double>> q_;
  // r_[j] is column j of R: coefficients of original column j in the Q
  // basis, length j + 1.
  std::vector<std::vector<double>> r_;
};

}  // namespace csod::la

#endif  // CSOD_LA_INCREMENTAL_QR_H_
