#ifndef CSOD_CS_DICTIONARY_H_
#define CSOD_CS_DICTIONARY_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/status.h"
#include "cs/measurement_matrix.h"

namespace csod::cs {

/// \brief Abstract over-complete dictionary as seen by the OMP column
/// selection loop (Algorithm 2 in the paper).
///
/// OMP only needs two operations on the dictionary: fetch one atom
/// (column) and find the atoms that correlate most with the current
/// residual. Both the plain measurement matrix (standard OMP) and the
/// bias-extended matrix `Φ = [φ0, Φ0]` used by BOMP implement this
/// interface, so a single OMP implementation serves both algorithms.
class Dictionary {
 public:
  virtual ~Dictionary() = default;

  /// Number of atoms (columns).
  virtual size_t num_atoms() const = 0;
  /// Length of each atom (the measurement size M).
  virtual size_t atom_length() const = 0;

  /// Writes atom `j` (length atom_length()) into `out`.
  virtual void FillAtom(size_t j, double* out) const = 0;

  /// Fused correlate+top-`count` (OMP statement 4, generalized): the
  /// `count` atoms of largest |<atom_j, r>| over all j with
  /// !selected_mask[j], ordered by |correlation| descending with ties
  /// toward the lowest j; fewer when fewer atoms are unmasked.
  /// selected_mask.size() must equal num_atoms(). MatrixDictionary and
  /// ExtendedDictionary run the measurement matrix's fused kernel, which
  /// never materializes, copies, or rescans the N-vector of correlations.
  virtual Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, const std::vector<bool>& selected_mask,
      size_t count) const = 0;

  /// True for an atom that OMP appends alone when a pass ranks it first:
  /// BOMP's bias atom, whose column is the sum of all others, so the pass's
  /// runner-up correlation says little once it is in (DESIGN.md §5).
  virtual bool IsBiasAtom(size_t /*j*/) const { return false; }
};

/// \brief Dictionary view over a plain measurement matrix (standard OMP).
/// Does not own the matrix; the matrix must outlive the view.
class MatrixDictionary final : public Dictionary {
 public:
  explicit MatrixDictionary(const MeasurementMatrix* matrix)
      : matrix_(matrix) {}

  size_t num_atoms() const override { return matrix_->n(); }
  size_t atom_length() const override { return matrix_->m(); }
  void FillAtom(size_t j, double* out) const override {
    matrix_->FillColumn(j, out);
  }
  Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, const std::vector<bool>& selected_mask,
      size_t count) const override {
    return matrix_->CorrelateTop(r, count, &selected_mask);
  }

 private:
  const MeasurementMatrix* matrix_;
};

/// \brief The BOMP extended dictionary `Φ = [φ0, Φ0]` with
/// `φ0 = (1/√N) Σ_i φ_i` (Equation 2/3 in the paper).
///
/// Atom 0 is the bias column; atom j (j >= 1) is column j-1 of Φ0. The
/// bias column is the matrix's memoized CachedBiasColumn(), so repeated
/// dictionary constructions over the same matrix (one per recovery call)
/// share a single O(M·N) column-sum pass.
class ExtendedDictionary final : public Dictionary {
 public:
  explicit ExtendedDictionary(const MeasurementMatrix* matrix)
      : matrix_(matrix), bias_column_(matrix->CachedBiasColumn()) {}

  size_t num_atoms() const override { return matrix_->n() + 1; }
  size_t atom_length() const override { return matrix_->m(); }

  void FillAtom(size_t j, double* out) const override;
  Result<std::vector<CorrelateArgmaxResult>> CorrelateTop(
      const std::vector<double>& r, const std::vector<bool>& selected_mask,
      size_t count) const override;
  bool IsBiasAtom(size_t j) const override { return j == 0; }

  /// The materialized bias column φ0.
  const std::vector<double>& bias_column() const { return bias_column_; }

 private:
  const MeasurementMatrix* matrix_;
  const std::vector<double>& bias_column_;
};

}  // namespace csod::cs

#endif  // CSOD_CS_DICTIONARY_H_
