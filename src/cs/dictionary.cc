#include "cs/dictionary.h"

#include <cmath>
#include <string>

#include "la/vector_ops.h"

namespace csod::cs {

Result<std::vector<CorrelateArgmaxResult>> Dictionary::CorrelateTop(
    const std::vector<double>& r, const std::vector<bool>& selected_mask,
    size_t count) const {
  if (selected_mask.size() != num_atoms()) {
    return Status::InvalidArgument(
        "CorrelateTop: mask size " + std::to_string(selected_mask.size()) +
        " != num_atoms " + std::to_string(num_atoms()));
  }
  CSOD_ASSIGN_OR_RETURN(std::vector<double> correlations, Correlate(r));
  std::vector<CorrelateArgmaxResult> top;
  for (size_t j = 0; j < correlations.size(); ++j) {
    if (selected_mask[j]) continue;
    FoldTop(CorrelateArgmaxResult{j, correlations[j],
                                  std::fabs(correlations[j])},
            count, &top);
  }
  return top;
}

void ExtendedDictionary::FillAtom(size_t j, double* out) const {
  if (j == 0) {
    for (size_t i = 0; i < bias_column_.size(); ++i) out[i] = bias_column_[i];
    return;
  }
  matrix_->FillColumn(j - 1, out);
}

Result<std::vector<double>> ExtendedDictionary::Correlate(
    const std::vector<double>& r) const {
  std::vector<double> out(matrix_->n() + 1);
  // Matrix correlations land directly in out[1..N]; no shift-by-one copy.
  CSOD_RETURN_NOT_OK(matrix_->CorrelateAllInto(r, out.data() + 1));
  out[0] = la::Dot(bias_column_, r);
  return out;
}

Result<std::vector<CorrelateArgmaxResult>> ExtendedDictionary::CorrelateTop(
    const std::vector<double>& r, const std::vector<bool>& selected_mask,
    size_t count) const {
  if (selected_mask.size() != num_atoms()) {
    return Status::InvalidArgument(
        "CorrelateTop: mask size " + std::to_string(selected_mask.size()) +
        " != num_atoms " + std::to_string(num_atoms()));
  }
  std::vector<CorrelateArgmaxResult> top;
  if (!selected_mask[0]) {
    const double bias = la::Dot(bias_column_, r);
    FoldTop(CorrelateArgmaxResult{0, bias, std::fabs(bias)}, count, &top);
  }
  // Atom j+1 is matrix column j; the mask is passed with offset 1 instead
  // of being re-indexed. The bias atom is folded first, so it keeps its
  // place on ties, matching a lowest-index-first scan over the extended
  // dictionary.
  CSOD_ASSIGN_OR_RETURN(std::vector<CorrelateArgmaxResult> rest,
                        matrix_->CorrelateTop(r, count, &selected_mask,
                                              /*skip_offset=*/1));
  for (CorrelateArgmaxResult pick : rest) {
    ++pick.index;
    FoldTop(pick, count, &top);
  }
  return top;
}

Result<std::vector<double>> ExtendedDictionary::MultiplyDense(
    const std::vector<double>& z) const {
  if (z.size() != num_atoms()) {
    return Status::InvalidArgument(
        "ExtendedDictionary::MultiplyDense: size mismatch");
  }
  std::vector<double> rest(z.begin() + 1, z.end());
  CSOD_ASSIGN_OR_RETURN(std::vector<double> y, matrix_->Multiply(rest));
  for (size_t i = 0; i < y.size(); ++i) y[i] += z[0] * bias_column_[i];
  return y;
}

}  // namespace csod::cs
