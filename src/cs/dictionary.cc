#include "cs/dictionary.h"

#include <cmath>
#include <string>

#include "la/vector_ops.h"

namespace csod::cs {

void ExtendedDictionary::FillAtom(size_t j, double* out) const {
  if (j == 0) {
    for (size_t i = 0; i < bias_column_.size(); ++i) out[i] = bias_column_[i];
    return;
  }
  matrix_->FillColumn(j - 1, out);
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

}  // namespace csod::cs
