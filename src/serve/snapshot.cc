#include "serve/snapshot.h"

#include <string>
#include <utility>

namespace csod::serve {

StreamingQueryResult SnapshotAnswer::ToResult(size_t key_space,
                                              uint64_t current_epoch) const {
  StreamingQueryResult result;
  result.mode = ranked.mode;
  result.rows.reserve(ranked.outliers.size());
  for (const outlier::Outlier& o : ranked.outliers) {
    result.rows.push_back(
        query::ResultRow{std::to_string(o.key_index), o.value, o.divergence});
  }
  result.key_space = key_space;
  result.snapshot_version = snapshot->version;
  result.snapshot_first_epoch = snapshot->first_epoch;
  result.snapshot_last_epoch = snapshot->last_epoch;
  result.staleness_epochs = current_epoch - snapshot->last_epoch;
  result.stalled_shards = snapshot->stalled_shards;
  return result;
}

Result<SnapshotAnswer> AnswerFromSnapshot(
    const cs::MeasurementMatrix& matrix,
    std::shared_ptr<const SketchSnapshot> snapshot, query::QueryKind kind,
    size_t k, const cs::SolverOptions& solve) {
  CSOD_ASSIGN_OR_RETURN(cs::BompResult recovery,
                        cs::RecoverBiased(matrix, snapshot->y, solve));
  SnapshotAnswer answer;
  if (kind == query::QueryKind::kOutlier) {
    answer.ranked = outlier::KOutliersFromRecovery(recovery, k);
  } else {
    answer.ranked.outliers = outlier::TopKFromRecovery(recovery, k);
  }
  answer.snapshot = std::move(snapshot);
  return answer;
}

}  // namespace csod::serve
