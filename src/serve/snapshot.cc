#include "serve/snapshot.h"

#include <string>
#include <utility>

namespace csod::serve {

Status AppendSnapshot(const SketchSnapshot& snapshot, std::string* out) {
  dist::AppendU64(out, snapshot.version);
  dist::AppendU64(out, snapshot.last_epoch);
  dist::AppendU64(out, snapshot.first_epoch);
  dist::AppendU64(out, snapshot.epochs_covered);
  dist::AppendU64(out, snapshot.events);
  dist::AppendU32(out, 0);  // Stalled-shard count: shards never stall.
  // The window measurement travels as an embedded measurement message —
  // the same bytes a protocol node would transmit.
  CSOD_ASSIGN_OR_RETURN(const std::string y,
                        dist::EncodeMeasurement(snapshot.y));
  return dist::AppendLengthPrefixed(out, y);
}

Status ReadSnapshot(dist::PayloadReader* reader, SketchSnapshot* snapshot) {
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->version));
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->last_epoch));
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->first_epoch));
  uint64_t covered = 0;
  CSOD_RETURN_NOT_OK(reader->U64(&covered));
  snapshot->epochs_covered = static_cast<size_t>(covered);
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->events));
  CSOD_RETURN_NOT_OK(ReadStalledShardCount(reader, "snapshot"));
  std::string y;
  CSOD_RETURN_NOT_OK(reader->LengthPrefixed(&y));
  CSOD_ASSIGN_OR_RETURN(snapshot->y, dist::DecodeMeasurement(y));
  return Status::OK();
}

Status ReadStalledShardCount(dist::PayloadReader* reader,
                             const std::string& context) {
  uint32_t num_stalled = 0;
  CSOD_RETURN_NOT_OK(reader->U32(&num_stalled));
  if (num_stalled != 0) {
    return Status::InvalidArgument(
        context + ": stalled-shard count " + std::to_string(num_stalled) +
        " is not supported (shards never stall)");
  }
  return Status::OK();
}

Status ReadPhi0Format(dist::PayloadReader* reader, const std::string& context,
                      const std::string& unmarked) {
  const std::string this_build =
      ", and this build uses format " + std::to_string(cs::kPhi0Format);
  if (reader->remaining() == 0) {
    return Status::InvalidArgument(context + ": no Φ0 format marker; " +
                                   unmarked + this_build);
  }
  uint32_t phi0_format = 0;
  CSOD_RETURN_NOT_OK(reader->U32(&phi0_format));
  if (phi0_format != cs::kPhi0Format) {
    return Status::InvalidArgument(context + ": written with Φ0 format " +
                                   std::to_string(phi0_format) + this_build);
  }
  if (reader->remaining() != 0) {
    return Status::InvalidArgument(context + ": trailing payload bytes");
  }
  return Status::OK();
}

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
