#ifndef CSOD_SERVE_SNAPSHOT_H_
#define CSOD_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "dist/wire_format.h"
#include "outlier/outlier.h"
#include "query/executor.h"
#include "query/query.h"

namespace csod::serve {

/// \brief An immutable, epoch-versioned window sketch published by a
/// `StreamingDetector` at an epoch boundary.
///
/// This is the unit of isolation between ingestion and queries: the
/// detector builds a fresh snapshot while closing an epoch and swaps it in
/// atomically (a `shared_ptr` exchange), so a query holds a consistent
/// window measurement for as long as it needs without ever blocking — or
/// being blocked by — concurrent ingestion. Because CS measurements are
/// linear, the whole window is one M-vector (`y = Σ_epochs y_epoch`), so a
/// snapshot costs O(M) to build and O(1) to publish regardless of how many
/// events the window absorbed.
///
/// Staleness contract (docs/STREAMING.md): a snapshot covers every event
/// ingested into epochs `[first_epoch, last_epoch]`; events of the
/// in-progress epoch `last_epoch + 1` are *never* visible.
/// Queries against the latest snapshot are therefore stale by less than
/// one epoch of ingestion (exactly the current epoch's partial data).
struct SketchSnapshot {
  /// Publish counter, strictly increasing per detector (1 = first).
  uint64_t version = 0;
  /// Newest epoch whose data is included.
  uint64_t last_epoch = 0;
  /// Oldest epoch whose data is included.
  uint64_t first_epoch = 0;
  /// Number of epoch sketches summed into `y` (== last - first + 1).
  size_t epochs_covered = 0;
  /// The window measurement `y = Σ_{e ∈ window} y_e`, length M, folded in
  /// ascending epoch order.
  std::vector<double> y;
  /// Events folded into the covered epochs.
  uint64_t events = 0;
};

/// \brief The one SketchSnapshot codec: the payload of a kSnapshot frame
/// (serve/net.h) and the snapshot section of a checkpoint
/// (serve/checkpoint.h). Layout (little-endian):
///   u64 version, last_epoch, first_epoch, epochs_covered, events
///   u32 num_stalled (always 0: shards never stall)
///   u32 len, EncodeMeasurement(y) bytes (with their own checksum)
/// InvalidArgument on a non-finite entry of `y`.
Status AppendSnapshot(const SketchSnapshot& snapshot, std::string* out);

/// Reads what AppendSnapshot wrote. A non-zero stalled-shard count is
/// refused by name (InvalidArgument). The caller checks the length of `y`
/// against its own geometry.
Status ReadSnapshot(dist::PayloadReader* reader, SketchSnapshot* snapshot);

/// Reads the u32 stalled-shard count that kSnapshot and kQueryResult
/// frames keep in their layout, and refuses any value but 0 by name: this
/// build has no stalled shards to describe. `context` prefixes the error.
Status ReadStalledShardCount(dist::PayloadReader* reader,
                             const std::string& context);

/// Reads the u32 Φ0 format marker (cs::kPhi0Format) that ends a kSnapshot
/// frame and a checkpoint, and refuses every other format by name: state
/// measured with another Φ0 would answer against the wrong matrix.
/// `unmarked` names the writer of a payload that ends where the marker
/// would start. Bytes after the marker are refused too.
Status ReadPhi0Format(dist::PayloadReader* reader, const std::string& context,
                      const std::string& unmarked);

/// A streaming query answer: the rows of the paper's query template plus
/// the snapshot provenance a service client needs to reason about
/// staleness (which batch of data it is actually looking at).
struct StreamingQueryResult {
  /// Answer rows in rank order — `group_key` is the key index rendered as
  /// text, `value` the recovered aggregate, `rank_score` the divergence
  /// (Outlier) or the value itself (Top), exactly like
  /// query::QueryResult rows.
  std::vector<query::ResultRow> rows;
  /// Recovered mode (0 for Top queries).
  double mode = 0.0;
  /// Key space N of the tenant's stream.
  size_t key_space = 0;
  /// Version / epoch range of the snapshot that answered the query.
  uint64_t snapshot_version = 0;
  uint64_t snapshot_first_epoch = 0;
  uint64_t snapshot_last_epoch = 0;
  /// current_epoch - snapshot_last_epoch at answer time; 1 means "as fresh
  /// as the staleness contract allows" (the in-progress epoch is never
  /// visible).
  uint64_t staleness_epochs = 0;
  /// Always empty (shards never stall). Only the benchmark ledger, which
  /// still reads it, uses this field.
  std::vector<uint32_t> stalled_shards;
};

/// One query answered from one snapshot: the ranked recovery and the
/// snapshot that produced it.
struct SnapshotAnswer {
  /// Outlier queries: `KOutliersFromRecovery`. Top queries:
  /// `TopKFromRecovery`, with mode 0 and divergence = value.
  outlier::OutlierSet ranked;
  /// The snapshot `ranked` was recovered from — the answer's provenance.
  std::shared_ptr<const SketchSnapshot> snapshot;

  /// `ranked` as query rows, stamped with this snapshot's provenance;
  /// staleness counts from `current_epoch`.
  StreamingQueryResult ToResult(size_t key_space,
                                uint64_t current_epoch) const;
};

/// \brief The one snapshot → answer path: leader (StreamingDetector),
/// replica (SnapshotFollower) and, through the leader, StreamingService
/// all answer queries here.
///
/// Recovers `snapshot->y` once with `solve` (the resolved budget R,
/// telemetry sink) and ranks the recovery for `kind`. Same Φ0, same `y`
/// bytes and same `solve` ⇒ a bit-identical answer, which is why a
/// follower agrees with its leader on every snapshot version. `snapshot`
/// must be non-null; callers validate k and pin the snapshot.
Result<SnapshotAnswer> AnswerFromSnapshot(
    const cs::MeasurementMatrix& matrix,
    std::shared_ptr<const SketchSnapshot> snapshot, query::QueryKind kind,
    size_t k, const cs::SolverOptions& solve);

}  // namespace csod::serve

#endif  // CSOD_SERVE_SNAPSHOT_H_
