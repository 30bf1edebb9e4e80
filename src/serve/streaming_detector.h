#ifndef CSOD_SERVE_STREAMING_DETECTOR_H_
#define CSOD_SERVE_STREAMING_DETECTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "core/windowed_detector.h"
#include "cs/bomp.h"
#include "cs/solver.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"
#include "query/query.h"
#include "serve/snapshot.h"

namespace csod::serve {

/// Configuration of a StreamingDetector.
struct StreamingDetectorOptions {
  /// Key space, measurement size, consensus seed, BOMP iteration budget
  /// (0 = the paper's f(k) at query time) — as WindowedDetectorOptions.
  size_t n = 0;
  size_t m = 0;
  uint64_t seed = 1;
  size_t iterations = 0;
  /// Only for the benchmark ledger, which still reads it; queries always
  /// recover with BOMP (cs/solver.h).
  cs::RecoverySolver solver = cs::RecoverySolver::kOmp;
  /// Closed epochs a window covers (the in-progress epoch is extra). Every
  /// epoch close publishes a snapshot over the last `window_epochs` closed
  /// epochs (a sliding window; snapshot age < 1 epoch).
  size_t window_epochs = 0;
  /// Ingestion shards; a batch is radix-partitioned across them and folded
  /// shard-by-shard in shard order (the determinism contract below).
  size_t num_shards = 8;
  /// Telemetry sink ("serve.*" metrics; docs/STREAMING.md names them all).
  /// Null means disabled.
  obs::Telemetry* telemetry = nullptr;
};

/// A full copy of one detector's mutable state at one instant: the epoch
/// ring, per-epoch event counts, virtual clock, and the latest published
/// snapshot. Because CS measurements are linear the
/// ring *is* the window — restoring this struct restores the detector
/// exactly, bit for bit (serve/checkpoint.h serializes it with checksums).
struct DetectorCheckpoint {
  bool started = false;
  uint64_t current_epoch = 0;
  /// Publications so far (the version counter continues from here).
  uint64_t version = 0;
  uint64_t last_tick = 0;
  /// Retained epoch sketches, oldest-first; the last is the in-progress
  /// epoch. Parallel to `epoch_events`.
  std::vector<std::vector<double>> epoch_sketches;
  std::vector<uint64_t> epoch_events;
  /// Latest published snapshot, or null before the first publication.
  std::shared_ptr<const SketchSnapshot> snapshot;
};

/// \brief Always-on sharded streaming outlier detection over one keyed
/// score stream (one tenant; StreamingService multiplexes tenants).
///
/// The production scenario of Section 1 as a service: keyed score-delta
/// batches arrive continuously, epochs advance on a deterministic virtual
/// clock, and analysts ask top-k / outlier queries about "the last W
/// epochs" while ingestion continues. Built on the library's existing
/// layers rather than new math:
///
///  - **Ingestion** radix-partitions each batch across `num_shards` shards
///    with `mr::ScatterPartitions` (the PR 6 columnar pass) into exact-size
///    arena-backed columns, sketches all shards in one
///    `MultiplySparseBatch` call, and folds the per-shard measurements into
///    the current epoch's sketch via `WindowedOutlierDetector` — because
///    measurements are linear this is `y_epoch += Φ0·Δx` per shard, never a
///    recompression.
///  - **Epochs** live in the windowed detector's ring (sized
///    `window_epochs + 1`: W closed epochs plus the in-progress one).
///  - **Queries** never touch the ring: every epoch close publishes an
///    immutable `SketchSnapshot` (swap-on-advance `shared_ptr`), and
///    every query pins one snapshot and answers from it through
///    `AnswerFromSnapshot` (serve/snapshot.h), the path replicas share.
///    Ingestion is never blocked by a query and vice versa; the only shared
///    lock is the pointer swap.
///
/// **Determinism contract** (tested in serve_test.cc, gated by
/// bench_streaming's `bit_identical` gate): the published window measurement — and therefore
/// every detection answer — is *bit-identical* to a
/// `WindowedOutlierDetector` fed the same batches as per-shard
/// `SparseSlice`s in shard order, at any parallelism limit. This holds by
/// construction: `MultiplySparseBatch`'s per-slice output is bit-identical to
/// `MultiplySparse`, shard measurements fold in fixed shard order through
/// `IngestMeasurement` (the same `la::Axpy` the reference uses), and the
/// snapshot folds epoch sketches oldest-first exactly like
/// `WindowMeasurement`. Floating-point addition is non-associative, so the
/// *batch and shard boundaries are part of the contract* — the reference
/// must ingest the same per-(batch, shard) slices, not one merged slice.
///
/// **Bounded staleness**: a query's snapshot never includes the in-progress
/// epoch and always includes every closed epoch in the window, so the answer lags ingestion by less than one epoch, always.
///
/// Thread safety: any number of concurrent callers. Mutating calls
/// (IngestBatch / AdvanceTo / AdvanceEpoch) serialize on
/// an ingest mutex; Snapshot()/Query* only copy the published pointer.
class StreamingDetector {
 public:
  static Result<std::unique_ptr<StreamingDetector>> Create(
      const StreamingDetectorOptions& options);

  /// Creates a detector that continues `checkpoint` exactly: the next
  /// publication is bit-identical to what the checkpointed detector would
  /// have published, and versions continue from the checkpointed counter.
  /// `options`
  /// must describe the same stream (same n/m/seed/window/shards) as the
  /// detector the checkpoint was taken from.
  static Result<std::unique_ptr<StreamingDetector>> Restore(
      const StreamingDetectorOptions& options,
      const DetectorCheckpoint& checkpoint);

  /// Copies the full mutable state (blocks ingestion for the duration of
  /// the copy; concurrent queries are unaffected).
  DetectorCheckpoint CheckpointState() const;

  /// The shard a key routes to: `mr::DefaultPartition(key) % num_shards`,
  /// the MapReduce default partitioner's mixed hash (never identity).
  static uint32_t ShardOfKey(size_t key, size_t num_shards);

  /// Ingests one batch of keyed score deltas into the current epoch
  /// (`keys[i]` gains `deltas[i]`; duplicate keys accumulate). Fails
  /// before the first AdvanceTo/AdvanceEpoch and on any key >= N.
  Status IngestBatch(const size_t* keys, const double* deltas, size_t count);
  Status IngestBatch(const std::vector<size_t>& keys,
                     const std::vector<double>& deltas);

  /// Moves the virtual clock to `tick` (monotone; one tick is one epoch),
  /// closing every epoch below `tick`. The first call opens epoch 0.
  /// Returns the current epoch index after the move. A jump of more than
  /// W + 1 epochs costs W + 2 publications, not one per epoch: after
  /// W + 1 closes every retained sketch is zero, so the detector lands on
  /// `tick` with an empty ring and publishes once. Fails with
  /// InvalidArgument, moving nothing, on a backwards tick or on
  /// tick = UINT64_MAX (the epoch after it has no number).
  Result<uint64_t> AdvanceTo(uint64_t tick);

  /// Closes the current epoch (publishing a snapshot) and opens the next; the first call opens epoch 0 without closing anything.
  /// Returns the new current epoch index. (AdvanceTo is this on a clock.)
  uint64_t AdvanceEpoch();

  /// The latest published snapshot, or null before the first publication.
  /// The snapshot is immutable and outlives any later publication for as
  /// long as the caller holds it.
  std::shared_ptr<const SketchSnapshot> Snapshot() const;

  /// k-outlier / top-k detection against the latest snapshot (BOMP on the
  /// snapshot's window measurement; never blocks or observes ingestion).
  /// Fails with FailedPrecondition before the first publication.
  Result<outlier::OutlierSet> QueryOutliers(size_t k) const;
  Result<std::vector<outlier::Outlier>> QueryTopK(size_t k) const;

  /// The same detection as query rows, with the provenance of the snapshot
  /// that answered (StreamingService's query endpoint).
  Result<StreamingQueryResult> Query(query::QueryKind kind, size_t k) const;

  /// Index of the current (in-progress) epoch; 0 before the first
  /// AdvanceTo/AdvanceEpoch (which also opens epoch 0).
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_relaxed);
  }
  /// True once the first epoch is open.
  bool started() const { return started_.load(std::memory_order_relaxed); }
  /// Publications so far (== version of the latest snapshot).
  uint64_t snapshot_version() const {
    return version_.load(std::memory_order_relaxed);
  }

  const StreamingDetectorOptions& options() const { return options_; }
  const cs::MeasurementMatrix& matrix() const { return window_->matrix(); }

 private:
  explicit StreamingDetector(const StreamingDetectorOptions& options);

  // All Locked methods require ingest_mu_.
  uint64_t AdvanceEpochLocked();
  void PublishLocked();
  void FlushIngestTelemetryLocked();
  // Pins the latest snapshot, records the query telemetry, and answers
  // from that snapshot: the one path behind every Query* call.
  Result<SnapshotAnswer> Answer(query::QueryKind kind, size_t k) const;

  StreamingDetectorOptions options_;
  obs::Telemetry* telemetry_;  // Never null (Disabled() when unset).

  mutable std::mutex ingest_mu_;
  // The epoch ring, matrix, and fold primitives — window_epochs + 1 deep
  // so the ring holds W closed epochs plus the in-progress one.
  std::unique_ptr<core::WindowedOutlierDetector> window_;
  // Events folded per retained epoch (parallel to the window ring).
  std::deque<uint64_t> epoch_events_;
  uint64_t last_tick_ = 0;
  // Reused ingest scratch (guarded by ingest_mu_).
  std::vector<double> per_slice_scratch_;
  std::vector<double> shard_y_scratch_;
  // Ingest telemetry accumulated locally and flushed to the registry once
  // per epoch close: the always-on hot path pays plain integer adds and
  // stopwatch reads, never a registry lock per batch.
  uint64_t pending_batches_ = 0;
  uint64_t pending_events_ = 0;
  double pending_ingest_seconds_ = 0.0;

  std::atomic<bool> started_{false};
  std::atomic<uint64_t> current_epoch_{0};
  std::atomic<uint64_t> version_{0};

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SketchSnapshot> snapshot_;
};

}  // namespace csod::serve

#endif  // CSOD_SERVE_STREAMING_DETECTOR_H_
