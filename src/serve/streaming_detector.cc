#include "serve/streaming_detector.h"

#include <string>
#include <utility>

#include "common/arena.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "mapreduce/shuffle.h"
#include "sim/buggify.h"

namespace csod::serve {

StreamingDetector::StreamingDetector(const StreamingDetectorOptions& options)
    : options_(options),
      telemetry_(options.telemetry != nullptr ? options.telemetry
                                              : obs::Telemetry::Disabled()),
      stalled_(options.num_shards, false),
      backlog_(options.num_shards) {}

Result<std::unique_ptr<StreamingDetector>> StreamingDetector::Create(
    const StreamingDetectorOptions& options) {
  if (options.n == 0) {
    return Status::InvalidArgument("StreamingDetectorOptions.n must be > 0");
  }
  if (options.m == 0) {
    return Status::InvalidArgument("StreamingDetectorOptions.m must be > 0");
  }
  if (options.window_epochs == 0) {
    return Status::InvalidArgument(
        "StreamingDetectorOptions.window_epochs must be > 0");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument(
        "StreamingDetectorOptions.num_shards must be > 0");
  }
  core::WindowedDetectorOptions wopts;
  wopts.n = options.n;
  wopts.m = options.m;
  wopts.seed = options.seed;
  wopts.iterations = options.iterations;
  // The ring holds the W closed epochs a snapshot covers plus the
  // in-progress epoch still accepting data.
  wopts.window_epochs = options.window_epochs + 1;
  auto detector =
      std::unique_ptr<StreamingDetector>(new StreamingDetector(options));
  CSOD_ASSIGN_OR_RETURN(detector->window_,
                        core::WindowedOutlierDetector::Create(wopts));
  return detector;
}

Result<std::unique_ptr<StreamingDetector>> StreamingDetector::Restore(
    const StreamingDetectorOptions& options,
    const DetectorCheckpoint& checkpoint) {
  CSOD_ASSIGN_OR_RETURN(std::unique_ptr<StreamingDetector> detector,
                        Create(options));
  if (checkpoint.epoch_sketches.size() != checkpoint.epoch_events.size()) {
    return Status::InvalidArgument(
        "Restore: " + std::to_string(checkpoint.epoch_sketches.size()) +
        " epoch sketches vs " + std::to_string(checkpoint.epoch_events.size()) +
        " epoch event counts");
  }
  if (checkpoint.stalled.size() != options.num_shards ||
      checkpoint.backlogs.size() != options.num_shards) {
    return Status::InvalidArgument(
        "Restore: checkpoint shard count (" +
        std::to_string(checkpoint.stalled.size()) + " stall flags, " +
        std::to_string(checkpoint.backlogs.size()) + " backlogs) != " +
        std::to_string(options.num_shards));
  }
  if (checkpoint.started) {
    if (checkpoint.epoch_sketches.empty()) {
      return Status::InvalidArgument(
          "Restore: a started checkpoint must retain at least the "
          "in-progress epoch");
    }
    CSOD_RETURN_NOT_OK(detector->window_->RestoreEpochs(
        checkpoint.current_epoch, checkpoint.epoch_sketches));
  } else if (!checkpoint.epoch_sketches.empty()) {
    return Status::InvalidArgument(
        "Restore: an unstarted checkpoint cannot retain epochs");
  }
  std::lock_guard<std::mutex> lock(detector->ingest_mu_);
  detector->epoch_events_.assign(checkpoint.epoch_events.begin(),
                                 checkpoint.epoch_events.end());
  detector->backlog_events_locked_ = 0;
  for (uint32_t p = 0; p < options.num_shards; ++p) {
    detector->stalled_[p] = checkpoint.stalled[p] != 0;
    detector->backlog_[p].assign(checkpoint.backlogs[p].begin(),
                                 checkpoint.backlogs[p].end());
    for (const cs::SparseSlice& slice : checkpoint.backlogs[p]) {
      detector->backlog_events_locked_ += slice.nnz();
    }
  }
  detector->last_tick_ = checkpoint.last_tick;
  detector->started_.store(checkpoint.started, std::memory_order_relaxed);
  detector->current_epoch_.store(checkpoint.current_epoch,
                                 std::memory_order_relaxed);
  detector->version_.store(checkpoint.version, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> snapshot_lock(detector->snapshot_mu_);
    detector->snapshot_ = checkpoint.snapshot;
  }
  return detector;
}

DetectorCheckpoint StreamingDetector::CheckpointState() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  DetectorCheckpoint checkpoint;
  checkpoint.started = started_.load(std::memory_order_relaxed);
  checkpoint.current_epoch = current_epoch_.load(std::memory_order_relaxed);
  checkpoint.version = version_.load(std::memory_order_relaxed);
  checkpoint.last_tick = last_tick_;
  const std::deque<std::vector<double>>& ring = window_->EpochSketches();
  checkpoint.epoch_sketches.assign(ring.begin(), ring.end());
  checkpoint.epoch_events.assign(epoch_events_.begin(), epoch_events_.end());
  checkpoint.stalled.reserve(options_.num_shards);
  checkpoint.backlogs.resize(options_.num_shards);
  for (uint32_t p = 0; p < options_.num_shards; ++p) {
    checkpoint.stalled.push_back(stalled_[p] ? 1 : 0);
    checkpoint.backlogs[p].assign(backlog_[p].begin(), backlog_[p].end());
  }
  checkpoint.snapshot = Snapshot();
  return checkpoint;
}

uint32_t StreamingDetector::ShardOfKey(size_t key, size_t num_shards) {
  return static_cast<uint32_t>(mr::DefaultPartition(key) % num_shards);
}

Status StreamingDetector::IngestBatch(const std::vector<size_t>& keys,
                                      const std::vector<double>& deltas) {
  if (keys.size() != deltas.size()) {
    return Status::InvalidArgument(
        "IngestBatch: keys/deltas size mismatch (" +
        std::to_string(keys.size()) + " vs " + std::to_string(deltas.size()) +
        ")");
  }
  return IngestBatch(keys.data(), deltas.data(), keys.size());
}

Status StreamingDetector::IngestBatch(const size_t* keys, const double* deltas,
                                      size_t count) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (!started_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition(
        "IngestBatch: call AdvanceTo/AdvanceEpoch before ingesting data");
  }
  // Ingest telemetry is accumulated into plain members here and flushed to
  // the registry at the next epoch close (FlushIngestTelemetryLocked): an
  // always-on path sketching thousands of batches per second must not pay
  // a registry lock per batch.
  const bool traced = telemetry_->enabled();
  Stopwatch watch;
  ++pending_batches_;
  if (count == 0) return Status::OK();
  for (size_t i = 0; i < count; ++i) {
    if (keys[i] >= options_.n) {
      return Status::OutOfRange("IngestBatch: key " + std::to_string(keys[i]) +
                                " out of N " + std::to_string(options_.n));
    }
  }

  // Buggify: stall/unstall storm — before partitioning the batch, flip a
  // deterministic subset of shards (keyed on the batch ordinal) through
  // the real stall machinery. Stalling defers this batch's share; a flip
  // back replays the backlog into the current epoch, so every event is
  // still folded exactly once (the conservation invariant).
  if (sim::BuggifyEnabled()) {
    const uint64_t batch_ordinal = buggify_batches_++;
    for (uint32_t p = 0; p < options_.num_shards; ++p) {
      if (CSOD_BUGGIFY_AT("serve.ingest.stall_storm",
                          HashCombine(batch_ordinal, p))) {
        CSOD_RETURN_NOT_OK(SetShardStalledLocked(p, !stalled_[p]));
      }
    }
  }

  // Radix-partition the batch across shards (the PR 6 columnar pass):
  // exact-size contiguous per-shard key/delta columns, stable within a
  // shard, partition hash applied once per event. ScatterPartitions moves
  // values out of the run; moving a double copies and leaves the source
  // untouched, so viewing the caller's const array as mutable is safe.
  const size_t num_shards = options_.num_shards;
  Arena arena;
  std::vector<ColumnChunks<size_t>> key_store;
  std::vector<ColumnChunks<double>> value_store;
  std::vector<mr::PartitionBlock<size_t, double>> blocks;
  double* deltas_mut = const_cast<double*>(deltas);
  auto one_run = [&](auto&& fn) { fn(keys, deltas_mut, count); };
  mr::ScatterPartitions(
      count, num_shards, &arena,
      [](size_t key) { return mr::DefaultPartition(key); }, one_run,
      &key_store, &value_store, &blocks);

  // Stalled shards' shares go to the backlog (deferred, not lost); every
  // other shard becomes one slice view of the batched sketching kernel.
  std::vector<cs::SparseVectorView> views(num_shards);
  uint64_t folded = 0;
  uint64_t deferred = 0;
  for (size_t p = 0; p < num_shards; ++p) {
    const size_t shard_count = key_store[p].size();
    if (shard_count == 0) continue;  // Empty view folds zeros below.
    const size_t* shard_keys = key_store[p].chunk_data(0);
    const double* shard_deltas = value_store[p].chunk_data(0);
    if (stalled_[p]) {
      cs::SparseSlice slice;
      slice.indices.assign(shard_keys, shard_keys + shard_count);
      slice.values.assign(shard_deltas, shard_deltas + shard_count);
      backlog_[p].push_back(std::move(slice));
      backlog_events_locked_ += shard_count;
      deferred += shard_count;
      continue;
    }
    views[p] = cs::SparseVectorView{shard_keys, shard_deltas, shard_count};
    folded += shard_count;
  }
  pending_events_ += folded;
  pending_deferred_ += deferred;

  // One batched sketching pass over all shards, then fold the per-shard
  // measurements into the current epoch in fixed shard order — including
  // empty (zero) shards, exactly like the per-shard-slice reference. This
  // is the bit-identity contract: per_slice_out segment p is bit-identical
  // to MultiplySparse(shard p's slice), and IngestMeasurement is the same
  // Axpy the reference's Ingest performs. Stalled shards are skipped on
  // both sides (their slices are withheld until replay).
  CSOD_RETURN_NOT_OK(
      matrix().MultiplySparseBatch(views, nullptr, &per_slice_scratch_));
  const size_t m = options_.m;
  for (size_t p = 0; p < num_shards; ++p) {
    if (stalled_[p]) continue;
    const double* segment = per_slice_scratch_.data() + p * m;
    shard_y_scratch_.assign(segment, segment + m);
    CSOD_RETURN_NOT_OK(window_->IngestMeasurement(shard_y_scratch_));
  }
  epoch_events_.back() += folded;
  if (traced) pending_ingest_seconds_ += watch.ElapsedSeconds();
  return Status::OK();
}

void StreamingDetector::FlushIngestTelemetryLocked() {
  if (pending_batches_ > 0) {
    telemetry_->AddCounter("serve.ingest.batches", pending_batches_);
    telemetry_->AddCounter("serve.ingest.events", pending_events_);
    if (pending_deferred_ > 0) {
      telemetry_->AddCounter("serve.ingest.deferred_events",
                             pending_deferred_);
    }
    telemetry_->RecordSpan("serve.ingest", pending_ingest_seconds_);
    pending_batches_ = 0;
    pending_events_ = 0;
    pending_deferred_ = 0;
    pending_ingest_seconds_ = 0.0;
  }
  if (!epoch_events_.empty()) {
    // Events folded into the epoch being closed (replays included).
    telemetry_->RecordValue("serve.epoch.events",
                            static_cast<double>(epoch_events_.back()));
  }
}

Result<uint64_t> StreamingDetector::AdvanceTo(uint64_t tick) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (started_.load(std::memory_order_relaxed) && tick < last_tick_) {
    return Status::InvalidArgument(
        "AdvanceTo: virtual clock moved backwards (" + std::to_string(tick) +
        " < " + std::to_string(last_tick_) + ")");
  }
  last_tick_ = tick;
  if (!started_.load(std::memory_order_relaxed)) AdvanceEpochLocked();
  while (current_epoch_.load(std::memory_order_relaxed) < tick) {
    AdvanceEpochLocked();
  }
  return current_epoch_.load(std::memory_order_relaxed);
}

uint64_t StreamingDetector::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return AdvanceEpochLocked();
}

uint64_t StreamingDetector::AdvanceEpochLocked() {
  obs::TraceSpan span(telemetry_, "serve.epoch.advance");
  // Closing an epoch is where accumulated ingest telemetry reaches the
  // registry (a no-op on the very first open).
  FlushIngestTelemetryLocked();
  const uint64_t epoch = window_->AdvanceEpoch();
  started_.store(true, std::memory_order_relaxed);
  current_epoch_.store(epoch, std::memory_order_relaxed);
  epoch_events_.push_back(0);
  while (epoch_events_.size() > options_.window_epochs + 1) {
    epoch_events_.pop_front();
  }
  telemetry_->AddCounter("serve.epochs");

  if (epoch_events_.size() > 1) {  // At least one closed epoch.
    PublishLocked();
    // Buggify: epoch-advance race — a second publisher runs before the
    // first one's swap is observed. Publication is idempotent up to the
    // version counter, so the race must only bump version/snapshots.
    if (CSOD_BUGGIFY_AT("serve.epoch.republish", epoch)) PublishLocked();
  }
  return epoch;
}

void StreamingDetector::PublishLocked() {
  obs::TraceSpan span(telemetry_, "serve.snapshot.publish");
  Result<std::vector<double>> y = window_->ClosedWindowMeasurement();
  y.status().Check();  // Callers guarantee a closed epoch is retained.

  auto snapshot = std::make_shared<SketchSnapshot>();
  const size_t covered = epoch_events_.size() - 1;
  snapshot->version = version_.fetch_add(1, std::memory_order_relaxed) + 1;
  snapshot->last_epoch = current_epoch_.load(std::memory_order_relaxed) - 1;
  snapshot->first_epoch =
      snapshot->last_epoch - static_cast<uint64_t>(covered - 1);
  snapshot->epochs_covered = covered;
  snapshot->y = y.MoveValue();
  for (size_t e = 0; e < covered; ++e) snapshot->events += epoch_events_[e];
  for (uint32_t p = 0; p < options_.num_shards; ++p) {
    if (stalled_[p]) snapshot->stalled_shards.push_back(p);
  }
  telemetry_->AddCounter("serve.snapshots");

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

std::shared_ptr<const SketchSnapshot> StreamingDetector::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Result<SnapshotAnswer> StreamingDetector::Answer(query::QueryKind kind,
                                                 size_t k) const {
  const std::string call =
      kind == query::QueryKind::kOutlier ? "QueryOutliers" : "QueryTopK";
  if (k == 0) return Status::InvalidArgument(call + ": k must be > 0");
  std::shared_ptr<const SketchSnapshot> snapshot = Snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(
        call + ": no snapshot published yet (close an epoch first)");
  }
  obs::TraceSpan span(telemetry_, "serve.query");
  telemetry_->AddCounter("serve.queries");
  telemetry_->RecordValue(
      "serve.query.age_epochs",
      static_cast<double>(current_epoch_.load(std::memory_order_relaxed) -
                          snapshot->last_epoch));
  cs::SolverOptions solve;
  solve.iterations = cs::IterationBudget(options_.iterations, k);
  solve.telemetry = telemetry_;
  return AnswerFromSnapshot(matrix(), std::move(snapshot), kind, k, solve);
}

Result<outlier::OutlierSet> StreamingDetector::QueryOutliers(size_t k) const {
  CSOD_ASSIGN_OR_RETURN(SnapshotAnswer answer,
                        Answer(query::QueryKind::kOutlier, k));
  return std::move(answer.ranked);
}

Result<std::vector<outlier::Outlier>> StreamingDetector::QueryTopK(
    size_t k) const {
  CSOD_ASSIGN_OR_RETURN(SnapshotAnswer answer,
                        Answer(query::QueryKind::kTop, k));
  return std::move(answer.ranked.outliers);
}

Result<StreamingQueryResult> StreamingDetector::Query(query::QueryKind kind,
                                                      size_t k) const {
  CSOD_ASSIGN_OR_RETURN(SnapshotAnswer answer, Answer(kind, k));
  return answer.ToResult(options_.n, current_epoch());
}

Status StreamingDetector::SetShardStalled(uint32_t shard, bool stalled) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return SetShardStalledLocked(shard, stalled);
}

Status StreamingDetector::SetShardStalledLocked(uint32_t shard, bool stalled) {
  if (shard >= options_.num_shards) {
    return Status::InvalidArgument(
        "SetShardStalled: shard " + std::to_string(shard) + " out of " +
        std::to_string(options_.num_shards));
  }
  if (stalled_[shard] == stalled) return Status::OK();  // Idempotent.
  stalled_[shard] = stalled;
  if (stalled) {
    telemetry_->AddCounter("serve.shard.stalls");
    return Status::OK();
  }
  telemetry_->AddCounter("serve.shard.unstalls");
  // Replay the backlog into the *current* epoch, one deferred batch-share
  // at a time in arrival order — each replay is exactly the reference
  // Ingest of the withheld slice, so determinism survives the stall.
  std::deque<cs::SparseSlice>& backlog = backlog_[shard];
  while (!backlog.empty()) {
    const cs::SparseSlice slice = std::move(backlog.front());
    backlog.pop_front();
    backlog_events_locked_ -= slice.nnz();
    CSOD_RETURN_NOT_OK(window_->Ingest(slice));
    epoch_events_.back() += slice.nnz();
    telemetry_->AddCounter("serve.shard.replays");
    telemetry_->AddCounter("serve.ingest.replayed_events", slice.nnz());
  }
  return Status::OK();
}

uint64_t StreamingDetector::backlog_events() const {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  return backlog_events_locked_;
}

}  // namespace csod::serve
