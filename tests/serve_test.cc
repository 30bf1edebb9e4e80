#include "serve/service.h"
#include "serve/streaming_detector.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/windowed_detector.h"
#include "obs/telemetry.h"
#include "serve/net.h"

#include "test_scopes.h"

namespace csod::serve {
namespace {

// True while no reader thread has made progress and `deadline` has not
// passed. A concurrency test keeps its writer going meanwhile, so a loaded
// host that schedules the readers late cannot end the overlap before it
// starts.
bool AwaitingReaders(const std::atomic<uint64_t>& progress,
                     std::chrono::steady_clock::time_point deadline) {
  return progress.load() == 0 && std::chrono::steady_clock::now() < deadline;
}

constexpr std::chrono::seconds kOverlapDeadline{10};

StreamingDetectorOptions SmallOptions(size_t window = 3, size_t shards = 4) {
  StreamingDetectorOptions options;
  options.n = 400;
  options.m = 150;
  options.seed = 5;
  options.iterations = 12;
  options.window_epochs = window;
  options.num_shards = shards;
  return options;
}

/// One seeded batch of keyed deltas: a quiet baseline plus one spike.
struct Batch {
  std::vector<size_t> keys;
  std::vector<double> deltas;
};

std::vector<Batch> SeededBatches(size_t num_batches, size_t n,
                                 uint64_t seed) {
  std::minstd_rand rng(static_cast<unsigned>(seed));
  std::vector<Batch> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    Batch& batch = batches[b];
    const size_t events = 20 + rng() % 40;
    for (size_t i = 0; i < events; ++i) {
      batch.keys.push_back(rng() % n);
      batch.deltas.push_back(1.0 + static_cast<double>(rng() % 8));
    }
    // A recurring heavy key so detection has a stable answer.
    batch.keys.push_back(7);
    batch.deltas.push_back(5000.0);
  }
  return batches;
}

/// The reference ingestion of one batch: partitioned into per-shard slices
/// by ShardOfKey and ingested shard-by-shard in shard order — including
/// empty shards — exactly as documented in the determinism contract.
void ReferenceIngest(core::WindowedOutlierDetector* detector,
                     const Batch& batch, size_t num_shards) {
  std::vector<cs::SparseSlice> slices(num_shards);
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    const uint32_t shard =
        StreamingDetector::ShardOfKey(batch.keys[i], num_shards);
    slices[shard].indices.push_back(batch.keys[i]);
    slices[shard].values.push_back(batch.deltas[i]);
  }
  for (const cs::SparseSlice& slice : slices) {
    ASSERT_TRUE(detector->Ingest(slice).ok());
  }
}

TEST(StreamingDetectorTest, CreateValidates) {
  StreamingDetectorOptions bad;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.n = 10;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.m = 4;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.window_epochs = 2;
  EXPECT_TRUE(StreamingDetector::Create(bad).ok());
  bad.num_shards = 0;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
}

TEST(StreamingDetectorTest, IngestBeforeFirstEpochFails) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  std::vector<size_t> keys = {1};
  std::vector<double> deltas = {2.0};
  EXPECT_FALSE(detector->IngestBatch(keys, deltas).ok());
  detector->AdvanceEpoch();
  EXPECT_TRUE(detector->IngestBatch(keys, deltas).ok());
}

TEST(StreamingDetectorTest, IngestValidatesKeysAndSizes) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  detector->AdvanceEpoch();
  std::vector<size_t> keys = {400};  // == N, out of range.
  std::vector<double> deltas = {1.0};
  EXPECT_FALSE(detector->IngestBatch(keys, deltas).ok());
  EXPECT_FALSE(detector->IngestBatch({1, 2}, {1.0}).ok());
  EXPECT_TRUE(detector->IngestBatch({}, {}).ok());  // Empty batch is fine.
}

TEST(StreamingDetectorTest, InfiniteDeltaFailsQuery) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  detector->AdvanceEpoch();
  ASSERT_TRUE(detector
                  ->IngestBatch({3}, {std::numeric_limits<double>::infinity()})
                  .ok());
  detector->AdvanceEpoch();
  const auto result = detector->QueryOutliers(2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingDetectorTest, NoSnapshotBeforeFirstClosedEpoch) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  EXPECT_EQ(detector->Snapshot(), nullptr);
  EXPECT_FALSE(detector->QueryOutliers(2).ok());

  detector->AdvanceEpoch();  // Opens epoch 0; nothing closed yet.
  EXPECT_EQ(detector->Snapshot(), nullptr);
  EXPECT_FALSE(detector->QueryOutliers(2).ok());

  detector->AdvanceEpoch();  // Closes epoch 0 -> first publication.
  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->first_epoch, 0u);
  EXPECT_EQ(snapshot->last_epoch, 0u);
  EXPECT_EQ(snapshot->epochs_covered, 1u);
  EXPECT_TRUE(detector->QueryOutliers(2).ok());
}

TEST(StreamingDetectorTest, SnapshotWindowSlidesAndCountsEvents) {
  auto detector =
      StreamingDetector::Create(SmallOptions(/*window=*/2)).MoveValue();
  detector->AdvanceEpoch();  // Epoch 0.
  ASSERT_TRUE(detector->IngestBatch({1, 2, 3}, {1.0, 1.0, 1.0}).ok());
  detector->AdvanceEpoch();  // Epoch 1; snapshot v1 covers {0}.
  ASSERT_TRUE(detector->IngestBatch({4, 5}, {1.0, 1.0}).ok());
  detector->AdvanceEpoch();  // Epoch 2; snapshot v2 covers {0, 1}.
  detector->AdvanceEpoch();  // Epoch 3; snapshot v3 covers {1, 2}.

  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 3u);
  EXPECT_EQ(snapshot->first_epoch, 1u);
  EXPECT_EQ(snapshot->last_epoch, 2u);
  EXPECT_EQ(snapshot->epochs_covered, 2u);
  EXPECT_EQ(snapshot->events, 2u);  // Epoch 0's three events slid out.
}

// The tentpole contract: the published window measurement and the
// detection answers are bit-identical to a WindowedOutlierDetector fed
// the same per-(batch, shard) slices, at every parallelism limit.
TEST(StreamingDetectorTest, BitIdenticalToWindowedReferenceAcrossLimits) {
  constexpr size_t kWindow = 3;
  constexpr size_t kShards = 4;
  constexpr size_t kEpochs = 5;
  constexpr size_t kBatchesPerEpoch = 3;
  const auto batches =
      SeededBatches(kEpochs * kBatchesPerEpoch, 400, /*seed=*/99);

  std::vector<std::vector<double>> snapshot_y_per_limit;
  std::vector<outlier::OutlierSet> answers_per_limit;

  for (size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    ScopedParallelismLimit scoped(limit);

    auto streaming =
        StreamingDetector::Create(SmallOptions(kWindow, kShards)).MoveValue();
    // Lockstep reference ring: W closed epochs + the in-progress one.
    core::WindowedDetectorOptions wopts;
    wopts.n = 400;
    wopts.m = 150;
    wopts.seed = 5;
    wopts.iterations = 12;
    wopts.window_epochs = kWindow + 1;
    auto lockstep = core::WindowedOutlierDetector::Create(wopts).MoveValue();
    // Lagging reference: window = W, left un-advanced at the end so its
    // ring is exactly the window the final snapshot covers — the "batch
    // Detect over the same window" of the acceptance criterion.
    wopts.window_epochs = kWindow;
    auto lagging = core::WindowedOutlierDetector::Create(wopts).MoveValue();

    size_t next_batch = 0;
    for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
      streaming->AdvanceEpoch();
      lockstep->AdvanceEpoch();
      lagging->AdvanceEpoch();
      for (size_t b = 0; b < kBatchesPerEpoch; ++b) {
        const Batch& batch = batches[next_batch++];
        ASSERT_TRUE(streaming->IngestBatch(batch.keys, batch.deltas).ok());
        ReferenceIngest(lockstep.get(), batch, kShards);
        ReferenceIngest(lagging.get(), batch, kShards);
      }
    }
    streaming->AdvanceEpoch();  // Close the last epoch -> final snapshot.
    lockstep->AdvanceEpoch();   // Lockstep mirrors; lagging stays put.

    auto snapshot = streaming->Snapshot();
    ASSERT_NE(snapshot, nullptr);
    // Window measurement: bitwise equal to the lockstep reference's closed
    // window.
    auto reference_y = lockstep->ClosedWindowMeasurement().MoveValue();
    EXPECT_EQ(snapshot->y, reference_y);

    // Detection: bitwise equal to batch Detect over the same window.
    auto streamed = streaming->QueryOutliers(3).MoveValue();
    auto batch_detect = lagging->Detect(3).MoveValue();
    EXPECT_EQ(streamed.mode, batch_detect.mode);
    ASSERT_EQ(streamed.outliers.size(), batch_detect.outliers.size());
    for (size_t i = 0; i < streamed.outliers.size(); ++i) {
      EXPECT_EQ(streamed.outliers[i].key_index,
                batch_detect.outliers[i].key_index);
      EXPECT_EQ(streamed.outliers[i].value, batch_detect.outliers[i].value);
      EXPECT_EQ(streamed.outliers[i].divergence,
                batch_detect.outliers[i].divergence);
    }

    snapshot_y_per_limit.push_back(snapshot->y);
    answers_per_limit.push_back(streamed);
  }

  // Bit-identical across thread limits.
  for (size_t i = 1; i < snapshot_y_per_limit.size(); ++i) {
    EXPECT_EQ(snapshot_y_per_limit[i], snapshot_y_per_limit[0]);
    ASSERT_EQ(answers_per_limit[i].outliers.size(),
              answers_per_limit[0].outliers.size());
    EXPECT_EQ(answers_per_limit[i].mode, answers_per_limit[0].mode);
    for (size_t j = 0; j < answers_per_limit[i].outliers.size(); ++j) {
      EXPECT_EQ(answers_per_limit[i].outliers[j].value,
                answers_per_limit[0].outliers[j].value);
    }
  }
}

TEST(StreamingDetectorTest, AdvanceToDrivesEpochsFromTicks) {
  // One tick is one epoch: AdvanceTo(t) closes every epoch below t.
  auto detector =
      StreamingDetector::Create(SmallOptions(/*window=*/3)).MoveValue();

  EXPECT_FALSE(detector->started());
  EXPECT_EQ(detector->AdvanceTo(0).MoveValue(), 0u);  // Opens epoch 0.
  EXPECT_TRUE(detector->started());
  EXPECT_EQ(detector->AdvanceTo(0).MoveValue(), 0u);  // Same tick.
  EXPECT_EQ(detector->snapshot_version(), 0u);
  EXPECT_EQ(detector->AdvanceTo(1).MoveValue(), 1u);  // Closes epoch 0.
  EXPECT_EQ(detector->AdvanceTo(3).MoveValue(), 3u);  // Crosses two.
  EXPECT_EQ(detector->snapshot_version(), 3u);  // Published per close.
  EXPECT_FALSE(detector->AdvanceTo(2).ok());    // Clock went backwards.
  EXPECT_EQ(detector->current_epoch(), 3u);
}

// A far-future tick costs at most W + 2 publications, not one per epoch:
// after W + 1 closes the ring is all zero, so the detector lands on the
// tick directly and publishes one empty window.
TEST(StreamingDetectorTest, FarFutureTickPublishesOnceOverAnEmptyRing) {
  constexpr size_t kWindow = 3;
  constexpr uint64_t kTick = 1'000'000'000'000;
  obs::Telemetry telemetry;
  auto options = SmallOptions(kWindow);
  options.telemetry = &telemetry;
  auto detector = StreamingDetector::Create(options).MoveValue();
  ASSERT_EQ(detector->AdvanceTo(0).MoveValue(), 0u);
  const Batch batch = SeededBatches(1, 400, /*seed=*/3)[0];
  ASSERT_TRUE(detector->IngestBatch(batch.keys, batch.deltas).ok());
  const uint64_t before = detector->snapshot_version();

  ASSERT_EQ(detector->AdvanceTo(kTick).MoveValue(), kTick);
  EXPECT_EQ(detector->current_epoch(), kTick);
  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_GT(snapshot->version, before);
  EXPECT_EQ(snapshot->version, detector->snapshot_version());
  EXPECT_EQ(snapshot->first_epoch, kTick - kWindow);
  EXPECT_EQ(snapshot->last_epoch, kTick - 1);
  EXPECT_EQ(snapshot->epochs_covered, kWindow);
  EXPECT_EQ(snapshot->events, 0u);
  ASSERT_EQ(snapshot->y.size(), options.m);
  for (double v : snapshot->y) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v));  // +0.0, not -0.0.
  }
  EXPECT_LE(telemetry.span("serve.snapshot.publish").count, kWindow + 2);

  // The detector keeps running from the new tick.
  ASSERT_TRUE(detector->IngestBatch(batch.keys, batch.deltas).ok());
  EXPECT_EQ(detector->AdvanceTo(kTick + 1).MoveValue(), kTick + 1);
  EXPECT_EQ(detector->Snapshot()->events, batch.keys.size());
  EXPECT_EQ(detector->Snapshot()->version, snapshot->version + 1);
}

// The epoch after UINT64_MAX has no number: that tick is refused before
// anything moves, so the clock tops out at UINT64_MAX - 1 and a checkpoint
// taken there still restores.
TEST(StreamingDetectorTest, LastTickIsRefusedAndTopEpochRestores) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const auto options = SmallOptions(3);
  auto detector = StreamingDetector::Create(options).MoveValue();
  EXPECT_EQ(detector->AdvanceTo(kMax).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(detector->started());

  ASSERT_EQ(detector->AdvanceTo(kMax - 1).MoveValue(), kMax - 1);
  const uint64_t version = detector->snapshot_version();
  const Status refused = detector->AdvanceTo(kMax).status();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.ToString().find("no number"), std::string::npos)
      << refused.ToString();
  EXPECT_EQ(detector->current_epoch(), kMax - 1);
  EXPECT_EQ(detector->snapshot_version(), version);

  auto restored =
      StreamingDetector::Restore(options, detector->CheckpointState());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value()->current_epoch(), kMax - 1);
  EXPECT_EQ(restored.Value()->Snapshot()->last_epoch, kMax - 2);
}

// A jump past the ring lands exactly where a close per epoch would.
TEST(StreamingDetectorTest, JumpMatchesEpochByEpochReference) {
  constexpr size_t kWindow = 3;
  constexpr size_t kShards = 4;
  const auto batches = SeededBatches(6, 400, /*seed=*/17);
  auto streaming =
      StreamingDetector::Create(SmallOptions(kWindow, kShards)).MoveValue();
  core::WindowedDetectorOptions wopts;
  wopts.n = 400;
  wopts.m = 150;
  wopts.seed = 5;
  wopts.iterations = 12;
  wopts.window_epochs = kWindow + 1;
  auto reference = core::WindowedOutlierDetector::Create(wopts).MoveValue();

  ASSERT_EQ(streaming->AdvanceTo(0).MoveValue(), 0u);
  reference->AdvanceEpoch();
  for (size_t b = 0; b < batches.size(); ++b) {
    if (b == 3) {
      ASSERT_EQ(streaming->AdvanceTo(1).MoveValue(), 1u);
      reference->AdvanceEpoch();
    }
    ASSERT_TRUE(
        streaming->IngestBatch(batches[b].keys, batches[b].deltas).ok());
    ReferenceIngest(reference.get(), batches[b], kShards);
  }
  const uint64_t tick = 1 + 3 * (kWindow + 1);
  ASSERT_EQ(streaming->AdvanceTo(tick).MoveValue(), tick);
  while (reference->current_epoch() < tick) reference->AdvanceEpoch();

  auto snapshot = streaming->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  const std::vector<double> want =
      reference->ClosedWindowMeasurement().MoveValue();
  ASSERT_EQ(snapshot->y.size(), want.size());
  EXPECT_EQ(std::memcmp(snapshot->y.data(), want.data(),
                        want.size() * sizeof(double)),
            0);
  EXPECT_EQ(snapshot->first_epoch, tick - kWindow);
  EXPECT_EQ(snapshot->last_epoch, tick - 1);
  EXPECT_EQ(snapshot->epochs_covered, kWindow);
  EXPECT_EQ(snapshot->events, 0u);
}

TEST(StreamingDetectorTest, ShardOfKeyIsMixedAndInRange) {
  constexpr size_t kShards = 8;
  std::vector<size_t> counts(kShards, 0);
  for (size_t key = 0; key < 4096; ++key) {
    const uint32_t shard = StreamingDetector::ShardOfKey(key, kShards);
    ASSERT_LT(shard, kShards);
    ++counts[shard];
  }
  // SplitMix64 mixing: nothing close to the identity hash's striping —
  // every shard sees a reasonable share of consecutive keys.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], 4096 / kShards / 2);
    EXPECT_LT(counts[s], 4096 / kShards * 2);
  }
}

TEST(StreamingDetectorTest, DetectsInjectedOutlierEndToEnd) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  detector->AdvanceEpoch();
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (size_t i = 0; i < 400; ++i) {
    keys.push_back(i);
    deltas.push_back(100.0);
  }
  ASSERT_TRUE(detector->IngestBatch(keys, deltas).ok());
  ASSERT_TRUE(detector->IngestBatch({42}, {50000.0}).ok());
  detector->AdvanceEpoch();

  auto outliers = detector->QueryOutliers(1).MoveValue();
  ASSERT_EQ(outliers.outliers.size(), 1u);
  EXPECT_EQ(outliers.outliers[0].key_index, 42u);
  EXPECT_NEAR(outliers.mode, 100.0, 1e-3);

  auto top = detector->QueryTopK(1).MoveValue();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key_index, 42u);
}

TEST(StreamingDetectorTest, ConcurrentQueriesNeverBlockIngestion) {
  auto detector =
      StreamingDetector::Create(SmallOptions(/*window=*/2)).MoveValue();
  detector->AdvanceEpoch();
  ASSERT_TRUE(detector->IngestBatch({1, 2, 3}, {5.0, 5.0, 5.0}).ok());
  detector->AdvanceEpoch();  // First snapshot exists before readers start.

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = detector->Snapshot();
        ASSERT_NE(snapshot, nullptr);
        // Versions only move forward under concurrent publication.
        ASSERT_GE(snapshot->version, last_version);
        last_version = snapshot->version;
        auto answer = detector->QueryOutliers(2);
        ASSERT_TRUE(answer.ok());
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto batches = SeededBatches(20, 400, /*seed=*/3);
  const auto deadline = std::chrono::steady_clock::now() + kOverlapDeadline;
  for (size_t i = 0;
       i < batches.size() || AwaitingReaders(queries, deadline); ++i) {
    const Batch& batch = batches[i % batches.size()];
    ASSERT_TRUE(detector->IngestBatch(batch.keys, batch.deltas).ok());
    detector->AdvanceEpoch();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(queries.load(), 0u);

  // Staleness: the final snapshot is exactly one epoch behind ingestion.
  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(detector->current_epoch() - snapshot->last_epoch, 1u);
}

TEST(StreamingDetectorTest, TelemetryCountsAndNeverChangesResults) {
  obs::Telemetry telemetry;
  auto options = SmallOptions(/*window=*/2);
  options.telemetry = &telemetry;
  auto traced = StreamingDetector::Create(options).MoveValue();
  auto plain = StreamingDetector::Create(SmallOptions(/*window=*/2))
                   .MoveValue();

  const auto batches = SeededBatches(4, 400, /*seed=*/21);
  traced->AdvanceEpoch();
  plain->AdvanceEpoch();
  for (const Batch& batch : batches) {
    ASSERT_TRUE(traced->IngestBatch(batch.keys, batch.deltas).ok());
    ASSERT_TRUE(plain->IngestBatch(batch.keys, batch.deltas).ok());
  }
  traced->AdvanceEpoch();
  plain->AdvanceEpoch();
  auto traced_answer = traced->QueryOutliers(2).MoveValue();
  auto plain_answer = plain->QueryOutliers(2).MoveValue();

  // Telemetry is observability, never behavior: identical bits either way.
  EXPECT_EQ(traced->Snapshot()->y, plain->Snapshot()->y);
  EXPECT_EQ(traced_answer.mode, plain_answer.mode);
  ASSERT_EQ(traced_answer.outliers.size(), plain_answer.outliers.size());
  for (size_t i = 0; i < traced_answer.outliers.size(); ++i) {
    EXPECT_EQ(traced_answer.outliers[i].value,
              plain_answer.outliers[i].value);
  }

  uint64_t total_events = 0;
  for (const Batch& batch : batches) total_events += batch.keys.size();
  EXPECT_EQ(telemetry.counter("serve.epochs"), 2u);
  EXPECT_EQ(telemetry.counter("serve.snapshots"), 1u);
  // Ingest telemetry reaches the registry at epoch close: the 4 batches
  // were flushed as one counter add and one accumulated ingest span when
  // epoch 0 closed, and "serve.epoch.events" histograms the closed epoch.
  EXPECT_EQ(telemetry.counter("serve.ingest.batches"), 4u);
  EXPECT_EQ(telemetry.counter("serve.ingest.events"), total_events);
  EXPECT_EQ(telemetry.counter("serve.queries"), 1u);
  EXPECT_EQ(telemetry.value("serve.epoch.events").count, 1u);
  EXPECT_EQ(telemetry.value("serve.epoch.events").max,
            static_cast<double>(total_events));
  EXPECT_EQ(telemetry.value("serve.query.age_epochs").max, 1.0);
  EXPECT_EQ(telemetry.span("serve.ingest").count, 1u);
  EXPECT_EQ(telemetry.span("serve.epoch.advance").count, 2u);
  EXPECT_EQ(telemetry.span("serve.snapshot.publish").count, 1u);
  EXPECT_EQ(telemetry.span("serve.query").count, 1u);
}

TEST(StreamingServiceTest, TenantsOfOneGeometryShareOneMatrix) {
  StreamingService service;
  // The window length is not part of Φ0's geometry.
  ASSERT_TRUE(service.AddTenant("clicks", SmallOptions(3)).ok());
  ASSERT_TRUE(service.AddTenant("latency", SmallOptions(5)).ok());
  StreamingDetectorOptions reseeded = SmallOptions();
  reseeded.seed = 6;
  ASSERT_TRUE(service.AddTenant("reseeded", reseeded).ok());
  const auto clicks = service.Tenant("clicks").MoveValue();
  EXPECT_EQ(&clicks->matrix(),
            &service.Tenant("latency").MoveValue()->matrix());
  EXPECT_NE(&clicks->matrix(),
            &service.Tenant("reseeded").MoveValue()->matrix());
}

TEST(StreamingServiceTest, TenantLifecycle) {
  StreamingService service;
  EXPECT_FALSE(service.AddTenant("", SmallOptions()).ok());
  ASSERT_TRUE(service.AddTenant("clicks", SmallOptions()).ok());
  EXPECT_EQ(service.AddTenant("clicks", SmallOptions()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.Tenant("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(service.AddTenant("latency", SmallOptions()).ok());
  EXPECT_EQ(service.TenantNames().size(), 2u);
  ASSERT_TRUE(service.RemoveTenant("latency").ok());
  EXPECT_EQ(service.RemoveTenant("latency").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.TenantNames().size(), 1u);
}

TEST(StreamingServiceTest, QueryTemplateAgainstTenantSnapshot) {
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("clicks", SmallOptions()).ok());
  ASSERT_TRUE(service.AdvanceTo("clicks", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (size_t i = 0; i < 400; ++i) {
    keys.push_back(i);
    deltas.push_back(10.0);
  }
  ASSERT_TRUE(service.Ingest("clicks", keys, deltas).ok());
  ASSERT_TRUE(service.Ingest("clicks", {9}, {90000.0}).ok());
  ASSERT_TRUE(service.AdvanceTo("clicks", 1).ok());

  auto outliers =
      service.Query("SELECT Outlier 1 SUM(score), key FROM clicks GROUP BY key")
          .MoveValue();
  ASSERT_EQ(outliers.rows.size(), 1u);
  EXPECT_EQ(outliers.rows[0].group_key, "9");
  EXPECT_NEAR(outliers.mode, 10.0, 1e-3);
  EXPECT_EQ(outliers.key_space, 400u);
  EXPECT_EQ(outliers.snapshot_version, 1u);
  EXPECT_EQ(outliers.snapshot_last_epoch, 0u);
  EXPECT_EQ(outliers.staleness_epochs, 1u);
  EXPECT_TRUE(outliers.stalled_shards.empty());

  auto top =
      service.Query("SELECT Top 1 SUM(score), key FROM clicks GROUP BY key")
          .MoveValue();
  ASSERT_EQ(top.rows.size(), 1u);
  EXPECT_EQ(top.rows[0].group_key, "9");
  EXPECT_EQ(top.mode, 0.0);

  // Unknown tenant in FROM and malformed text both fail cleanly.
  EXPECT_EQ(service.Query("SELECT Top 1 SUM(s), key FROM ghost GROUP BY key")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(service.Query("SELECT nonsense").ok());
}

// Regression (tenant-lifetime race): Tenant() used to hand out a raw
// pointer after dropping the service mutex, so a concurrent RemoveTenant
// destroyed the detector under an in-flight Ingest/Query (use-after-free
// under TSan/ASan). The handle is now a shared_ptr: removal only detaches
// the tenant, and the last in-flight caller finishes safely. This test runs
// queries and ingests against a tenant while another thread removes and
// re-adds it; sanitizer runs (scripts/run_sanitizers.sh) make any revival
// of the race fail loudly.
TEST(StreamingServiceTest, RemoveTenantWhileQueryingIsSafe) {
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("churn", SmallOptions()).ok());
  ASSERT_TRUE(service.AdvanceTo("churn", 0).ok());
  ASSERT_TRUE(service.Ingest("churn", {7}, {5000.0}).ok());
  ASSERT_TRUE(service.AdvanceTo("churn", 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        // Grab a handle; whatever happens to the tenant map afterwards,
        // the handle must stay valid for the whole query.
        auto handle = service.Tenant("churn");
        if (!handle.ok()) continue;  // Between remove and re-add.
        std::shared_ptr<StreamingDetector> detector = handle.MoveValue();
        auto snapshot = detector->Snapshot();
        if (snapshot != nullptr) {
          auto answer = detector->QueryOutliers(1);
          if (answer.ok()) answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Re-adding a tenant of a known geometry is cheap (its Φ0 is shared), so
  // 50 rounds alone can end before any reader is scheduled.
  const auto deadline = std::chrono::steady_clock::now() + kOverlapDeadline;
  for (int round = 0; round < 50 || AwaitingReaders(answered, deadline);
       ++round) {
    ASSERT_TRUE(service.RemoveTenant("churn").ok());
    ASSERT_TRUE(service.AddTenant("churn", SmallOptions()).ok());
    ASSERT_TRUE(service.AdvanceTo("churn", 0).ok());
    ASSERT_TRUE(service.Ingest("churn", {7}, {5000.0}).ok());
    ASSERT_TRUE(service.AdvanceTo("churn", 1).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(answered.load(), 0u);
}

// Provenance: an answer names the snapshot that produced it. A writer
// closes epochs (each with its own planted hot key, so every snapshot has
// a different answer) while an analyst queries through the service; every
// answer's rows must equal a follower's answer on exactly the snapshot
// version the result names — even when an epoch closed mid-recovery.
TEST(StreamingServiceTest, AnswerProvenanceNamesTheAnsweringSnapshot) {
  constexpr uint64_t kEpochs = 150;
  constexpr uint64_t kMaxEpochs = 5000;
  constexpr size_t kMinAnswers = 50;
  const auto options = SmallOptions(/*window=*/1);
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("t", options).ok());
  const std::shared_ptr<StreamingDetector> detector =
      service.Tenant("t").MoveValue();

  // Written by this (the writer) thread only; read after the analyst joins.
  std::map<uint64_t, std::shared_ptr<const SketchSnapshot>> published;
  auto close_epoch = [&](uint64_t epoch) {
    const size_t hot = (epoch * 37 + 11) % options.n;
    ASSERT_TRUE(service.Ingest("t", {1, 2, hot}, {3.0, 3.0, 5000.0}).ok());
    ASSERT_TRUE(service.AdvanceTo("t", epoch + 1).ok());
    auto snapshot = detector->Snapshot();
    published[snapshot->version] = std::move(snapshot);
  };
  ASSERT_TRUE(service.AdvanceTo("t", 0).ok());
  close_epoch(0);

  const std::string texts[2] = {
      "SELECT Outlier 2 SUM(score), key FROM t GROUP BY key",
      "SELECT Top 2 SUM(score), key FROM t GROUP BY key"};
  std::atomic<bool> done{false};
  std::atomic<size_t> answered{0};
  std::vector<std::pair<int, StreamingQueryResult>> answers;
  std::thread analyst([&] {
    for (int i = 0; !done.load(std::memory_order_relaxed); ++i) {
      Result<StreamingQueryResult> result = service.Query(texts[i % 2]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      answers.emplace_back(i % 2, result.MoveValue());
      answered.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Keep closing epochs until the analyst has overlapped enough of them,
  // however the scheduler interleaves the two threads.
  for (uint64_t epoch = 1;
       epoch < kEpochs ||
       (answered.load(std::memory_order_relaxed) < kMinAnswers &&
        epoch < kMaxEpochs);
       ++epoch) {
    close_epoch(epoch);
  }
  done.store(true, std::memory_order_relaxed);
  analyst.join();
  ASSERT_GE(answers.size(), kMinAnswers);

  SnapshotFollowerOptions fopts;
  fopts.n = options.n;
  fopts.m = options.m;
  fopts.seed = options.seed;
  fopts.iterations = options.iterations;
  for (const auto& [kind, answer] : answers) {
    const uint64_t version = answer.snapshot_version;
    ASSERT_EQ(published.count(version), 1u) << "version " << version;
    const SketchSnapshot& snapshot = *published.at(version);
    EXPECT_EQ(answer.snapshot_last_epoch, snapshot.last_epoch);
    auto follower = SnapshotFollower::Create(fopts).MoveValue();
    ASSERT_TRUE(follower->ApplySnapshot(snapshot).ok());
    outlier::OutlierSet expect;
    if (kind == 0) {
      expect = follower->QueryOutliers(2).MoveValue();
    } else {
      expect.outliers = follower->QueryTopK(2).MoveValue();
    }
    EXPECT_EQ(answer.mode, expect.mode) << "version " << version;
    ASSERT_EQ(answer.rows.size(), expect.outliers.size())
        << "version " << version;
    for (size_t i = 0; i < answer.rows.size(); ++i) {
      EXPECT_EQ(answer.rows[i].group_key,
                std::to_string(expect.outliers[i].key_index))
          << "version " << version;
      EXPECT_EQ(answer.rows[i].value, expect.outliers[i].value);
      EXPECT_EQ(answer.rows[i].rank_score, expect.outliers[i].divergence);
    }
  }
}

TEST(StreamingServiceTest, TenantsAreIsolated) {
  StreamingService service;
  auto clicks_options = SmallOptions();
  auto latency_options = SmallOptions();
  latency_options.seed = 77;  // Different consensus seed per tenant.
  ASSERT_TRUE(service.AddTenant("clicks", clicks_options).ok());
  ASSERT_TRUE(service.AddTenant("latency", latency_options).ok());

  ASSERT_TRUE(service.AdvanceAllTo(0).ok());
  ASSERT_TRUE(service.Ingest("clicks", {5}, {1000.0}).ok());
  ASSERT_TRUE(service.AdvanceAllTo(1).ok());

  // clicks sees its spike; latency saw nothing.
  auto clicks = service.Tenant("clicks").MoveValue()->Snapshot();
  auto latency = service.Tenant("latency").MoveValue()->Snapshot();
  ASSERT_NE(clicks, nullptr);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(clicks->events, 1u);
  EXPECT_EQ(latency->events, 0u);
  EXPECT_EQ(latency->y, std::vector<double>(150, 0.0));
}

}  // namespace
}  // namespace csod::serve
