// Tests of checkpoint/restore (serve/checkpoint.h): restore republishes
// bit-identically, a restored detector continues exactly like one that
// never died, torn checkpoints are rejected with DataLoss, and geometry
// mismatches and state this build cannot run are refused.
#include "serve/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cs/measurement_matrix.h"
#include "dist/wire_format.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"
#include "sim/buggify.h"

namespace csod::serve {
namespace {

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

void SeededBatch(uint64_t seed, size_t n, std::vector<size_t>* keys,
                 std::vector<double>* deltas) {
  keys->clear();
  deltas->clear();
  uint64_t x = seed;
  for (size_t i = 0; i < 50; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys->push_back((x >> 33) % n);
    deltas->push_back(1.0 + static_cast<double>((x >> 20) % 8));
  }
}

void ExpectSnapshotsBitIdentical(
    const std::shared_ptr<const SketchSnapshot>& a,
    const std::shared_ptr<const SketchSnapshot>& b) {
  ASSERT_EQ(a == nullptr, b == nullptr);
  if (a == nullptr) return;
  EXPECT_EQ(a->version, b->version);
  EXPECT_EQ(a->first_epoch, b->first_epoch);
  EXPECT_EQ(a->last_epoch, b->last_epoch);
  EXPECT_EQ(a->epochs_covered, b->epochs_covered);
  EXPECT_EQ(a->events, b->events);
  EXPECT_EQ(a->y, b->y);  // Bitwise double equality.
}

// Builds a detector with a few epochs of history plus an in-progress epoch
// with data — the general mid-stream state a checkpoint must capture.
std::unique_ptr<StreamingDetector> BuildMidStream(
    const StreamingDetectorOptions& options) {
  auto detector = StreamingDetector::Create(options).MoveValue();
  detector->AdvanceEpoch();
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t epoch = 0; epoch < 4; ++epoch) {
    for (uint64_t b = 0; b < 2; ++b) {
      SeededBatch(epoch * 31 + b, options.n, &keys, &deltas);
      EXPECT_TRUE(detector->IngestBatch(keys, deltas).ok());
    }
    detector->AdvanceEpoch();
  }
  // Partial data in the in-progress epoch.
  SeededBatch(991, options.n, &keys, &deltas);
  EXPECT_TRUE(detector->IngestBatch(keys, deltas).ok());
  return detector;
}

TEST(CheckpointTest, RestoreRepublishesBitIdentically) {
  const auto options = SmallOptions();
  auto original = BuildMidStream(options);
  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();

  auto restored = RestoreDetector(frame, options).MoveValue();
  EXPECT_EQ(restored->current_epoch(), original->current_epoch());
  EXPECT_EQ(restored->snapshot_version(), original->snapshot_version());
  EXPECT_EQ(restored->started(), original->started());
  // The restored detector republishes the checkpointed snapshot exactly.
  ExpectSnapshotsBitIdentical(restored->Snapshot(), original->Snapshot());
  // And the next publication (advancing both) is bit-identical too: the
  // in-progress epoch's partial sketch survived the restart.
  original->AdvanceEpoch();
  restored->AdvanceEpoch();
  ExpectSnapshotsBitIdentical(restored->Snapshot(), original->Snapshot());
}

TEST(CheckpointTest, RestoredDetectorContinuesExactly) {
  const auto options = SmallOptions();
  auto original = BuildMidStream(options);
  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();
  auto restored = RestoreDetector(frame, options).MoveValue();

  // Feed both the same continuation; every publication must stay
  // bit-identical (versions continue from the checkpointed counter).
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    for (uint64_t b = 0; b < 2; ++b) {
      SeededBatch(7000 + epoch * 13 + b, options.n, &keys, &deltas);
      ASSERT_TRUE(original->IngestBatch(keys, deltas).ok());
      ASSERT_TRUE(restored->IngestBatch(keys, deltas).ok());
    }
    original->AdvanceEpoch();
    restored->AdvanceEpoch();
    ExpectSnapshotsBitIdentical(restored->Snapshot(), original->Snapshot());
  }
  auto original_answer = original->QueryOutliers(3).MoveValue();
  auto restored_answer = restored->QueryOutliers(3).MoveValue();
  EXPECT_EQ(original_answer.mode, restored_answer.mode);
  ASSERT_EQ(original_answer.outliers.size(), restored_answer.outliers.size());
  for (size_t i = 0; i < original_answer.outliers.size(); ++i) {
    EXPECT_EQ(original_answer.outliers[i].value,
              restored_answer.outliers[i].value);
  }
}

TEST(CheckpointTest, RestoreThenQueryPreservesStaleness) {
  // The restored service answers from the same snapshot, at the same
  // distance from the in-progress epoch.
  const auto options = SmallOptions(/*window=*/2);
  auto original = StreamingDetector::Create(options).MoveValue();
  original->AdvanceEpoch();
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t epoch = 0; epoch < 3; ++epoch) {
    SeededBatch(epoch, options.n, &keys, &deltas);
    ASSERT_TRUE(original->IngestBatch(keys, deltas).ok());
    original->AdvanceEpoch();
  }
  // Epoch 3 in progress; the snapshot covers {1, 2}: staleness is 1.
  auto snapshot = original->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->first_epoch, 1u);
  const uint64_t staleness =
      original->current_epoch() - snapshot->last_epoch;
  EXPECT_EQ(staleness, 1u);

  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();
  auto restored = RestoreDetector(frame, options).MoveValue();
  auto restored_snapshot = restored->Snapshot();
  ASSERT_NE(restored_snapshot, nullptr);
  EXPECT_EQ(restored->current_epoch() - restored_snapshot->last_epoch,
            staleness);
  // The restored detector answers queries from that same snapshot.
  auto result = restored->QueryOutliers(2);
  ASSERT_TRUE(result.ok());
  // Never underflows: the snapshot can only trail the clock.
  EXPECT_GE(restored->current_epoch(), restored_snapshot->last_epoch);
}

TEST(CheckpointTest, TornOrCorruptCheckpointIsDataLoss) {
  const auto options = SmallOptions();
  auto original = BuildMidStream(options);
  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();

  // Torn at any point (a crash mid-write): DataLoss, never a bad restore.
  for (size_t keep : {frame.size() / 4, frame.size() / 2, frame.size() - 1}) {
    const std::string torn = frame.substr(0, keep);
    EXPECT_EQ(DecodeCheckpoint(torn).status().code(), StatusCode::kDataLoss)
        << "kept " << keep << " bytes";
  }
  // A flipped bit deep in the payload: the outer checksum catches it.
  std::string corrupt = frame;
  corrupt[frame.size() / 2] = static_cast<char>(corrupt[frame.size() / 2] ^ 1);
  EXPECT_EQ(DecodeCheckpoint(corrupt).status().code(), StatusCode::kDataLoss);
  // The intact frame still decodes (the copies above didn't slice state).
  EXPECT_TRUE(DecodeCheckpoint(frame).ok());
}

TEST(CheckpointTest, BuggifyMidCheckpointCrashTearsDeterministically) {
  sim::BuggifyOptions buggify;
  buggify.seed = 9;
  buggify.activation_probability = 1.0;
  buggify.fire_probability = 1.0;
  sim::BuggifyEnable(buggify);
  const auto options = SmallOptions();
  auto detector = BuildMidStream(options);
  // With the section firing, the encoded frame is truncated — exactly what
  // a crash mid-write leaves behind. Decode must refuse it.
  const std::string torn =
      EncodeCheckpoint(options, detector->CheckpointState()).MoveValue();
  EXPECT_EQ(DecodeCheckpoint(torn).status().code(), StatusCode::kDataLoss);
  sim::BuggifyDisable();
  // Disarmed, the same state round-trips.
  const std::string intact =
      EncodeCheckpoint(options, detector->CheckpointState()).MoveValue();
  EXPECT_TRUE(DecodeCheckpoint(intact).ok());
}

TEST(CheckpointTest, GeometryMismatchIsRefused) {
  const auto options = SmallOptions();
  auto original = BuildMidStream(options);
  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();

  auto wrong = options;
  wrong.n = 500;
  EXPECT_FALSE(RestoreDetector(frame, wrong).ok());
  wrong = options;
  wrong.m = 100;
  EXPECT_FALSE(RestoreDetector(frame, wrong).ok());
  wrong = options;
  wrong.seed = 6;
  EXPECT_FALSE(RestoreDetector(frame, wrong).ok());
  wrong = options;
  wrong.num_shards = 8;
  EXPECT_FALSE(RestoreDetector(frame, wrong).ok());
  wrong = options;
  wrong.window_epochs = 5;
  EXPECT_FALSE(RestoreDetector(frame, wrong).ok());
  // Runtime-only knobs (iterations, telemetry) may differ freely.
  auto runtime = options;
  runtime.iterations = 20;
  EXPECT_TRUE(RestoreDetector(frame, runtime).ok());
}

// A checksummed checkpoint frame up to (and including) the epoch count,
// with hostile geometry: the header fields a decoder sizes containers by.
std::string CraftedCheckpointPrefix(uint64_t window_epochs,
                                    uint64_t num_shards, bool has_snapshot,
                                    uint64_t num_epochs) {
  std::string payload;
  for (uint64_t field : {uint64_t{400}, uint64_t{150}, uint64_t{5},
                         window_epochs, num_shards, uint64_t{1}}) {
    dist::AppendU64(&payload, field);  // n, m, seed, window, shards, ticks.
  }
  payload.push_back(0);                        // Sliding window.
  payload.push_back(1);                        // Started.
  payload.push_back(has_snapshot ? 1 : 0);
  for (int field = 0; field < 3; ++field) {
    dist::AppendU64(&payload, 1);  // current_epoch, version, last_tick.
  }
  dist::AppendU64(&payload, num_epochs);
  return payload;
}

// Crafted frames with valid checksums and counts no payload could back:
// each must fail with InvalidArgument before anything is sized from them.
TEST(CheckpointTest, CraftedHugeEpochCountIsRefused) {
  const uint64_t epochs = uint64_t{1} << 60;
  const std::string payload =
      CraftedCheckpointPrefix(UINT64_MAX - 1, 4, false, epochs);
  EXPECT_EQ(DecodeCheckpoint(
                dist::EncodeFrame(kCheckpointFrameKind, epochs, payload))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, CraftedHugeShardCountIsRefused) {
  const std::string payload =
      CraftedCheckpointPrefix(3, uint64_t{1} << 60, false, 0);
  EXPECT_EQ(
      DecodeCheckpoint(dist::EncodeFrame(kCheckpointFrameKind, 0, payload))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

// Shards never stall: any non-zero stalled-shard count in the snapshot
// section is refused by name.
TEST(CheckpointTest, CraftedHugeSnapshotStalledCountIsRefused) {
  for (const uint32_t stalled : {uint32_t{1}, uint32_t{UINT32_MAX}}) {
    std::string payload = CraftedCheckpointPrefix(3, 0, true, 0);
    for (int field = 0; field < 5; ++field) dist::AppendU64(&payload, 1);
    dist::AppendU32(&payload, stalled);
    if (stalled == 1) dist::AppendU32(&payload, 0);  // The stalled shard.
    ASSERT_TRUE(dist::AppendLengthPrefixed(
                    &payload, dist::EncodeMeasurement(
                                  std::vector<double>(150, 1.0))
                                  .MoveValue())
                    .ok());
    dist::AppendU32(&payload, cs::kPhi0Format);
    const Status refused =
        DecodeCheckpoint(dist::EncodeFrame(kCheckpointFrameKind, 0, payload))
            .status();
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.message().find("stalled-shard count " +
                                     std::to_string(stalled)),
              std::string::npos)
        << refused.ToString();
  }
}

// Re-frames `frame`'s payload with its last `strip` bytes replaced by
// `trailer`: a valid checksum around another Φ0 format marker.
std::string WithPhi0Trailer(const std::string& frame, size_t strip,
                            const std::string& trailer) {
  const dist::FrameView view = dist::DecodeFrame(frame).MoveValue();
  std::string payload(view.payload, view.payload_size - strip);
  payload += trailer;
  return dist::EncodeFrame(view.kind, view.count, payload);
}

TEST(CheckpointTest, OtherPhi0FormatsAreRefusedByName) {
  const auto options = SmallOptions();
  auto original = BuildMidStream(options);
  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();
  ASSERT_TRUE(RestoreDetector(frame, options).ok());

  // A frame from before the Φ0 format marker: the same payload, no trailer.
  const std::string format1 = WithPhi0Trailer(frame, 4, "");
  const Status old = RestoreDetector(format1, options).status();
  EXPECT_EQ(old.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old.ToString().find("Φ0 format 1"), std::string::npos)
      << old.ToString();

  // Frames from the previous and from a later Φ0 format (3 and 5).
  for (const uint32_t marker : {cs::kPhi0Format - 1, cs::kPhi0Format + 1}) {
    std::string trailer;
    dist::AppendU32(&trailer, marker);
    const Status other =
        RestoreDetector(WithPhi0Trailer(frame, 4, trailer), options).status();
    EXPECT_EQ(other.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(other.ToString().find("Φ0 format " + std::to_string(marker)),
              std::string::npos)
        << other.ToString();
  }
}

// Re-frames `frame` with `bytes` written over its payload at `offset`: a
// valid checksum around a patched header field.
std::string WithPatchedPayload(const std::string& frame, size_t offset,
                               const std::string& bytes) {
  const dist::FrameView view = dist::DecodeFrame(frame).MoveValue();
  std::string payload(view.payload, view.payload_size);
  payload.replace(offset, bytes.size(), bytes);
  return dist::EncodeFrame(view.kind, view.count, payload);
}

// Payload offset of the per-shard section (num_shards u8 stall flags, then
// num_shards u64 backlog counts): past the 83-byte header and every
// retained epoch's u64 event count and length-prefixed sketch.
size_t ShardSectionOffset(const std::string& frame) {
  const dist::FrameView view = dist::DecodeFrame(frame).MoveValue();
  uint64_t num_epochs = 0;
  std::memcpy(&num_epochs, view.payload + 75, sizeof(num_epochs));
  size_t offset = 83;
  for (uint64_t e = 0; e < num_epochs; ++e) {
    uint32_t length = 0;
    std::memcpy(&length, view.payload + offset + 8, sizeof(length));
    offset += 8 + 4 + length;
  }
  return offset;
}

// The frame format keeps fields for state this build cannot run: the
// tick clock (u64 epoch_ticks at payload offset 40), the window kind (u8
// at 48), and a stall flag and a backlog count per shard. The encoder
// always writes 1, 0, 0 and 0 there; a frame with anything else (a
// multi-tick epoch, a tumbling window, a stalled shard, a shard backlog)
// is refused by name, never as DataLoss.
TEST(CheckpointTest, TumblingWindowAndTickClockAreRefusedByName) {
  const auto options = SmallOptions();
  auto original = BuildMidStream(options);
  const std::string frame =
      EncodeCheckpoint(options, original->CheckpointState()).MoveValue();
  std::string one_tick;
  dist::AppendU64(&one_tick, 1);
  EXPECT_EQ(WithPatchedPayload(frame, 40, one_tick + '\0'), frame);

  std::string ten_ticks;
  dist::AppendU64(&ten_ticks, 10);
  const Status ticks =
      RestoreDetector(WithPatchedPayload(frame, 40, ten_ticks), options)
          .status();
  EXPECT_EQ(ticks.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ticks.ToString().find("epoch_ticks"), std::string::npos)
      << ticks.ToString();

  const Status tumbling =
      RestoreDetector(WithPatchedPayload(frame, 48, "\1"), options).status();
  EXPECT_EQ(tumbling.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tumbling.ToString().find("tumbling window"), std::string::npos)
      << tumbling.ToString();

  const size_t shards = ShardSectionOffset(frame);
  EXPECT_EQ(WithPatchedPayload(frame, shards, std::string(4, '\0')), frame);
  const Status stalled =
      RestoreDetector(WithPatchedPayload(frame, shards + 2, "\1"), options)
          .status();
  EXPECT_EQ(stalled.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stalled.ToString().find("stalled shard 2"), std::string::npos)
      << stalled.ToString();

  std::string one_slice;
  dist::AppendU64(&one_slice, 1);
  EXPECT_EQ(WithPatchedPayload(frame, shards + options.num_shards,
                               std::string(8 * options.num_shards, '\0')),
            frame);
  const Status backlog =
      RestoreDetector(WithPatchedPayload(frame, shards + options.num_shards + 8,
                                         one_slice),
                      options)
          .status();
  EXPECT_EQ(backlog.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(backlog.ToString().find("shard 1 backlog"), std::string::npos)
      << backlog.ToString();
}

TEST(CheckpointTest, FetchedOverTheWireEqualsLocalEncoding) {
  const auto options = SmallOptions();
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("t", options).ok());
  NetServer server(&service);
  LoopbackTransport transport(&server);
  NetClient client(&transport);
  ASSERT_TRUE(client.AdvanceTo("t", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  SeededBatch(3, options.n, &keys, &deltas);
  ASSERT_TRUE(client.Ingest("t", keys, deltas).ok());
  ASSERT_TRUE(client.AdvanceTo("t", 1).ok());

  const std::string over_wire = client.FetchCheckpoint("t").MoveValue();
  auto detector = service.Tenant("t").MoveValue();
  const std::string local =
      EncodeCheckpoint(detector->options(), detector->CheckpointState())
          .MoveValue();
  // Byte-identical: the RPC response *is* the checkpoint frame.
  EXPECT_EQ(over_wire, local);
  auto restored = RestoreDetector(over_wire, options).MoveValue();
  ExpectSnapshotsBitIdentical(restored->Snapshot(), detector->Snapshot());
}

}  // namespace
}  // namespace csod::serve
