// Tests of the wire-facing deployment surface (serve/net.h): framed
// end-to-end exactness against the in-process detector, both transports,
// admission control / backpressure, torn-frame retry conservation, and
// snapshot-replicated followers.
#include "serve/net.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cs/measurement_matrix.h"
#include "dist/comm.h"
#include "dist/wire_format.h"
#include "obs/telemetry.h"
#include "serve/checkpoint.h"
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

// A deterministic keyed batch with one heavy key so queries have answers.
void SeededBatch(uint64_t seed, size_t n, std::vector<size_t>* keys,
                 std::vector<double>* deltas) {
  keys->clear();
  deltas->clear();
  uint64_t x = seed;
  for (size_t i = 0; i < 60; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys->push_back((x >> 33) % n);
    deltas->push_back(1.0 + static_cast<double>((x >> 20) % 8));
  }
  keys->push_back(7);
  deltas->push_back(5000.0);
}

// Service + tenant + server + loopback client, ready to drive.
struct Rig {
  explicit Rig(StreamingDetectorOptions options = SmallOptions(),
               NetServerOptions net = {})
      : server(&service, net), transport(&server), client(&transport) {
    EXPECT_TRUE(service.AddTenant("t", options).ok());
  }
  std::shared_ptr<StreamingDetector> tenant() {
    return service.Tenant("t").MoveValue();
  }

  StreamingService service;
  NetServer server;
  LoopbackTransport transport;
  NetClient client;
};

TEST(NetCodecTest, SnapshotResponseRoundTripsExactly) {
  SketchSnapshot snapshot;
  snapshot.version = 42;
  snapshot.first_epoch = 3;
  snapshot.last_epoch = 6;
  snapshot.epochs_covered = 4;
  snapshot.events = 12345;
  snapshot.y = {1.5, -2.25, 0.0, 3.0e-17};
  snapshot.stalled_shards = {1, 3};

  const std::string frame = EncodeSnapshotResponse(snapshot).MoveValue();
  const SketchSnapshot decoded = DecodeSnapshotResponse(frame).MoveValue();
  EXPECT_EQ(decoded.version, snapshot.version);
  EXPECT_EQ(decoded.first_epoch, snapshot.first_epoch);
  EXPECT_EQ(decoded.last_epoch, snapshot.last_epoch);
  EXPECT_EQ(decoded.epochs_covered, snapshot.epochs_covered);
  EXPECT_EQ(decoded.events, snapshot.events);
  EXPECT_EQ(decoded.y, snapshot.y);  // Bitwise: doubles travel by bits.
  EXPECT_EQ(decoded.stalled_shards, snapshot.stalled_shards);
}

TEST(NetCodecTest, CorruptionAnywhereIsDataLoss) {
  SketchSnapshot snapshot;
  snapshot.version = 1;
  snapshot.y = {1.0, 2.0};
  const std::string frame = EncodeSnapshotResponse(snapshot).MoveValue();
  for (size_t at : {size_t{0}, size_t{5}, frame.size() / 2,
                    frame.size() - 1}) {
    std::string bad = frame;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    EXPECT_EQ(DecodeSnapshotResponse(bad).status().code(),
              StatusCode::kDataLoss)
        << "flipped byte " << at;
  }
  std::string torn = frame.substr(0, frame.size() - 3);
  EXPECT_EQ(DecodeSnapshotResponse(torn).status().code(),
            StatusCode::kDataLoss);
}

TEST(NetServerTest, RejectsGarbageAndUnknownKinds) {
  Rig rig;
  // Garbage bytes: the response is a kError frame carrying DataLoss.
  const std::string response = rig.server.HandleFrame("not a frame");
  const dist::FrameView view = dist::DecodeFrame(response).MoveValue();
  EXPECT_EQ(view.kind, static_cast<uint8_t>(NetFrameKind::kError));
  EXPECT_EQ(rig.server.frames_rejected(), 1u);

  // A checksummed frame of a kind the server does not speak.
  const std::string unknown = dist::EncodeFrame(99, 0, "");
  const dist::FrameView bad =
      dist::DecodeFrame(rig.server.HandleFrame(unknown)).MoveValue();
  EXPECT_EQ(bad.kind, static_cast<uint8_t>(NetFrameKind::kError));

  // Oversized frames are refused before decoding.
  NetServerOptions tiny;
  tiny.max_frame_bytes = 16;
  StreamingService service;
  NetServer small(&service, tiny);
  const std::string refused =
      small.HandleFrame(dist::EncodeFrame(17, 0, std::string(64, 'x')));
  EXPECT_EQ(dist::DecodeFrame(refused).MoveValue().kind,
            static_cast<uint8_t>(NetFrameKind::kError));
}

// The tentpole exactness gate: every answer served over the wire is
// bit-identical to the same calls made in-process.
TEST(NetEndToEndTest, LoopbackMatchesInProcessExactly) {
  Rig rig;
  auto reference = StreamingDetector::Create(SmallOptions()).MoveValue();

  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  reference->AdvanceEpoch();
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {
    for (uint64_t b = 0; b < 3; ++b) {
      SeededBatch(epoch * 17 + b, 400, &keys, &deltas);
      ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
      ASSERT_TRUE(reference->IngestBatch(keys, deltas).ok());
    }
    EXPECT_EQ(rig.client.AdvanceTo("t", epoch + 1).MoveValue(), epoch + 1);
    reference->AdvanceEpoch();
  }

  // Snapshot over the wire == the reference's, bit for bit.
  const SketchSnapshot fetched =
      rig.client.FetchSnapshot("t").MoveValue();
  auto want = reference->Snapshot();
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(fetched.version, want->version);
  EXPECT_EQ(fetched.first_epoch, want->first_epoch);
  EXPECT_EQ(fetched.last_epoch, want->last_epoch);
  EXPECT_EQ(fetched.y, want->y);
  EXPECT_EQ(fetched.events, want->events);

  // Query over the wire == QueryOutliers in-process, bit for bit.
  const StreamingQueryResult got =
      rig.client
          .Query("SELECT Outlier 3 SUM(score), key FROM t GROUP BY key")
          .MoveValue();
  const outlier::OutlierSet expect = reference->QueryOutliers(3).MoveValue();
  EXPECT_EQ(got.mode, expect.mode);
  ASSERT_EQ(got.rows.size(), expect.outliers.size());
  for (size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group_key,
              std::to_string(expect.outliers[i].key_index));
    EXPECT_EQ(got.rows[i].value, expect.outliers[i].value);
    EXPECT_EQ(got.rows[i].rank_score, expect.outliers[i].divergence);
  }
  EXPECT_EQ(got.staleness_epochs, 1u);
  EXPECT_EQ(rig.client.stats().retries, 0u);
  EXPECT_EQ(rig.server.frames_handled(), rig.client.stats().frames_sent);
}

TEST(NetEndToEndTest, SocketTransportServesSameAnswers) {
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("t", SmallOptions()).ok());
  NetServer server(&service);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serving([fd = fds[1], &server] {
    const Status served = ServeConnection(fd, &server);
    EXPECT_TRUE(served.ok()) << served.ToString();
    ::close(fd);
  });
  {
    SocketTransport transport(fds[0]);
    NetClient client(&transport);
    ASSERT_TRUE(client.AdvanceTo("t", 0).ok());
    std::vector<size_t> keys;
    std::vector<double> deltas;
    SeededBatch(1, 400, &keys, &deltas);
    ASSERT_TRUE(client.Ingest("t", keys, deltas).ok());
    EXPECT_EQ(client.AdvanceTo("t", 1).MoveValue(), 1u);

    const StreamingQueryResult over_socket =
        client.Query("SELECT Top 2 SUM(score), key FROM t GROUP BY key")
            .MoveValue();
    const StreamingQueryResult in_process =
        service.Query("SELECT Top 2 SUM(score), key FROM t GROUP BY key")
            .MoveValue();
    ASSERT_EQ(over_socket.rows.size(), in_process.rows.size());
    for (size_t i = 0; i < over_socket.rows.size(); ++i) {
      EXPECT_EQ(over_socket.rows[i].group_key,
                in_process.rows[i].group_key);
      EXPECT_EQ(over_socket.rows[i].value, in_process.rows[i].value);
    }
  }  // Transport destructor closes the client fd -> clean EOF server-side.
  serving.join();
}

TEST(NetEndToEndTest, SnapshotFetchBeforePublicationFailsCleanly) {
  Rig rig;
  EXPECT_EQ(rig.client.FetchSnapshot("t").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.client.AdvanceTo("t", 0).MoveValue(), 0u);
  EXPECT_EQ(rig.client.FetchSnapshot("t").status().code(),
            StatusCode::kFailedPrecondition);
  // Unknown tenants are NotFound end to end.
  EXPECT_EQ(rig.client.FetchSnapshot("ghost").status().code(),
            StatusCode::kNotFound);
}

// Admission control: once the tenant's deferred backlog exceeds the
// per-tenant byte bound, ingest frames get a pushback (ResourceExhausted)
// and nothing is ingested; draining the backlog re-admits.
TEST(NetBackpressureTest, PushbackRefusesThenDrainReadmits) {
  NetServerOptions net;
  // Room for ~200 deferred 12-byte tuples.
  net.max_tenant_backlog_bytes = 200 * dist::kKeyValueBytes;
  Rig rig(SmallOptions(/*window=*/3, /*shards=*/2), net);
  auto detector = rig.tenant();

  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  // Stall both shards: every ingested event is deferred.
  ASSERT_TRUE(detector->SetShardStalled(0, true).ok());
  ASSERT_TRUE(detector->SetShardStalled(1, true).ok());

  std::vector<size_t> keys(61);
  std::vector<double> deltas(61);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i % 400;
    deltas[i] = 1.0;
  }
  // 61 events -> 732 B per refused-later batch; three fit under 2400 B.
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  }
  const uint64_t backlog_before = detector->backlog_events();
  EXPECT_EQ(backlog_before, 3u * keys.size());

  // The fourth batch would cross the bound: pushback, nothing ingested.
  const Status refused = rig.client.Ingest("t", keys, deltas);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(detector->backlog_events(), backlog_before);
  EXPECT_EQ(rig.client.stats().pushbacks, 1u);
  EXPECT_EQ(rig.server.pushbacks(), 1u);

  // Drain (unstall both shards) -> queued bytes fall to zero -> admitted.
  ASSERT_TRUE(detector->SetShardStalled(0, false).ok());
  ASSERT_TRUE(detector->SetShardStalled(1, false).ok());
  EXPECT_EQ(detector->backlog_events(), 0u);
  EXPECT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
}

// A torn frame is detected by the checksum, surfaced as DataLoss, and
// healed by exactly one client retry — with nothing ingested twice.
TEST(NetTornFrameTest, SingleRetryRecoversWithoutDoubleIngest) {
  obs::Telemetry telemetry;
  auto options = SmallOptions();
  options.telemetry = &telemetry;
  Rig rig(options);

  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  SeededBatch(9, 400, &keys, &deltas);

  rig.transport.TearNextFrame();
  ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  EXPECT_EQ(rig.transport.frames_torn(), 1u);
  EXPECT_EQ(rig.client.stats().retries, 1u);
  EXPECT_EQ(rig.server.frames_rejected(), 1u);

  // Conservation: the batch landed exactly once.
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());
  EXPECT_EQ(telemetry.counter("serve.ingest.events"), keys.size());
  EXPECT_EQ(telemetry.counter("serve.ingest.batches"), 1u);

  // A torn *query* response also heals on retry.
  rig.transport.TearNextFrame();
  const StreamingQueryResult result =
      rig.client.Query("SELECT Top 1 SUM(score), key FROM t GROUP BY key")
          .MoveValue();
  EXPECT_FALSE(result.rows.empty());
  EXPECT_EQ(rig.client.stats().retries, 2u);
}

// Under Buggify the torn-frame section fires on deterministic ordinals but
// never twice in a row, so the one-retry policy always recovers and event
// conservation holds through a storm of corrupted frames.
TEST(NetTornFrameTest, BuggifyStormNeverNeedsASecondRetry) {
  sim::BuggifyOptions buggify;
  buggify.seed = 77;
  buggify.activation_probability = 1.0;
  buggify.fire_probability = 1.0;
  sim::BuggifyEnable(buggify);

  obs::Telemetry telemetry;
  auto options = SmallOptions();
  options.telemetry = &telemetry;
  Rig rig(options);
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());

  std::vector<size_t> keys;
  std::vector<double> deltas;
  uint64_t sent_events = 0;
  for (uint64_t b = 0; b < 20; ++b) {
    SeededBatch(b, 400, &keys, &deltas);
    ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
    sent_events += keys.size();
  }
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());
  sim::BuggifyDisable();

  EXPECT_GT(rig.transport.frames_torn(), 0u);
  EXPECT_EQ(rig.client.stats().retries, rig.transport.frames_torn());
  // Conservation across retries AND the concurrent Buggify stall storm
  // inside the detector: folded + replayed events account for every event
  // sent, exactly once.
  EXPECT_EQ(telemetry.counter("serve.ingest.events") +
                telemetry.counter("serve.ingest.replayed_events"),
            sent_events);
}

TEST(SnapshotFollowerTest, SharesTheLeadersMatrixInProcess) {
  Rig rig;
  SnapshotFollowerOptions fopts;
  fopts.n = 400;
  fopts.m = 150;
  fopts.seed = 5;
  auto follower = SnapshotFollower::Create(fopts).MoveValue();
  EXPECT_EQ(&follower->matrix(), &rig.tenant()->matrix());
}

TEST(SnapshotFollowerTest, ReplicaAnswersBitIdenticallyToLeader) {
  Rig rig;
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t b = 0; b < 4; ++b) {
    SeededBatch(b + 100, 400, &keys, &deltas);
    ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  }
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());

  SnapshotFollowerOptions fopts;
  fopts.n = 400;
  fopts.m = 150;
  fopts.seed = 5;
  fopts.iterations = 12;
  auto follower = SnapshotFollower::Create(fopts).MoveValue();
  EXPECT_EQ(follower->Snapshot(), nullptr);
  EXPECT_FALSE(follower->QueryOutliers(2).ok());  // Nothing applied yet.

  ASSERT_TRUE(follower->ReplicateOnce(&rig.client, "t").ok());
  auto leader = rig.tenant();
  const outlier::OutlierSet from_replica =
      follower->QueryOutliers(2).MoveValue();
  const outlier::OutlierSet from_leader =
      leader->QueryOutliers(2).MoveValue();
  EXPECT_EQ(from_replica.mode, from_leader.mode);
  ASSERT_EQ(from_replica.outliers.size(), from_leader.outliers.size());
  for (size_t i = 0; i < from_replica.outliers.size(); ++i) {
    EXPECT_EQ(from_replica.outliers[i].key_index,
              from_leader.outliers[i].key_index);
    EXPECT_EQ(from_replica.outliers[i].value,
              from_leader.outliers[i].value);
    EXPECT_EQ(from_replica.outliers[i].divergence,
              from_leader.outliers[i].divergence);
  }
  const std::vector<outlier::Outlier> top_replica =
      follower->QueryTopK(2).MoveValue();
  const std::vector<outlier::Outlier> top_leader =
      leader->QueryTopK(2).MoveValue();
  ASSERT_EQ(top_replica.size(), top_leader.size());
  for (size_t i = 0; i < top_replica.size(); ++i) {
    EXPECT_EQ(top_replica[i].key_index, top_leader[i].key_index);
    EXPECT_EQ(top_replica[i].value, top_leader[i].value);
  }
}

// Crafted frames: checksums valid, counts hostile. Every decoder must answer
// with a Status (InvalidArgument) before sizing anything from the count.

// Hands back one canned response frame, whatever was sent.
class CannedTransport final : public FrameTransport {
 public:
  explicit CannedTransport(std::string response)
      : response_(std::move(response)) {}
  Result<std::string> RoundTrip(const std::string&) override {
    return response_;
  }

 private:
  std::string response_;
};

// The fixed prefix of a kQueryResult payload (mode, key space, provenance).
std::string QueryResultPrefix() {
  std::string payload;
  dist::AppendF64(&payload, 0.0);
  for (int field = 0; field < 5; ++field) dist::AppendU64(&payload, 1);
  return payload;
}

// The same bytes under the retired "CSOD" magic (the chained-checksum wire
// format): intact, but unreadable by this build.
std::string WithRetiredMagic(std::string frame) {
  const uint32_t retired = 0x43534f44;
  std::memcpy(frame.data(), &retired, sizeof(retired));
  return frame;
}

TEST(NetCraftedFrameTest, RetiredMagicIsRefusedByNameAndNotRetried) {
  obs::Telemetry telemetry;
  auto options = SmallOptions();
  options.telemetry = &telemetry;
  Rig rig(options);
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  SeededBatch(9, 40, &keys, &deltas);
  cs::SparseSlice slice;
  slice.indices = keys;
  slice.values = deltas;

  // Request side: the server answers InvalidArgument naming the format,
  // and the client takes that answer without resending.
  const std::string response = rig.server.HandleFrame(
      WithRetiredMagic(EncodeIngestRequest("t", slice).MoveValue()));
  CannedTransport refused(response);
  NetClient client(&refused);
  const Status ingest = client.Ingest("t", keys, deltas);
  EXPECT_EQ(ingest.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ingest.message().find("retired"), std::string::npos)
      << ingest.ToString();
  EXPECT_EQ(client.stats().frames_sent, 1u);
  EXPECT_EQ(client.stats().retries, 0u);

  // Response side: an old-magic response is not a torn frame either.
  CannedTransport old_response(
      WithRetiredMagic(EncodeAdvanceRequest("t", 1).MoveValue()));
  NetClient old_client(&old_response);
  EXPECT_EQ(old_client.AdvanceTo("t", 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(old_client.stats().frames_sent, 1u);
  EXPECT_EQ(old_client.stats().retries, 0u);

  // Nothing was ingested.
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());
  EXPECT_EQ(telemetry.counter("serve.ingest.batches"), 0u);
}

TEST(NetCraftedFrameTest, IngestWithWrappingKeyValueCountIsRefused) {
  obs::Telemetry telemetry;
  auto options = SmallOptions();
  options.telemetry = &telemetry;
  Rig rig(options);
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  // The embedded key-values message claims 2^62 + 1 tuples in 12 bytes:
  // count * 12 wraps to the real size, so only a division catches it.
  const uint64_t count = (uint64_t{1} << 62) + 1;
  std::string payload;
  ASSERT_TRUE(dist::AppendLengthPrefixed(&payload, "t").ok());
  ASSERT_TRUE(dist::AppendLengthPrefixed(
                  &payload, dist::EncodeFrame(2, count, std::string(12, '\0')))
                  .ok());
  const std::string response = rig.server.HandleFrame(dist::EncodeFrame(
      static_cast<uint8_t>(NetFrameKind::kIngestBatch), count, payload));
  // The server survives and answers with an InvalidArgument error frame.
  CannedTransport canned(response);
  NetClient client(&canned);
  EXPECT_EQ(client.Ingest("t", {1}, {1.0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());
  EXPECT_EQ(telemetry.counter("serve.ingest.batches"), 0u);
}

TEST(NetCraftedFrameTest, QueryResultWithHugeStalledCountIsRefused) {
  std::string payload = QueryResultPrefix();
  dist::AppendU32(&payload, UINT32_MAX);  // num_stalled, no shards follow.
  dist::AppendU64(&payload, 0);           // num_rows.
  CannedTransport canned(dist::EncodeFrame(
      static_cast<uint8_t>(NetFrameKind::kQueryResult), 0, payload));
  NetClient client(&canned);
  EXPECT_EQ(client.Query("SELECT Top 1 SUM(s), key FROM t GROUP BY key")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCraftedFrameTest, QueryResultWithHugeRowCountIsRefused) {
  const uint64_t rows = uint64_t{1} << 60;
  std::string payload = QueryResultPrefix();
  dist::AppendU32(&payload, 0);     // num_stalled.
  dist::AppendU64(&payload, rows);  // num_rows, agreeing with the envelope.
  CannedTransport canned(dist::EncodeFrame(
      static_cast<uint8_t>(NetFrameKind::kQueryResult), rows, payload));
  NetClient client(&canned);
  EXPECT_EQ(client.Query("SELECT Top 1 SUM(s), key FROM t GROUP BY key")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(NetCraftedFrameTest, SnapshotWithHugeStalledCountIsRefused) {
  std::string payload;
  for (int field = 0; field < 5; ++field) dist::AppendU64(&payload, 1);
  dist::AppendU32(&payload, UINT32_MAX);  // num_stalled, no shards follow.
  ASSERT_TRUE(dist::AppendLengthPrefixed(
                  &payload, dist::EncodeMeasurement({1.0}).MoveValue())
                  .ok());
  const std::string frame = dist::EncodeFrame(
      static_cast<uint8_t>(NetFrameKind::kSnapshot), 1, payload);
  EXPECT_EQ(DecodeSnapshotResponse(frame).status().code(),
            StatusCode::kInvalidArgument);
}

// A kSnapshot frame names the Φ0 format its `y` was measured with, in a
// trailing u32. Each crafted frame keeps the snapshot payload and swaps
// that trailer; EncodeFrame gives it a valid checksum.
std::vector<std::pair<std::string, std::string>> OtherFormatSnapshotFrames(
    const SketchSnapshot& snapshot) {
  const std::string frame = EncodeSnapshotResponse(snapshot).MoveValue();
  const dist::FrameView view = dist::DecodeFrame(frame).MoveValue();
  const std::string body(view.payload, view.payload_size - 4);
  // {frame, the phrase its refusal must contain}.
  std::vector<std::pair<std::string, std::string>> frames;
  frames.emplace_back(dist::EncodeFrame(view.kind, view.count, body),
                      "no Φ0 format marker");
  for (const uint32_t marker : {cs::kPhi0Format - 1, cs::kPhi0Format + 1}) {
    std::string payload = body;
    dist::AppendU32(&payload, marker);
    frames.emplace_back(dist::EncodeFrame(view.kind, view.count, payload),
                        "Φ0 format " + std::to_string(marker));
  }
  return frames;
}

TEST(NetSnapshotFormatTest, OtherPhi0FormatsAreRefusedByName) {
  SketchSnapshot snapshot;
  snapshot.version = 1;
  snapshot.y = {1.0, 2.0};
  const std::string this_build =
      "this build uses format " + std::to_string(cs::kPhi0Format);
  for (const auto& [frame, phrase] : OtherFormatSnapshotFrames(snapshot)) {
    const Status status = DecodeSnapshotResponse(frame).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find(phrase), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.ToString().find(this_build), std::string::npos)
        << status.ToString();
  }
}

TEST(NetSnapshotFormatTest, FollowerFedAnotherFormatStaysEmpty) {
  SnapshotFollowerOptions fopts;
  fopts.n = 400;
  fopts.m = 150;
  fopts.seed = 5;
  auto follower = SnapshotFollower::Create(fopts).MoveValue();
  SketchSnapshot snapshot;
  snapshot.version = 1;
  snapshot.y.assign(150, 1.0);
  for (const auto& [frame, phrase] : OtherFormatSnapshotFrames(snapshot)) {
    CannedTransport canned(frame);
    NetClient client(&canned);
    const Status status = follower->ReplicateOnce(&client, "t");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find(phrase), std::string::npos)
        << status.ToString();
    EXPECT_EQ(follower->Snapshot(), nullptr);
  }
  // The same snapshot in this build's format applies.
  CannedTransport canned(EncodeSnapshotResponse(snapshot).MoveValue());
  NetClient client(&canned);
  ASSERT_TRUE(follower->ReplicateOnce(&client, "t").ok());
  EXPECT_EQ(follower->Snapshot()->version, 1u);
}

TEST(SnapshotFollowerTest, ApplyIsMonotoneAndValidates) {
  SnapshotFollowerOptions fopts;
  fopts.n = 400;
  fopts.m = 150;
  fopts.seed = 5;
  auto follower = SnapshotFollower::Create(fopts).MoveValue();

  SketchSnapshot v2;
  v2.version = 2;
  v2.y.assign(150, 1.0);
  ASSERT_TRUE(follower->ApplySnapshot(v2).ok());
  ASSERT_EQ(follower->Snapshot()->version, 2u);

  // Stale and duplicate deliveries are ignored (idempotent replication).
  SketchSnapshot v1;
  v1.version = 1;
  v1.y.assign(150, 9.0);
  ASSERT_TRUE(follower->ApplySnapshot(v1).ok());
  EXPECT_EQ(follower->Snapshot()->version, 2u);
  ASSERT_TRUE(follower->ApplySnapshot(v2).ok());
  EXPECT_EQ(follower->Snapshot()->version, 2u);

  // A measurement that does not match M is rejected.
  SketchSnapshot bad;
  bad.version = 3;
  bad.y.assign(10, 1.0);
  EXPECT_EQ(follower->ApplySnapshot(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(follower->Snapshot()->version, 2u);
}

}  // namespace
}  // namespace csod::serve
