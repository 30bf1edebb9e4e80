#ifndef CSOD_SERVE_NET_H_
#define CSOD_SERVE_NET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "cs/compressor.h"
#include "cs/solver.h"
#include "outlier/outlier.h"
#include "serve/service.h"
#include "serve/snapshot.h"

namespace csod::serve {

/// \brief The wire-facing deployment surface of the streaming service:
/// binary-framed requests/responses over a transport (docs/STREAMING.md,
/// "Deployment").
///
/// Every message is one dist::wire_format frame
/// ([u32 magic][u8 kind][u64 count][payload][u64 checksum]); ingest frames
/// embed the exact EncodeKeyValues message the batch protocols transmit,
/// so the 32-bit key-space and non-finite rejection rules are inherited,
/// not re-implemented. Corruption anywhere (torn frame, flipped bit) fails
/// the checksum and surfaces as DataLoss — the one error code the client
/// retries, exactly once per call.
///
/// Request kinds (client → server) start at 16, responses at 32; dist
/// payload kinds 1–15 stay reserved for protocol messages, and 24 is the
/// checkpoint frame (serve/checkpoint.h), which doubles as the
/// fetch-checkpoint response.
enum class NetFrameKind : uint8_t {
  kIngestBatch = 16,     ///< tenant + embedded key-values message.
  kAdvance = 17,         ///< tenant + virtual-clock tick.
  kQuery = 18,           ///< query text (tenant named by the FROM clause).
  kSnapshotFetch = 19,   ///< tenant — latest published snapshot.
  kCheckpointFetch = 20, ///< tenant — full detector checkpoint.
  kAck = 32,             ///< u64 result (events accepted / epoch reached).
  kQueryResult = 33,     ///< StreamingQueryResult.
  kSnapshot = 34,        ///< SketchSnapshot.
  kError = 35,           ///< status code + message.
  kPushback = 36,        ///< admission refusal: queue bytes + limit.
};

/// Admission control knobs of a NetServer.
struct NetServerOptions {
  /// Hard cap on a single frame (requests larger than this are rejected
  /// with InvalidArgument before decoding).
  size_t max_frame_bytes = 16u << 20;
  /// Per-tenant bound on deferred (stalled-shard backlog) bytes. An ingest
  /// that would push the tenant's queued bytes past this limit is refused
  /// with a kPushback frame and nothing is ingested — the client sees
  /// ResourceExhausted and must back off (drain happens on unstall).
  size_t max_tenant_backlog_bytes = 64u << 20;
};

/// \brief Server half: turns request frames into response frames against a
/// StreamingService. Transport-agnostic and thread-safe (tenant state
/// synchronizes inside the service; counters are atomic), so any number of
/// connections can share one server.
class NetServer {
 public:
  /// `service` is borrowed and must outlive the server.
  explicit NetServer(StreamingService* service, NetServerOptions options = {});

  /// Handles one request frame and returns the response frame. Never
  /// fails: every error becomes a kError (or kPushback) frame, including
  /// corrupted requests (kError carrying DataLoss, which the client
  /// retries).
  std::string HandleFrame(const std::string& request);

  const NetServerOptions& options() const { return options_; }
  uint64_t frames_handled() const {
    return frames_.load(std::memory_order_relaxed);
  }
  /// Frames refused before reaching a tenant (corruption, bad kind, size).
  uint64_t frames_rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Ingest frames refused by per-tenant admission control.
  uint64_t pushbacks() const {
    return pushbacks_.load(std::memory_order_relaxed);
  }

 private:
  StreamingService* service_;
  NetServerOptions options_;
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> pushbacks_{0};
};

/// \brief One synchronous request/response exchange with a server.
///
/// Implementations: LoopbackTransport (in-process, deterministic — the
/// simulation and unit tests), SocketTransport (a connected stream socket
/// — socketpair in tests, TCP in deployment).
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;
  /// Delivers `frame` and returns the peer's response frame. A transport
  /// error (closed socket) fails the call; a *corrupted* frame does not —
  /// corruption rides inside the frames for the endpoint checksums to
  /// catch.
  virtual Result<std::string> RoundTrip(const std::string& frame) = 0;
};

/// In-process transport: requests go straight to NetServer::HandleFrame.
/// Under Buggify, the `serve.net.torn_frame` section tears request frames
/// in flight (deterministically, keyed on the frame ordinal) — but never
/// the frame immediately following a torn one, mirroring the fault model's
/// reliable-retransmission assumption (docs/FAULT_MODEL.md), so a single
/// client retry always suffices.
class LoopbackTransport final : public FrameTransport {
 public:
  explicit LoopbackTransport(NetServer* server) : server_(server) {}
  Result<std::string> RoundTrip(const std::string& frame) override;

  /// Test hook: corrupt the next frame regardless of Buggify.
  void TearNextFrame() { tear_next_ = true; }
  uint64_t frames_torn() const { return torn_; }

 private:
  NetServer* server_;
  uint64_t frame_ordinal_ = 0;
  uint64_t torn_ = 0;
  bool last_torn_ = false;
  bool tear_next_ = false;
};

/// Blocking transport over a connected stream socket. Frames travel
/// length-prefixed ([u32 length][frame bytes]); the checksum discipline
/// stays inside the frames. Owns the fd.
class SocketTransport final : public FrameTransport {
 public:
  explicit SocketTransport(int fd) : fd_(fd) {}
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;
  Result<std::string> RoundTrip(const std::string& frame) override;

 private:
  int fd_;
};

/// Serves length-prefixed frames on a connected socket until the peer
/// closes it (clean EOF returns OK). Does not close `fd`.
Status ServeConnection(int fd, NetServer* server);

/// \brief Client half: typed calls over a FrameTransport.
///
/// Exactly one retry on DataLoss (a torn/corrupted frame in either
/// direction); every other error propagates, including ResourceExhausted
/// pushback — backing off is the caller's policy, not the client's.
class NetClient {
 public:
  struct Stats {
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t retries = 0;
    uint64_t pushbacks = 0;
  };

  /// `transport` is borrowed and must outlive the client.
  explicit NetClient(FrameTransport* transport) : transport_(transport) {}

  /// Frames and ingests one keyed score-delta batch. ResourceExhausted if
  /// the server refused admission (nothing was ingested).
  Status Ingest(const std::string& tenant, const std::vector<size_t>& keys,
                const std::vector<double>& deltas);

  /// Advances the tenant's virtual clock; returns the epoch reached.
  Result<uint64_t> AdvanceTo(const std::string& tenant, uint64_t tick);

  /// `SELECT Outlier|Top K ... FROM <tenant>` against the server.
  Result<StreamingQueryResult> Query(const std::string& query_text);

  /// The tenant's latest published snapshot (FailedPrecondition if none).
  Result<SketchSnapshot> FetchSnapshot(const std::string& tenant);

  /// The tenant's serialized checkpoint frame (serve/checkpoint.h decodes
  /// and restores it).
  Result<std::string> FetchCheckpoint(const std::string& tenant);

  const Stats& stats() const { return stats_; }

 private:
  /// One round trip with the single-retry-on-DataLoss policy.
  Result<std::string> Call(const std::string& frame);

  FrameTransport* transport_;
  Stats stats_;
};

// Frame codecs (the client uses these; exposed for tests and custom
// transports).
Result<std::string> EncodeIngestRequest(const std::string& tenant,
                                        const cs::SparseSlice& events);
Result<std::string> EncodeAdvanceRequest(const std::string& tenant,
                                         uint64_t tick);
Result<std::string> EncodeQueryRequest(const std::string& query_text);
Result<std::string> EncodeSnapshotRequest(const std::string& tenant);
Result<std::string> EncodeCheckpointRequest(const std::string& tenant);
/// A kSnapshot frame ends with the Φ0 format (cs::kPhi0Format) its `y`
/// was measured with; decoding refuses another format, or none, by name.
Result<std::string> EncodeSnapshotResponse(const SketchSnapshot& snapshot);
Result<SketchSnapshot> DecodeSnapshotResponse(const std::string& frame);

/// Configuration of a SnapshotFollower — the subset of
/// StreamingDetectorOptions a replica needs to derive Φ0 and answer
/// queries (same n/m/seed ⇒ the same consensus matrix as the leader; in
/// the leader's process, the very same cs::SharedMatrix instance).
struct SnapshotFollowerOptions {
  size_t n = 0;
  size_t m = 0;
  uint64_t seed = 1;
  size_t iterations = 0;  ///< 0 = the paper's f(k) at query time.
  cs::RecoverySolver solver = cs::RecoverySolver::kOmp;
};

/// \brief A read replica fed only published snapshots.
///
/// Because a snapshot carries the whole window measurement, a follower
/// needs nothing else to serve detection queries: same Φ0 (n/m/seed) +
/// same `y` bytes ⇒ answers bit-identical to the leader's for the same
/// snapshot version. Applying snapshots is monotone in version — stale or
/// duplicate deliveries are ignored, so replication is idempotent and
/// order-tolerant.
class SnapshotFollower {
 public:
  static Result<std::unique_ptr<SnapshotFollower>> Create(
      const SnapshotFollowerOptions& options);

  /// Installs `snapshot` if it is newer than the current one (no-op
  /// otherwise). InvalidArgument if its `y` does not match M.
  Status ApplySnapshot(const SketchSnapshot& snapshot);

  /// Fetches the leader's latest snapshot for `tenant` through `client`
  /// and applies it. FailedPrecondition (from the leader) if the tenant
  /// has not published yet; InvalidArgument, applying nothing, if the
  /// leader runs another Φ0 format.
  Status ReplicateOnce(NetClient* client, const std::string& tenant);

  /// The follower's current snapshot, or null before the first apply.
  std::shared_ptr<const SketchSnapshot> Snapshot() const;

  /// Detection against the follower's snapshot — the leader's path
  /// (`AnswerFromSnapshot`), so answers are bit-identical to the leader's
  /// for the same snapshot version.
  Result<outlier::OutlierSet> QueryOutliers(size_t k) const;
  Result<std::vector<outlier::Outlier>> QueryTopK(size_t k) const;

  const cs::MeasurementMatrix& matrix() const { return *matrix_; }

 private:
  explicit SnapshotFollower(const SnapshotFollowerOptions& options);
  Result<SnapshotAnswer> Answer(query::QueryKind kind, size_t k) const;

  SnapshotFollowerOptions options_;
  std::shared_ptr<const cs::MeasurementMatrix> matrix_;
  mutable std::mutex mu_;
  std::shared_ptr<const SketchSnapshot> snapshot_;
};

}  // namespace csod::serve

#endif  // CSOD_SERVE_NET_H_
