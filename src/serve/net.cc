#include "serve/net.h"

#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "dist/comm.h"
#include "dist/wire_format.h"
#include "serve/checkpoint.h"
#include "sim/buggify.h"

namespace csod::serve {

namespace {

using dist::AppendF64;
using dist::AppendLengthPrefixed;
using dist::AppendU32;
using dist::AppendU64;
using dist::PayloadReader;

uint8_t KindByte(NetFrameKind kind) { return static_cast<uint8_t>(kind); }

// The tenant name that starts every tenant-addressed request.
Status AppendTenant(std::string* payload, const std::string& tenant) {
  if (tenant.empty()) {
    return Status::InvalidArgument("net: tenant name must be non-empty");
  }
  return AppendLengthPrefixed(payload, tenant);
}

Result<std::string> TenantRequest(NetFrameKind kind,
                                  const std::string& tenant) {
  std::string payload;
  CSOD_RETURN_NOT_OK(AppendTenant(&payload, tenant));
  return dist::EncodeFrame(KindByte(kind), 0, payload);
}

std::string ErrorFrame(const Status& status) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(status.code()));
  const Status appended = AppendLengthPrefixed(&payload, status.message());
  // A message past 4 GiB is answered with the (short) refusal instead.
  if (!appended.ok()) return ErrorFrame(appended);
  return dist::EncodeFrame(KindByte(NetFrameKind::kError), 0, payload);
}

std::string PushbackFrame(uint64_t queued_bytes, uint64_t limit_bytes,
                          const std::string& message) {
  std::string payload;
  AppendU64(&payload, queued_bytes);
  AppendU64(&payload, limit_bytes);
  const Status appended = AppendLengthPrefixed(&payload, message);
  if (!appended.ok()) return ErrorFrame(appended);
  return dist::EncodeFrame(KindByte(NetFrameKind::kPushback), 0, payload);
}

std::string AckFrame(uint64_t value) {
  std::string payload;
  AppendU64(&payload, value);
  return dist::EncodeFrame(KindByte(NetFrameKind::kAck), 0, payload);
}

// Turns a decoded kError / kPushback frame back into the Status the server
// produced. Any other kind returns OK (the caller proceeds to decode it).
Status StatusOfResponse(const dist::FrameView& view) {
  if (view.kind == KindByte(NetFrameKind::kError)) {
    PayloadReader reader(view, "net");
    uint32_t code = 0;
    std::string message;
    CSOD_RETURN_NOT_OK(reader.U32(&code));
    CSOD_RETURN_NOT_OK(reader.LengthPrefixed(&message));
    if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
      return Status::Internal("net: error frame with unknown status code " +
                              std::to_string(code));
    }
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  if (view.kind == KindByte(NetFrameKind::kPushback)) {
    PayloadReader reader(view, "net");
    uint64_t queued = 0, limit = 0;
    std::string message;
    CSOD_RETURN_NOT_OK(reader.U64(&queued));
    CSOD_RETURN_NOT_OK(reader.U64(&limit));
    CSOD_RETURN_NOT_OK(reader.LengthPrefixed(&message));
    return Status::ResourceExhausted(
        message + " (queued " + std::to_string(queued) + " of " +
        std::to_string(limit) + " bytes)");
  }
  return Status::OK();
}

Status ExpectKind(const dist::FrameView& view, NetFrameKind kind) {
  CSOD_RETURN_NOT_OK(StatusOfResponse(view));
  if (view.kind != KindByte(kind)) {
    return Status::Internal("net: unexpected response kind " +
                            std::to_string(view.kind) + " (want " +
                            std::to_string(KindByte(kind)) + ")");
  }
  return Status::OK();
}

Result<uint64_t> DecodeAck(const dist::FrameView& view) {
  CSOD_RETURN_NOT_OK(ExpectKind(view, NetFrameKind::kAck));
  PayloadReader reader(view, "net");
  uint64_t value = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&value));
  return value;
}

Result<std::string> EncodeQueryResultResponse(
    const StreamingQueryResult& result) {
  std::string payload;
  AppendF64(&payload, result.mode);
  AppendU64(&payload, result.key_space);
  AppendU64(&payload, result.snapshot_version);
  AppendU64(&payload, result.snapshot_first_epoch);
  AppendU64(&payload, result.snapshot_last_epoch);
  AppendU64(&payload, result.staleness_epochs);
  AppendU32(&payload, static_cast<uint32_t>(result.stalled_shards.size()));
  for (uint32_t shard : result.stalled_shards) AppendU32(&payload, shard);
  AppendU64(&payload, result.rows.size());
  for (const query::ResultRow& row : result.rows) {
    CSOD_RETURN_NOT_OK(AppendLengthPrefixed(&payload, row.group_key));
    AppendF64(&payload, row.value);
    AppendF64(&payload, row.rank_score);
  }
  return dist::EncodeFrame(KindByte(NetFrameKind::kQueryResult),
                           result.rows.size(), payload);
}

Result<StreamingQueryResult> DecodeQueryResultResponse(
    const dist::FrameView& view) {
  CSOD_RETURN_NOT_OK(ExpectKind(view, NetFrameKind::kQueryResult));
  PayloadReader reader(view, "net");
  StreamingQueryResult result;
  CSOD_RETURN_NOT_OK(reader.F64(&result.mode));
  uint64_t u = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  result.key_space = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&result.snapshot_version));
  CSOD_RETURN_NOT_OK(reader.U64(&result.snapshot_first_epoch));
  CSOD_RETURN_NOT_OK(reader.U64(&result.snapshot_last_epoch));
  CSOD_RETURN_NOT_OK(reader.U64(&result.staleness_epochs));
  uint32_t num_stalled = 0;
  CSOD_RETURN_NOT_OK(reader.U32(&num_stalled));
  CSOD_RETURN_NOT_OK(reader.CheckCount(num_stalled, 4));
  result.stalled_shards.reserve(num_stalled);
  for (uint32_t i = 0; i < num_stalled; ++i) {
    uint32_t shard = 0;
    CSOD_RETURN_NOT_OK(reader.U32(&shard));
    result.stalled_shards.push_back(shard);
  }
  uint64_t num_rows = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&num_rows));
  if (num_rows != view.count) {
    return Status::InvalidArgument(
        "net: row count disagrees with the frame envelope");
  }
  // A row is at least a u32 key length and two f64s.
  CSOD_RETURN_NOT_OK(reader.CheckCount(num_rows, 4 + 8 + 8));
  result.rows.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    query::ResultRow row;
    CSOD_RETURN_NOT_OK(reader.LengthPrefixed(&row.group_key));
    CSOD_RETURN_NOT_OK(reader.F64(&row.value));
    CSOD_RETURN_NOT_OK(reader.F64(&row.rank_score));
    result.rows.push_back(std::move(row));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("net: trailing query-result bytes");
  }
  return result;
}

// Full POSIX read/write loops (handle partial transfers and EINTR).
// `eof_ok` distinguishes a clean peer close at a frame boundary.
Status ReadFull(int fd, char* buf, size_t size, bool* clean_eof) {
  size_t done = 0;
  while (done < size) {
    const ssize_t got = ::read(fd, buf + done, size - done);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("net: read failed (errno " +
                              std::to_string(errno) + ")");
    }
    if (got == 0) {
      if (clean_eof != nullptr && done == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::DataLoss("net: peer closed mid-frame");
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

Status WriteFull(int fd, const char* buf, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t put = ::write(fd, buf + done, size - done);
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("net: write failed (errno " +
                              std::to_string(errno) + ")");
    }
    done += static_cast<size_t>(put);
  }
  return Status::OK();
}

Status WriteLengthPrefixed(int fd, const std::string& frame) {
  char prefix[4];
  const uint32_t length = static_cast<uint32_t>(frame.size());
  std::memcpy(prefix, &length, 4);
  CSOD_RETURN_NOT_OK(WriteFull(fd, prefix, 4));
  return WriteFull(fd, frame.data(), frame.size());
}

// Reads one length-prefixed frame. Sets `clean_eof` (and returns OK with
// an empty frame) when the peer closed at a frame boundary.
Status ReadLengthPrefixed(int fd, size_t max_frame_bytes, std::string* frame,
                          bool* clean_eof) {
  char prefix[4];
  CSOD_RETURN_NOT_OK(ReadFull(fd, prefix, 4, clean_eof));
  if (clean_eof != nullptr && *clean_eof) return Status::OK();
  uint32_t length = 0;
  std::memcpy(&length, prefix, 4);
  if (length > max_frame_bytes) {
    return Status::InvalidArgument("net: frame of " + std::to_string(length) +
                                   " bytes exceeds the " +
                                   std::to_string(max_frame_bytes) +
                                   "-byte limit");
  }
  frame->resize(length);
  return ReadFull(fd, frame->data(), length, nullptr);
}

}  // namespace

// ---------------------------------------------------------------------------
// Request/response codecs
// ---------------------------------------------------------------------------

Result<std::string> EncodeIngestRequest(const std::string& tenant,
                                        const cs::SparseSlice& events) {
  std::string payload;
  CSOD_RETURN_NOT_OK(AppendTenant(&payload, tenant));
  // The batch rides as the exact key-value message the batch protocols
  // transmit — 32-bit key ids and finite values enforced at encode time.
  CSOD_ASSIGN_OR_RETURN(const std::string kv, dist::EncodeKeyValues(events));
  CSOD_RETURN_NOT_OK(AppendLengthPrefixed(&payload, kv));
  return dist::EncodeFrame(KindByte(NetFrameKind::kIngestBatch), events.nnz(),
                           payload);
}

Result<std::string> EncodeAdvanceRequest(const std::string& tenant,
                                         uint64_t tick) {
  std::string payload;
  CSOD_RETURN_NOT_OK(AppendTenant(&payload, tenant));
  AppendU64(&payload, tick);
  return dist::EncodeFrame(KindByte(NetFrameKind::kAdvance), 0, payload);
}

Result<std::string> EncodeQueryRequest(const std::string& query_text) {
  if (query_text.empty()) {
    return Status::InvalidArgument("net: query text must be non-empty");
  }
  std::string payload;
  CSOD_RETURN_NOT_OK(AppendLengthPrefixed(&payload, query_text));
  return dist::EncodeFrame(KindByte(NetFrameKind::kQuery), 0, payload);
}

Result<std::string> EncodeSnapshotRequest(const std::string& tenant) {
  return TenantRequest(NetFrameKind::kSnapshotFetch, tenant);
}

Result<std::string> EncodeCheckpointRequest(const std::string& tenant) {
  return TenantRequest(NetFrameKind::kCheckpointFetch, tenant);
}

Result<std::string> EncodeSnapshotResponse(const SketchSnapshot& snapshot) {
  std::string payload;
  CSOD_RETURN_NOT_OK(AppendSnapshot(snapshot, &payload));
  // `y` only means something against the Φ0 it was measured with: the
  // frame names that format, like the checkpoint trailer.
  AppendU32(&payload, cs::kPhi0Format);
  return dist::EncodeFrame(KindByte(NetFrameKind::kSnapshot),
                           snapshot.y.size(), payload);
}

Result<SketchSnapshot> DecodeSnapshotResponse(const std::string& frame) {
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(frame));
  CSOD_RETURN_NOT_OK(ExpectKind(view, NetFrameKind::kSnapshot));
  PayloadReader reader(view, "net");
  SketchSnapshot snapshot;
  CSOD_RETURN_NOT_OK(ReadSnapshot(&reader, &snapshot));
  if (snapshot.y.size() != view.count) {
    return Status::InvalidArgument(
        "net: snapshot y length disagrees with the frame envelope");
  }
  CSOD_RETURN_NOT_OK(ReadPhi0Format(&reader, "net: snapshot frame",
                                    "its sender predates the marker"));
  return snapshot;
}

// ---------------------------------------------------------------------------
// NetServer
// ---------------------------------------------------------------------------

NetServer::NetServer(StreamingService* service, NetServerOptions options)
    : service_(service), options_(options) {}

std::string NetServer::HandleFrame(const std::string& request) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  if (request.size() > options_.max_frame_bytes) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(Status::InvalidArgument(
        "net: request of " + std::to_string(request.size()) +
        " bytes exceeds the " + std::to_string(options_.max_frame_bytes) +
        "-byte limit"));
  }
  const Result<dist::FrameView> decoded = dist::DecodeFrame(request);
  if (!decoded.ok()) {
    // DataLoss — the client's retry signal for torn request frames.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return ErrorFrame(decoded.status());
  }
  const dist::FrameView& view = decoded.Value();
  PayloadReader reader(view, "net");

  switch (static_cast<NetFrameKind>(view.kind)) {
    case NetFrameKind::kIngestBatch: {
      std::string tenant, kv;
      Status parsed = reader.LengthPrefixed(&tenant);
      if (parsed.ok()) parsed = reader.LengthPrefixed(&kv);
      if (!parsed.ok()) return ErrorFrame(parsed);
      Result<cs::SparseSlice> slice = dist::DecodeKeyValues(kv);
      if (!slice.ok()) return ErrorFrame(slice.status());
      if (slice.Value().nnz() != view.count) {
        return ErrorFrame(Status::InvalidArgument(
            "net: ingest event count disagrees with the frame envelope"));
      }
      Result<std::shared_ptr<StreamingDetector>> detector =
          service_->Tenant(tenant);
      if (!detector.ok()) return ErrorFrame(detector.status());
      // Admission control: a tenant whose stalled-shard backlog has grown
      // past the byte budget gets pushback instead of more queue growth.
      // Queued bytes are idealized tuple bytes (dist::kKeyValueBytes per
      // deferred event) — the same accounting CommStats uses.
      const uint64_t queued =
          detector.Value()->backlog_events() * dist::kKeyValueBytes;
      const uint64_t incoming = view.count * dist::kKeyValueBytes;
      if (queued + incoming > options_.max_tenant_backlog_bytes) {
        pushbacks_.fetch_add(1, std::memory_order_relaxed);
        return PushbackFrame(queued, options_.max_tenant_backlog_bytes,
                             "net: tenant '" + tenant +
                                 "' backlog over budget; retry after drain");
      }
      const Status ingested = detector.Value()->IngestBatch(
          slice.Value().indices.data(), slice.Value().values.data(),
          slice.Value().nnz());
      if (!ingested.ok()) return ErrorFrame(ingested);
      return AckFrame(view.count);
    }
    case NetFrameKind::kAdvance: {
      std::string tenant;
      uint64_t tick = 0;
      Status parsed = reader.LengthPrefixed(&tenant);
      if (parsed.ok()) parsed = reader.U64(&tick);
      if (!parsed.ok()) return ErrorFrame(parsed);
      Result<uint64_t> epoch = service_->AdvanceTo(tenant, tick);
      if (!epoch.ok()) return ErrorFrame(epoch.status());
      return AckFrame(epoch.Value());
    }
    case NetFrameKind::kQuery: {
      std::string text;
      const Status parsed = reader.LengthPrefixed(&text);
      if (!parsed.ok()) return ErrorFrame(parsed);
      Result<StreamingQueryResult> result = service_->Query(text);
      if (!result.ok()) return ErrorFrame(result.status());
      Result<std::string> response = EncodeQueryResultResponse(result.Value());
      if (!response.ok()) return ErrorFrame(response.status());
      return response.MoveValue();
    }
    case NetFrameKind::kSnapshotFetch: {
      std::string tenant;
      const Status parsed = reader.LengthPrefixed(&tenant);
      if (!parsed.ok()) return ErrorFrame(parsed);
      Result<std::shared_ptr<StreamingDetector>> detector =
          service_->Tenant(tenant);
      if (!detector.ok()) return ErrorFrame(detector.status());
      const std::shared_ptr<const SketchSnapshot> snapshot =
          detector.Value()->Snapshot();
      if (snapshot == nullptr) {
        return ErrorFrame(Status::FailedPrecondition(
            "net: tenant '" + tenant + "' has not published a snapshot yet"));
      }
      Result<std::string> response = EncodeSnapshotResponse(*snapshot);
      if (!response.ok()) return ErrorFrame(response.status());
      return response.MoveValue();
    }
    case NetFrameKind::kCheckpointFetch: {
      std::string tenant;
      const Status parsed = reader.LengthPrefixed(&tenant);
      if (!parsed.ok()) return ErrorFrame(parsed);
      Result<std::shared_ptr<StreamingDetector>> detector =
          service_->Tenant(tenant);
      if (!detector.ok()) return ErrorFrame(detector.status());
      Result<std::string> frame = EncodeCheckpoint(
          detector.Value()->options(), detector.Value()->CheckpointState());
      if (!frame.ok()) return ErrorFrame(frame.status());
      // The checkpoint frame (kind 24) is the response, verbatim.
      return frame.MoveValue();
    }
    default:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return ErrorFrame(Status::InvalidArgument(
          "net: unknown request kind " + std::to_string(view.kind)));
  }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

Result<std::string> LoopbackTransport::RoundTrip(const std::string& frame) {
  const uint64_t ordinal = frame_ordinal_++;
  // Buggify: tear the frame in flight. Never two in a row — the fault
  // model treats retransmission as reliable (docs/FAULT_MODEL.md), so one
  // client retry always recovers and every ingested batch folds exactly
  // once.
  bool tear = tear_next_;
  tear_next_ = false;
  if (!tear && !last_torn_ &&
      CSOD_BUGGIFY_AT("serve.net.torn_frame", ordinal)) {
    tear = true;
  }
  last_torn_ = tear;
  if (tear) {
    ++torn_;
    std::string torn = frame.substr(0, frame.size() - frame.size() / 3 - 1);
    return server_->HandleFrame(torn);
  }
  return server_->HandleFrame(frame);
}

SocketTransport::~SocketTransport() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> SocketTransport::RoundTrip(const std::string& frame) {
  CSOD_RETURN_NOT_OK(WriteLengthPrefixed(fd_, frame));
  std::string response;
  CSOD_RETURN_NOT_OK(
      ReadLengthPrefixed(fd_, SIZE_MAX, &response, nullptr));
  return response;
}

Status ServeConnection(int fd, NetServer* server) {
  std::string request;
  while (true) {
    bool clean_eof = false;
    CSOD_RETURN_NOT_OK(ReadLengthPrefixed(
        fd, server->options().max_frame_bytes, &request, &clean_eof));
    if (clean_eof) return Status::OK();
    const std::string response = server->HandleFrame(request);
    CSOD_RETURN_NOT_OK(WriteLengthPrefixed(fd, response));
  }
}

// ---------------------------------------------------------------------------
// NetClient
// ---------------------------------------------------------------------------

Result<std::string> NetClient::Call(const std::string& frame) {
  for (int attempt = 0;; ++attempt) {
    CSOD_ASSIGN_OR_RETURN(std::string response, transport_->RoundTrip(frame));
    ++stats_.frames_sent;
    stats_.bytes_sent += frame.size();
    stats_.bytes_received += response.size();
    // Retry (once) exactly the corruption case: a torn response frame, or
    // the server reporting a torn request. Everything else is the
    // endpoint's answer and propagates.
    Status failure;
    const Result<dist::FrameView> view = dist::DecodeFrame(response);
    if (!view.ok()) {
      failure = view.status();
    } else {
      failure = StatusOfResponse(view.Value());
      if (failure.code() == StatusCode::kResourceExhausted) {
        ++stats_.pushbacks;
      }
    }
    if (failure.code() == StatusCode::kDataLoss && attempt == 0) {
      ++stats_.retries;
      continue;
    }
    if (!failure.ok()) return failure;
    return response;
  }
}

Status NetClient::Ingest(const std::string& tenant,
                         const std::vector<size_t>& keys,
                         const std::vector<double>& deltas) {
  if (keys.size() != deltas.size()) {
    return Status::InvalidArgument("net: keys/deltas size mismatch");
  }
  cs::SparseSlice slice;
  slice.indices = keys;
  slice.values = deltas;
  CSOD_ASSIGN_OR_RETURN(std::string request,
                        EncodeIngestRequest(tenant, slice));
  CSOD_ASSIGN_OR_RETURN(std::string response, Call(request));
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(response));
  CSOD_ASSIGN_OR_RETURN(uint64_t accepted, DecodeAck(view));
  if (accepted != keys.size()) {
    return Status::Internal("net: server accepted " +
                            std::to_string(accepted) + " of " +
                            std::to_string(keys.size()) + " events");
  }
  return Status::OK();
}

Result<uint64_t> NetClient::AdvanceTo(const std::string& tenant,
                                      uint64_t tick) {
  CSOD_ASSIGN_OR_RETURN(std::string request,
                        EncodeAdvanceRequest(tenant, tick));
  CSOD_ASSIGN_OR_RETURN(std::string response, Call(request));
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(response));
  return DecodeAck(view);
}

Result<StreamingQueryResult> NetClient::Query(const std::string& query_text) {
  CSOD_ASSIGN_OR_RETURN(std::string request, EncodeQueryRequest(query_text));
  CSOD_ASSIGN_OR_RETURN(std::string response, Call(request));
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(response));
  return DecodeQueryResultResponse(view);
}

Result<SketchSnapshot> NetClient::FetchSnapshot(const std::string& tenant) {
  CSOD_ASSIGN_OR_RETURN(std::string request, EncodeSnapshotRequest(tenant));
  CSOD_ASSIGN_OR_RETURN(std::string response, Call(request));
  return DecodeSnapshotResponse(response);
}

Result<std::string> NetClient::FetchCheckpoint(const std::string& tenant) {
  CSOD_ASSIGN_OR_RETURN(std::string request, EncodeCheckpointRequest(tenant));
  CSOD_ASSIGN_OR_RETURN(std::string response, Call(request));
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(response));
  CSOD_RETURN_NOT_OK(StatusOfResponse(view));
  if (view.kind != kCheckpointFrameKind) {
    return Status::Internal("net: unexpected checkpoint response kind " +
                            std::to_string(view.kind));
  }
  return response;
}

// ---------------------------------------------------------------------------
// SnapshotFollower
// ---------------------------------------------------------------------------

SnapshotFollower::SnapshotFollower(const SnapshotFollowerOptions& options)
    : options_(options),
      matrix_(cs::SharedMatrix(options.m, options.n, options.seed)) {}

Result<std::unique_ptr<SnapshotFollower>> SnapshotFollower::Create(
    const SnapshotFollowerOptions& options) {
  if (options.n == 0) {
    return Status::InvalidArgument("SnapshotFollowerOptions.n must be > 0");
  }
  if (options.m == 0) {
    return Status::InvalidArgument("SnapshotFollowerOptions.m must be > 0");
  }
  return std::unique_ptr<SnapshotFollower>(new SnapshotFollower(options));
}

Status SnapshotFollower::ApplySnapshot(const SketchSnapshot& snapshot) {
  if (snapshot.y.size() != options_.m) {
    return Status::InvalidArgument(
        "ApplySnapshot: y size " + std::to_string(snapshot.y.size()) +
        " != M " + std::to_string(options_.m));
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Monotone in version: duplicate or reordered deliveries are no-ops, so
  // replication can be retried or raced freely.
  if (snapshot_ != nullptr && snapshot.version <= snapshot_->version) {
    return Status::OK();
  }
  snapshot_ = std::make_shared<const SketchSnapshot>(snapshot);
  return Status::OK();
}

Status SnapshotFollower::ReplicateOnce(NetClient* client,
                                       const std::string& tenant) {
  CSOD_ASSIGN_OR_RETURN(SketchSnapshot snapshot,
                        client->FetchSnapshot(tenant));
  return ApplySnapshot(snapshot);
}

std::shared_ptr<const SketchSnapshot> SnapshotFollower::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

Result<SnapshotAnswer> SnapshotFollower::Answer(query::QueryKind kind,
                                                size_t k) const {
  const std::string call =
      kind == query::QueryKind::kOutlier ? "QueryOutliers" : "QueryTopK";
  if (k == 0) return Status::InvalidArgument(call + ": k must be > 0");
  std::shared_ptr<const SketchSnapshot> snapshot = Snapshot();
  if (snapshot == nullptr) {
    return Status::FailedPrecondition(call + ": no snapshot replicated yet");
  }
  // The leader's solve minus telemetry: replicas record nothing.
  cs::SolverOptions solve;
  solve.solver = options_.solver;
  solve.iterations = cs::IterationBudget(options_.iterations, k);
  return AnswerFromSnapshot(*matrix_, std::move(snapshot), kind, k, solve);
}

Result<outlier::OutlierSet> SnapshotFollower::QueryOutliers(size_t k) const {
  CSOD_ASSIGN_OR_RETURN(SnapshotAnswer answer,
                        Answer(query::QueryKind::kOutlier, k));
  return std::move(answer.ranked);
}

Result<std::vector<outlier::Outlier>> SnapshotFollower::QueryTopK(
    size_t k) const {
  CSOD_ASSIGN_OR_RETURN(SnapshotAnswer answer,
                        Answer(query::QueryKind::kTop, k));
  return std::move(answer.ranked.outliers);
}

}  // namespace csod::serve
