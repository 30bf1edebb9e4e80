#include "serve/checkpoint.h"

#include <string>
#include <utility>

#include "cs/measurement_matrix.h"
#include "dist/wire_format.h"
#include "serve/snapshot.h"
#include "sim/buggify.h"

namespace csod::serve {

namespace {

using dist::AppendU32;
using dist::AppendU64;

// Payload layout (after the generic [magic][kind][count] envelope header;
// count = retained epochs):
//   u64 n, m, seed, window_epochs, num_shards, epoch_ticks (always 1)
//   u8  window_kind (always 0: sliding), started, has_snapshot
//   u64 current_epoch, version, last_tick
//   u64 num_epochs
//   per epoch: u64 events, u32 len, EncodeMeasurement bytes (own checksum)
//   per shard: u8 stalled (always 0)
//   per shard: u64 backlog slices (always 0)
//   if has_snapshot: the AppendSnapshot layout (serve/snapshot.h)
//   u32 phi0_format (cs::kPhi0Format)
//
// The Φ0 format is a trailer: a frame written before the marker existed
// (Φ0 format 1) ends exactly where the marker would start, so every such
// frame is recognized and refused by name. A leading field would alias the
// old frames' n instead.
//
// The detector runs one tick per epoch and sliding windows only, and its
// shards never stall, so it writes 1 into epoch_ticks and 0 into
// window_kind, every stall flag and every backlog count; a frame holding
// any other value was written for state it cannot run and is refused by
// name (InvalidArgument, never DataLoss: the bytes are intact).

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

}  // namespace

Result<std::string> EncodeCheckpoint(const StreamingDetectorOptions& options,
                                     const DetectorCheckpoint& checkpoint) {
  std::string payload;
  AppendU64(&payload, options.n);
  AppendU64(&payload, options.m);
  AppendU64(&payload, options.seed);
  AppendU64(&payload, options.window_epochs);
  AppendU64(&payload, options.num_shards);
  AppendU64(&payload, 1);  // epoch_ticks
  AppendU8(&payload, 0);   // window_kind
  AppendU8(&payload, checkpoint.started ? 1 : 0);
  AppendU8(&payload, checkpoint.snapshot != nullptr ? 1 : 0);
  AppendU64(&payload, checkpoint.current_epoch);
  AppendU64(&payload, checkpoint.version);
  AppendU64(&payload, checkpoint.last_tick);

  if (checkpoint.epoch_events.size() != checkpoint.epoch_sketches.size()) {
    return Status::InvalidArgument(
        "checkpoint: epoch events/sketches size mismatch");
  }
  const uint64_t num_epochs = checkpoint.epoch_sketches.size();
  AppendU64(&payload, num_epochs);
  for (uint64_t e = 0; e < num_epochs; ++e) {
    AppendU64(&payload, checkpoint.epoch_events[e]);
    CSOD_ASSIGN_OR_RETURN(
        const std::string sketch,
        dist::EncodeMeasurement(checkpoint.epoch_sketches[e]));
    CSOD_RETURN_NOT_OK(dist::AppendLengthPrefixed(&payload, sketch));
  }

  for (size_t p = 0; p < options.num_shards; ++p) AppendU8(&payload, 0);
  for (size_t p = 0; p < options.num_shards; ++p) AppendU64(&payload, 0);

  if (checkpoint.snapshot != nullptr) {
    CSOD_RETURN_NOT_OK(AppendSnapshot(*checkpoint.snapshot, &payload));
  }
  AppendU32(&payload, cs::kPhi0Format);

  std::string frame =
      dist::EncodeFrame(kCheckpointFrameKind, num_epochs, payload);
  // Buggify: crash mid-checkpoint — the writer dies partway through, so
  // the reader sees a torn frame. Keyed on the checkpointed epoch: the
  // same epoch's checkpoint is torn on every attempt (a crashed writer
  // stays crashed), the next epoch's succeeds. Decoding must reject the
  // torn bytes via the outer checksum, never restore from them.
  if (CSOD_BUGGIFY_AT("serve.net.mid_checkpoint_crash",
                      checkpoint.current_epoch)) {
    frame.resize(frame.size() / 2);
  }
  return frame;
}

Result<DecodedCheckpoint> DecodeCheckpoint(const std::string& frame) {
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(frame));
  if (view.kind != kCheckpointFrameKind) {
    return Status::InvalidArgument(
        "checkpoint: unexpected frame kind " + std::to_string(view.kind));
  }
  dist::PayloadReader reader(view, "checkpoint");
  DecodedCheckpoint decoded;
  uint64_t u = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.n = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.m = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&decoded.seed));
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.window_epochs = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.num_shards = static_cast<size_t>(u);
  uint64_t epoch_ticks = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&epoch_ticks));
  if (epoch_ticks != 1) {
    return Status::InvalidArgument(
        "checkpoint: epoch_ticks " + std::to_string(epoch_ticks) +
        " is not supported (one tick is one epoch)");
  }
  uint8_t window_kind = 0, started = 0, has_snapshot = 0;
  CSOD_RETURN_NOT_OK(reader.U8(&window_kind));
  if (window_kind != 0) {
    return Status::InvalidArgument(
        "checkpoint: tumbling window (window kind " +
        std::to_string(window_kind) + ") is not supported");
  }
  CSOD_RETURN_NOT_OK(reader.U8(&started));
  CSOD_RETURN_NOT_OK(reader.U8(&has_snapshot));
  decoded.state.started = started != 0;
  CSOD_RETURN_NOT_OK(reader.U64(&decoded.state.current_epoch));
  CSOD_RETURN_NOT_OK(reader.U64(&decoded.state.version));
  CSOD_RETURN_NOT_OK(reader.U64(&decoded.state.last_tick));

  uint64_t num_epochs = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&num_epochs));
  if (num_epochs != view.count) {
    return Status::InvalidArgument(
        "checkpoint: epoch count disagrees with the frame envelope");
  }
  if (num_epochs > decoded.window_epochs + 1) {
    return Status::InvalidArgument("checkpoint: more epochs than the ring");
  }
  // An epoch is at least a u64 event count and a u32 message length.
  CSOD_RETURN_NOT_OK(reader.CheckCount(num_epochs, 8 + 4));
  decoded.state.epoch_events.reserve(num_epochs);
  decoded.state.epoch_sketches.reserve(num_epochs);
  std::string message;
  for (uint64_t e = 0; e < num_epochs; ++e) {
    CSOD_RETURN_NOT_OK(reader.U64(&u));
    decoded.state.epoch_events.push_back(u);
    CSOD_RETURN_NOT_OK(reader.LengthPrefixed(&message));
    CSOD_ASSIGN_OR_RETURN(std::vector<double> sketch,
                          dist::DecodeMeasurement(message));
    if (sketch.size() != decoded.m) {
      return Status::InvalidArgument("checkpoint: epoch sketch size " +
                                     std::to_string(sketch.size()) +
                                     " != M " + std::to_string(decoded.m));
    }
    decoded.state.epoch_sketches.push_back(std::move(sketch));
  }

  // A shard is a u8 stall flag and a u64 backlog length, both always 0.
  CSOD_RETURN_NOT_OK(reader.CheckCount(decoded.num_shards, 1 + 8));
  for (size_t p = 0; p < decoded.num_shards; ++p) {
    uint8_t stalled = 0;
    CSOD_RETURN_NOT_OK(reader.U8(&stalled));
    if (stalled != 0) {
      return Status::InvalidArgument(
          "checkpoint: stalled shard " + std::to_string(p) +
          " is not supported (shards never stall)");
    }
  }
  for (size_t p = 0; p < decoded.num_shards; ++p) {
    uint64_t backlog = 0;
    CSOD_RETURN_NOT_OK(reader.U64(&backlog));
    if (backlog != 0) {
      return Status::InvalidArgument(
          "checkpoint: shard " + std::to_string(p) + " backlog of " +
          std::to_string(backlog) +
          " slices is not supported (shards never stall)");
    }
  }

  if (has_snapshot != 0) {
    auto snapshot = std::make_shared<SketchSnapshot>();
    CSOD_RETURN_NOT_OK(ReadSnapshot(&reader, snapshot.get()));
    if (snapshot->y.size() != decoded.m) {
      return Status::InvalidArgument("checkpoint: snapshot y size mismatch");
    }
    decoded.state.snapshot = std::move(snapshot);
  }

  // The state above only means something against the Φ0 it was measured
  // with; refuse any other format rather than answer against the wrong one.
  CSOD_RETURN_NOT_OK(ReadPhi0Format(
      &reader, "checkpoint",
      "it was written with Φ0 format 1 (double entries)"));
  return decoded;
}

Result<std::unique_ptr<StreamingDetector>> RestoreDetector(
    const std::string& frame, const StreamingDetectorOptions& options) {
  CSOD_ASSIGN_OR_RETURN(DecodedCheckpoint decoded, DecodeCheckpoint(frame));
  if (decoded.n != options.n || decoded.m != options.m ||
      decoded.seed != options.seed ||
      decoded.window_epochs != options.window_epochs ||
      decoded.num_shards != options.num_shards) {
    return Status::InvalidArgument(
        "RestoreDetector: checkpoint geometry (n=" + std::to_string(decoded.n) +
        " m=" + std::to_string(decoded.m) +
        " seed=" + std::to_string(decoded.seed) +
        " window=" + std::to_string(decoded.window_epochs) +
        " shards=" + std::to_string(decoded.num_shards) +
        ") does not match the detector options");
  }
  return StreamingDetector::Restore(options, decoded.state);
}

}  // namespace csod::serve
