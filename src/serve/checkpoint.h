#ifndef CSOD_SERVE_CHECKPOINT_H_
#define CSOD_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "serve/streaming_detector.h"

namespace csod::serve {

/// \brief Checkpoint/restore of a StreamingDetector as one checksummed
/// dist::wire_format frame.
///
/// Because CS measurements are linear, the epoch ring *is* the window
/// state: serializing the per-epoch `y` vectors (each as an embedded,
/// individually checksummed measurement message) and the published
/// snapshot captures the detector exactly. A restart that restores the
/// latest checkpoint republishes a bit-identical `SketchSnapshot`
/// (version, epoch range, and `y` bytes) and continues ingestion as if the
/// process never died.
///
/// Torn writes are detected, never trusted: the outer frame checksum
/// covers the whole checkpoint, so a crash mid-write (or the Buggify
/// section `serve.net.mid_checkpoint_crash`) yields a frame DecodeCheckpoint
/// rejects with DataLoss — operators keep the previous good checkpoint.
///
/// The frame records the Φ0 format (cs::kPhi0Format) its sketches were
/// measured under; DecodeCheckpoint refuses any other format, including
/// frames written before the marker existed (Φ0 format 1).

/// Frame kind of a serialized checkpoint (outside the dist payload kinds
/// 1–15 and the serve RPC kinds of serve/net.h; a checkpoint frame doubles
/// as the fetch-checkpoint RPC response).
inline constexpr uint8_t kCheckpointFrameKind = 24;

/// Serializes the stream geometry of `options` plus the full mutable
/// state. The count field holds the number of retained epochs.
Result<std::string> EncodeCheckpoint(const StreamingDetectorOptions& options,
                                     const DetectorCheckpoint& checkpoint);

/// A decoded checkpoint: the geometry it was taken under plus the state.
struct DecodedCheckpoint {
  /// Stream geometry — must match the restoring detector's options.
  size_t n = 0;
  size_t m = 0;
  uint64_t seed = 1;
  size_t window_epochs = 0;
  size_t num_shards = 0;
  DetectorCheckpoint state;
};

/// Validates checksums (outer frame and every embedded message) and
/// decodes. DataLoss on torn/corrupted bytes, InvalidArgument on a
/// structurally inconsistent payload, another Φ0 format, or state this
/// build cannot run (a tumbling window, epoch_ticks other than 1, a
/// stalled shard or a shard backlog).
Result<DecodedCheckpoint> DecodeCheckpoint(const std::string& frame);

/// Decodes `frame`, checks its geometry against `options` (same
/// n/m/seed/window/shards — a checkpoint only restores the stream it was
/// taken from), and builds the restored detector. `options` supplies
/// the runtime-only fields (telemetry sink, iterations).
Result<std::unique_ptr<StreamingDetector>> RestoreDetector(
    const std::string& frame, const StreamingDetectorOptions& options);

}  // namespace csod::serve

#endif  // CSOD_SERVE_CHECKPOINT_H_
