#ifndef CSOD_DIST_WIRE_FORMAT_H_
#define CSOD_DIST_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "cs/compressor.h"

namespace csod::dist {

/// \brief Binary wire format for what nodes actually transmit.
///
/// Two message kinds, matching the paper's accounting:
///  - a *measurement* message: M 64-bit doubles (the CS protocol's y_l),
///  - a *key-value* message: (32-bit key id, 64-bit value) pairs, the
///    96-bit tuples of the baselines (Section 6.1.2).
///
/// Layout (little-endian):
///   [u32 magic][u8 kind][u64 count][payload][u64 xxhash-style checksum]
///
/// The checksum (FrameChecksum) covers header + payload; decoding verifies
/// it and every size field, returning InvalidArgument on any corruption.
/// The magic names the checksum definition: "CSO2" is FrameChecksum's, and
/// a message in the retired "CSOD" definition is refused with an
/// InvalidArgument that says so. Encoded sizes intentionally exceed the
/// paper's idealized tuple counts only by the fixed header, so CommStats
/// keeps using the idealized sizes.
///
/// Non-finite payloads (NaN, ±Inf) are rejected at encode time: a sketch
/// is a sum of measurements, and one NaN would silently poison the global
/// aggregate at the coordinator. Rejecting on the sending side keeps the
/// corruption local to the node that produced it.

/// Serializes a measurement vector. InvalidArgument on non-finite entries.
Result<std::string> EncodeMeasurement(const std::vector<double>& y);

/// Parses a measurement message.
Result<std::vector<double>> DecodeMeasurement(const std::string& bytes);

/// Serializes a sparse key-value slice (32-bit key ids). InvalidArgument
/// on keys that do not fit 32 bits (never silent truncation) and on
/// non-finite values.
Result<std::string> EncodeKeyValues(const cs::SparseSlice& slice);

/// Parses a key-value message.
Result<cs::SparseSlice> DecodeKeyValues(const std::string& bytes);

/// Exact on-wire size of an encoded measurement of length m.
size_t MeasurementWireSize(size_t m);

/// Exact on-wire size of an encoded key-value slice with nnz entries.
size_t KeyValueWireSize(size_t nnz);

// ---------------------------------------------------------------------------
// Generic framing — the same envelope the two messages above use
// ([u32 magic][u8 kind][u64 count][payload][u64 checksum]), exposed so
// higher layers (the serve RPC surface, checkpoint files) can define new
// message kinds without reimplementing the checksum discipline. Kinds 1–15
// are reserved for dist payloads (1 = measurement, 2 = key-values); the
// serve layer claims 16+ (serve/net.h).
// ---------------------------------------------------------------------------

/// A validated view into a decoded frame. Borrows the frame's bytes: the
/// view is valid only while the decoded string is alive and unmodified.
struct FrameView {
  uint8_t kind = 0;
  /// The envelope's count field — element count by convention of the kind.
  uint64_t count = 0;
  const char* payload = nullptr;
  size_t payload_size = 0;
};

/// Wraps `payload` in a checksummed envelope of the given kind.
std::string EncodeFrame(uint8_t kind, uint64_t count, std::string_view payload);

/// Validates magic + checksum and returns a borrowed view of the payload.
/// Unlike Decode{Measurement,KeyValues} this cannot check count against the
/// payload size (the payload unit is kind-specific) — kind handlers must.
/// Returns DataLoss on any corruption so transports can retry exactly the
/// torn-frame case. A frame in the retired "CSOD" checksum definition is
/// intact but unreadable, so it is InvalidArgument naming that format:
/// resending it cannot help.
Result<FrameView> DecodeFrame(const std::string& bytes);

/// The envelope checksum over `bytes` (header + payload). Eight independent
/// xxHash64-style lanes take the 8-byte little-endian words in turn (word w
/// feeds lane w mod 8); the lanes are folded in order, then the 0–7 tail
/// bytes, then SplitMix64 finalizes. Portable integer code with one
/// definition on every host; changing it needs a new frame magic.
uint64_t FrameChecksum(std::string_view bytes);

/// Exact on-wire size of a frame with a payload of `payload_size` bytes.
size_t FrameWireSize(size_t payload_size);

/// Little-endian primitive append helpers for composing frame payloads
/// (the same encoders the built-in messages use); PayloadReader reads them
/// back.
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendF64(std::string* out, double v);
/// Appends a u32 byte length and then `bytes` (a string or an embedded
/// message) — what PayloadReader::LengthPrefixed reads back.
/// InvalidArgument, with `out` unchanged, when `bytes` does not fit the
/// u32 length (4 GiB or more).
Status AppendLengthPrefixed(std::string* out, std::string_view bytes);

/// \brief Bounds-checked cursor over a frame payload — the one decoder
/// every payload reader (serve RPC frames, checkpoints, the built-in
/// messages) shares.
///
/// A read past the end fails with InvalidArgument ("<context>: truncated
/// payload field"), never DataLoss: the outer checksum already passed, so
/// a short payload is malformed, not torn. Counts read from the payload are
/// untrusted: `CheckCount` bounds one by the bytes left before anything is
/// sized from it, so a crafted count can neither overflow nor make a
/// decoder allocate.
class PayloadReader {
 public:
  /// `context` prefixes error messages and must outlive the reader.
  PayloadReader(const char* data, size_t size, const char* context)
      : p_(data), remaining_(size), context_(context) {}
  PayloadReader(const FrameView& view, const char* context)
      : PayloadReader(view.payload, view.payload_size, context) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  /// A u32 byte length followed by that many bytes (a string or an
  /// embedded message).
  Status LengthPrefixed(std::string* out);

  /// InvalidArgument unless `count` elements of at least `min_bytes` each
  /// fit in the unread payload. Checked by division, so no count wraps.
  Status CheckCount(uint64_t count, size_t min_bytes) const;

  /// Unread payload bytes (0 once a decoder consumed everything).
  size_t remaining() const { return remaining_; }

 private:
  Status Need(size_t bytes) const;

  const char* p_;
  size_t remaining_;
  const char* context_;
};

}  // namespace csod::dist

#endif  // CSOD_DIST_WIRE_FORMAT_H_
