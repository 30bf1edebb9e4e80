#include "dist/wire_format.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/random.h"

namespace csod::dist {

namespace {

// "CSO2": frames whose checksum is FrameChecksum's lane definition.
constexpr uint32_t kMagic = 0x43534f32;
// "CSOD": frames checksummed by the retired single HashCombine chain. They
// are refused by name, never as torn bytes, so no transport retries them.
constexpr uint32_t kChainChecksumMagic = 0x43534f44;
constexpr uint8_t kKindMeasurement = 1;
constexpr uint8_t kKindKeyValues = 2;
constexpr size_t kHeaderSize = 4 + 1 + 8;
constexpr size_t kChecksumSize = 8;

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

double ReadF64(const char* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

// One xxHash64-style round. It is a bijection of `lane` for a fixed word
// and of the word for a fixed lane, so changing any one word (or the lane
// state it meets) always changes the result.
uint64_t LaneRound(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * 0xc2b2ae3d27d4eb4fULL, 31) *
         0x9e3779b185ebca87ULL;
}

void FinishMessage(std::string* out) {
  AppendU64(out, FrameChecksum(*out));
}

Status RetiredMagic(const char* what) {
  return Status::InvalidArgument(
      std::string("wire: ") + what +
      " has magic \"CSOD\", the retired chained-checksum format; this build "
      "reads only \"CSO2\" (lane checksum) frames");
}

// Validates magic/kind/count/checksum; returns the payload pointer.
Result<const char*> ValidateEnvelope(const std::string& bytes, uint8_t kind,
                                     size_t payload_unit, uint64_t* count) {
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    return Status::InvalidArgument("wire: message too short");
  }
  const char* p = bytes.data();
  if (ReadU32(p) != kMagic) {
    if (ReadU32(p) == kChainChecksumMagic) return RetiredMagic("message");
    return Status::InvalidArgument("wire: bad magic");
  }
  if (static_cast<uint8_t>(p[4]) != kind) {
    return Status::InvalidArgument("wire: unexpected message kind");
  }
  *count = ReadU64(p + 5);
  const size_t payload_size = bytes.size() - kHeaderSize - kChecksumSize;
  CSOD_RETURN_NOT_OK(PayloadReader(p + kHeaderSize, payload_size, "wire")
                         .CheckCount(*count, payload_unit));
  if (*count * payload_unit != payload_size) {
    return Status::InvalidArgument(
        "wire: size mismatch (" + std::to_string(*count) + " elements in " +
        std::to_string(payload_size) + " payload bytes)");
  }
  const uint64_t stored = ReadU64(p + bytes.size() - kChecksumSize);
  if (FrameChecksum({p, bytes.size() - kChecksumSize}) != stored) {
    return Status::InvalidArgument("wire: checksum mismatch");
  }
  return p + kHeaderSize;
}

}  // namespace

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

Status AppendLengthPrefixed(std::string* out, std::string_view bytes) {
  if (bytes.size() > UINT32_MAX) {
    return Status::InvalidArgument(
        "wire: length-prefixed field of " + std::to_string(bytes.size()) +
        " bytes exceeds the u32 length");
  }
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
  return Status::OK();
}

Status PayloadReader::Need(size_t bytes) const {
  if (remaining_ < bytes) {
    return Status::InvalidArgument(std::string(context_) +
                                   ": truncated payload field");
  }
  return Status::OK();
}

Status PayloadReader::U8(uint8_t* v) {
  CSOD_RETURN_NOT_OK(Need(1));
  *v = static_cast<uint8_t>(*p_);
  ++p_;
  --remaining_;
  return Status::OK();
}

Status PayloadReader::U32(uint32_t* v) {
  CSOD_RETURN_NOT_OK(Need(4));
  *v = ReadU32(p_);
  p_ += 4;
  remaining_ -= 4;
  return Status::OK();
}

Status PayloadReader::U64(uint64_t* v) {
  CSOD_RETURN_NOT_OK(Need(8));
  *v = ReadU64(p_);
  p_ += 8;
  remaining_ -= 8;
  return Status::OK();
}

Status PayloadReader::F64(double* v) {
  CSOD_RETURN_NOT_OK(Need(8));
  *v = ReadF64(p_);
  p_ += 8;
  remaining_ -= 8;
  return Status::OK();
}

Status PayloadReader::LengthPrefixed(std::string* out) {
  uint32_t len = 0;
  CSOD_RETURN_NOT_OK(U32(&len));
  CSOD_RETURN_NOT_OK(Need(len));
  out->assign(p_, len);
  p_ += len;
  remaining_ -= len;
  return Status::OK();
}

Status PayloadReader::CheckCount(uint64_t count, size_t min_bytes) const {
  if (min_bytes > 0 && count > remaining_ / min_bytes) {
    return Status::InvalidArgument(
        std::string(context_) + ": count " + std::to_string(count) +
        " exceeds the " + std::to_string(remaining_) +
        " remaining payload bytes");
  }
  return Status::OK();
}

uint64_t FrameChecksum(std::string_view bytes) {
  constexpr size_t kLanes = 8;
  const char* data = bytes.data();
  const size_t size = bytes.size();
  const size_t words = size / 8;
  const uint64_t seed = 0x5bd1e995u ^ size;
  uint64_t lanes[kLanes];
  for (size_t l = 0; l < kLanes; ++l) lanes[l] = SplitMix64(seed + l);
  // Word w feeds lane w % kLanes: the lanes are independent dependency
  // chains, so their rounds overlap instead of waiting on one another.
  size_t w = 0;
  for (; w + kLanes <= words; w += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      lanes[l] = LaneRound(lanes[l], ReadU64(data + 8 * (w + l)));
    }
  }
  for (; w < words; ++w) {
    lanes[w % kLanes] = LaneRound(lanes[w % kLanes], ReadU64(data + 8 * w));
  }
  uint64_t h = seed;
  for (uint64_t lane : lanes) h = LaneRound(h, lane);
  if (const size_t tail_size = size % 8; tail_size != 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, data + 8 * words, tail_size);
    h = LaneRound(h, tail);
  }
  return SplitMix64(h);
}

std::string EncodeFrame(uint8_t kind, uint64_t count,
                        std::string_view payload) {
  std::string out;
  out.reserve(FrameWireSize(payload.size()));
  AppendU32(&out, kMagic);
  out.push_back(static_cast<char>(kind));
  AppendU64(&out, count);
  out.append(payload.data(), payload.size());
  FinishMessage(&out);
  return out;
}

Result<FrameView> DecodeFrame(const std::string& bytes) {
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    return Status::DataLoss("wire: frame too short");
  }
  const char* p = bytes.data();
  if (ReadU32(p) != kMagic) {
    if (ReadU32(p) == kChainChecksumMagic) return RetiredMagic("frame");
    return Status::DataLoss("wire: bad frame magic");
  }
  const uint64_t stored = ReadU64(p + bytes.size() - kChecksumSize);
  if (FrameChecksum({p, bytes.size() - kChecksumSize}) != stored) {
    return Status::DataLoss("wire: frame checksum mismatch");
  }
  FrameView view;
  view.kind = static_cast<uint8_t>(p[4]);
  view.count = ReadU64(p + 5);
  view.payload = p + kHeaderSize;
  view.payload_size = bytes.size() - kHeaderSize - kChecksumSize;
  return view;
}

size_t FrameWireSize(size_t payload_size) {
  return kHeaderSize + payload_size + kChecksumSize;
}

Result<std::string> EncodeMeasurement(const std::vector<double>& y) {
  for (size_t i = 0; i < y.size(); ++i) {
    if (!std::isfinite(y[i])) {
      return Status::InvalidArgument(
          "wire: non-finite measurement entry at row " + std::to_string(i));
    }
  }
  std::string out;
  out.reserve(MeasurementWireSize(y.size()));
  AppendU32(&out, kMagic);
  out.push_back(static_cast<char>(kKindMeasurement));
  AppendU64(&out, y.size());
  for (double v : y) AppendF64(&out, v);
  FinishMessage(&out);
  return out;
}

Result<std::vector<double>> DecodeMeasurement(const std::string& bytes) {
  uint64_t count = 0;
  CSOD_ASSIGN_OR_RETURN(const char* payload,
                        ValidateEnvelope(bytes, kKindMeasurement, 8, &count));
  std::vector<double> y(count);
  for (uint64_t i = 0; i < count; ++i) y[i] = ReadF64(payload + 8 * i);
  return y;
}

Result<std::string> EncodeKeyValues(const cs::SparseSlice& slice) {
  if (slice.indices.size() != slice.values.size()) {
    return Status::InvalidArgument("wire: slice index/value size mismatch");
  }
  for (size_t idx : slice.indices) {
    if (idx > UINT32_MAX) {
      return Status::InvalidArgument("wire: key id " + std::to_string(idx) +
                                     " exceeds 32-bit key space");
    }
  }
  for (size_t i = 0; i < slice.values.size(); ++i) {
    if (!std::isfinite(slice.values[i])) {
      return Status::InvalidArgument(
          "wire: non-finite value for key " +
          std::to_string(slice.indices[i]));
    }
  }
  std::string out;
  out.reserve(KeyValueWireSize(slice.nnz()));
  AppendU32(&out, kMagic);
  out.push_back(static_cast<char>(kKindKeyValues));
  AppendU64(&out, slice.nnz());
  for (size_t i = 0; i < slice.nnz(); ++i) {
    AppendU32(&out, static_cast<uint32_t>(slice.indices[i]));
    AppendF64(&out, slice.values[i]);
  }
  FinishMessage(&out);
  return out;
}

Result<cs::SparseSlice> DecodeKeyValues(const std::string& bytes) {
  uint64_t count = 0;
  CSOD_ASSIGN_OR_RETURN(const char* payload,
                        ValidateEnvelope(bytes, kKindKeyValues, 12, &count));
  cs::SparseSlice slice;
  slice.indices.reserve(count);
  slice.values.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    slice.indices.push_back(ReadU32(payload + 12 * i));
    slice.values.push_back(ReadF64(payload + 12 * i + 4));
  }
  return slice;
}

size_t MeasurementWireSize(size_t m) {
  return kHeaderSize + 8 * m + kChecksumSize;
}

size_t KeyValueWireSize(size_t nnz) {
  return kHeaderSize + 12 * nnz + kChecksumSize;
}

}  // namespace csod::dist
