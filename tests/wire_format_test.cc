#include "dist/wire_format.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace csod::dist {
namespace {

// A frame in the retired wire format: magic "CSOD" and a checksum that is
// one HashCombine chain over the 8-byte words, then the zero-padded tail.
std::string ChainChecksumFrame(uint8_t kind, uint64_t count,
                               const std::string& payload) {
  std::string out;
  AppendU32(&out, 0x43534f44);
  out.push_back(static_cast<char>(kind));
  AppendU64(&out, count);
  out += payload;
  uint64_t h = 0x5bd1e995u ^ out.size();
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, out.data() + i, 8);
    h = HashCombine(h, word);
  }
  if (i < out.size()) {
    uint64_t tail = 0;
    std::memcpy(&tail, out.data() + i, out.size() - i);
    h = HashCombine(h, tail);
  }
  AppendU64(&out, SplitMix64(h));
  return out;
}

TEST(WireFormatTest, MeasurementRoundTrip) {
  const std::vector<double> y = {1.5, -2.25, 0.0, 1e300, -1e-300};
  const std::string bytes = EncodeMeasurement(y).Value();
  EXPECT_EQ(bytes.size(), MeasurementWireSize(y.size()));
  auto decoded = DecodeMeasurement(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.Value(), y);
}

TEST(WireFormatTest, EmptyMeasurement) {
  const std::string bytes = EncodeMeasurement({}).Value();
  auto decoded = DecodeMeasurement(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.Value().empty());
}

TEST(WireFormatTest, KeyValueRoundTrip) {
  cs::SparseSlice slice;
  slice.indices = {0, 42, 4294967295u};
  slice.values = {3.25, -7.0, 1.0};
  auto encoded = EncodeKeyValues(slice);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.Value().size(), KeyValueWireSize(3));
  auto decoded = DecodeKeyValues(encoded.Value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.Value().indices, slice.indices);
  EXPECT_EQ(decoded.Value().values, slice.values);
}

TEST(WireFormatTest, KeyTooLargeRejected) {
  cs::SparseSlice slice;
  slice.indices = {uint64_t{1} << 33};
  slice.values = {1.0};
  auto encoded = EncodeKeyValues(slice);
  EXPECT_FALSE(encoded.ok());
  // InvalidArgument, not OutOfRange: a key past the 32-bit wire key space
  // is a caller bug (wrong dictionary), not an iteration boundary — and
  // callers must be able to distinguish it from retryable range errors.
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, MismatchedSliceRejected) {
  cs::SparseSlice slice;
  slice.indices = {1, 2};
  slice.values = {1.0};
  EXPECT_FALSE(EncodeKeyValues(slice).ok());
}

TEST(WireFormatTest, CorruptionDetected) {
  const std::string bytes = EncodeMeasurement({1.0, 2.0, 3.0}).Value();
  // Flip one payload byte: checksum must catch it.
  for (size_t pos : {size_t{13}, size_t{20}, bytes.size() - 1}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    EXPECT_FALSE(DecodeMeasurement(corrupted).ok()) << "pos " << pos;
  }
}

TEST(WireFormatTest, TruncationDetected) {
  const std::string bytes = EncodeMeasurement({1.0, 2.0}).Value();
  EXPECT_FALSE(DecodeMeasurement(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(DecodeMeasurement(bytes.substr(0, 5)).ok());
  EXPECT_FALSE(DecodeMeasurement("").ok());
}

TEST(WireFormatTest, KindConfusionRejected) {
  cs::SparseSlice slice;
  slice.indices = {1};
  slice.values = {2.0};
  auto kv = EncodeKeyValues(slice);
  ASSERT_TRUE(kv.ok());
  EXPECT_FALSE(DecodeMeasurement(kv.Value()).ok());
  EXPECT_FALSE(DecodeKeyValues(EncodeMeasurement({1.0}).Value()).ok());
}

TEST(WireFormatTest, BadMagicRejected) {
  std::string bytes = EncodeMeasurement({1.0}).Value();
  bytes[0] = 'X';
  EXPECT_FALSE(DecodeMeasurement(bytes).ok());
}

TEST(WireFormatTest, FuzzedGarbageNeverCrashesDecoder) {
  // Seeded fuzz: random byte strings and randomly mutated valid messages
  // must be rejected cleanly (no crash, no bogus acceptance of mutants).
  Rng rng(0xf22d);
  const std::string valid =
      EncodeMeasurement({1.0, -2.0, 3.5, 0.25}).Value();
  for (int trial = 0; trial < 2000; ++trial) {
    std::string bytes;
    if (trial % 2 == 0) {
      // Pure garbage of random length.
      const size_t len = rng.NextBounded(64);
      bytes.resize(len);
      for (char& ch : bytes) {
        ch = static_cast<char>(rng.NextU64() & 0xff);
      }
    } else {
      // Valid message with 1-4 random byte flips.
      bytes = valid;
      const size_t flips = 1 + rng.NextBounded(4);
      for (size_t f = 0; f < flips; ++f) {
        const size_t pos = rng.NextBounded(bytes.size());
        bytes[pos] = static_cast<char>(bytes[pos] ^
                                       (1 + (rng.NextU64() & 0xff)));
      }
      if (bytes == valid) continue;  // All flips were identity XORs.
    }
    auto measurement = DecodeMeasurement(bytes);
    auto kv = DecodeKeyValues(bytes);
    EXPECT_FALSE(measurement.ok() && kv.ok());  // Can't be both kinds.
    if (trial % 2 == 1) {
      // A mutated valid message must never decode successfully.
      EXPECT_FALSE(measurement.ok()) << "trial " << trial;
    }
  }
}

// A checksummed message whose count, multiplied by the element size,
// wraps around to the real payload size. Decoding must refuse the count
// instead of sizing a vector from it (length_error / bad_alloc otherwise).
TEST(WireFormatTest, CraftedWrappingCountIsInvalidArgument) {
  // Kind 1 = measurement (8 B per element): (2^61 + 1) * 8 wraps to 8.
  const std::string measurement =
      EncodeFrame(1, (uint64_t{1} << 61) + 1, std::string(8, '\0'));
  EXPECT_EQ(DecodeMeasurement(measurement).status().code(),
            StatusCode::kInvalidArgument);
  // Kind 2 = key-values (12 B per element): (2^62 + 1) * 12 wraps to 12.
  const std::string kv =
      EncodeFrame(2, (uint64_t{1} << 62) + 1, std::string(12, '\0'));
  EXPECT_EQ(DecodeKeyValues(kv).status().code(), StatusCode::kInvalidArgument);
  // The honest counts for the same payloads still decode.
  EXPECT_TRUE(DecodeMeasurement(EncodeFrame(1, 1, std::string(8, '\0'))).ok());
  EXPECT_TRUE(DecodeKeyValues(EncodeFrame(2, 1, std::string(12, '\0'))).ok());
}

TEST(PayloadReaderTest, ReadsInOrderAndRefusesOverruns) {
  std::string payload;
  AppendU32(&payload, 7);
  AppendU64(&payload, 1234567890123ull);
  AppendF64(&payload, -2.5);
  AppendU32(&payload, 3);
  payload += "abc";
  PayloadReader reader(payload.data(), payload.size(), "test");
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string text;
  ASSERT_TRUE(reader.U32(&u32).ok());
  ASSERT_TRUE(reader.U64(&u64).ok());
  ASSERT_TRUE(reader.F64(&f64).ok());
  ASSERT_TRUE(reader.LengthPrefixed(&text).ok());
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1234567890123ull);
  EXPECT_EQ(f64, -2.5);
  EXPECT_EQ(text, "abc");
  EXPECT_EQ(reader.remaining(), 0u);
  uint8_t u8 = 0;
  const Status overrun = reader.U8(&u8);
  EXPECT_EQ(overrun.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(overrun.message(), "test: truncated payload field");

  // A length prefix longer than the payload is refused, not trusted.
  std::string lying;
  AppendU32(&lying, 1000);
  lying += "short";
  PayloadReader liar(lying.data(), lying.size(), "test");
  EXPECT_EQ(liar.LengthPrefixed(&text).code(), StatusCode::kInvalidArgument);
}

TEST(PayloadReaderTest, CheckCountBoundsUntrustedCountsByDivision) {
  const std::string payload(40, '\0');
  PayloadReader reader(payload.data(), payload.size(), "test");
  EXPECT_TRUE(reader.CheckCount(10, 4).ok());
  EXPECT_TRUE(reader.CheckCount(0, 8).ok());
  EXPECT_EQ(reader.CheckCount(11, 4).code(), StatusCode::kInvalidArgument);
  // Counts whose byte size would wrap a 64-bit multiply are refused too.
  EXPECT_EQ(reader.CheckCount((uint64_t{1} << 62) + 1, 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.CheckCount(UINT64_MAX, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameChecksumTest, PinnedValues) {
  // The checksum is part of the wire format: a change here is a new frame
  // magic, never an accident.
  EXPECT_EQ(FrameChecksum(""), 0xf5f440d240d13168u);
  EXPECT_EQ(FrameChecksum("csod frame checksum"), 0x685e2d5522724d27u);
  std::string stripes(200, '\0');
  for (size_t i = 0; i < stripes.size(); ++i) {
    stripes[i] = static_cast<char>(i * 7 + 3);
  }
  EXPECT_EQ(FrameChecksum(stripes), 0x2abe8bba0ab56e77u);  // 3 stripes + 8.
  // A frame carries the checksum of its header and payload.
  const std::string frame = EncodeFrame(16, 3, "abc");
  uint64_t stored;
  std::memcpy(&stored, frame.data() + frame.size() - 8, 8);
  EXPECT_EQ(stored,
            FrameChecksum(std::string_view(frame).substr(0, frame.size() - 8)));
}

TEST(FrameChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  // Every length from 0 to two full 64-byte lane stripes plus 7 tail bytes,
  // so each lane, the partial stripe and every tail length are covered.
  Rng rng(8);
  for (size_t size = 0; size <= 2 * 64 + 7; ++size) {
    std::string bytes(size, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
    const uint64_t clean = FrameChecksum(bytes);
    for (size_t bit = 0; bit < 8 * size; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(FrameChecksum(flipped), clean)
          << "size " << size << " bit " << bit;
    }
  }
}

TEST(FrameChecksumTest, EverySingleBitFlipInAFrameIsDataLoss) {
  // Header + payload lengths 13 ... 135, flips anywhere in the frame,
  // checksum field included: every one is a torn frame the client retries.
  Rng rng(9);
  for (size_t payload_size = 0; 13 + payload_size <= 2 * 64 + 7;
       ++payload_size) {
    std::string payload(payload_size, '\0');
    for (char& c : payload) c = static_cast<char>(rng.NextBounded(256));
    const std::string frame = EncodeFrame(16, payload_size, payload);
    ASSERT_TRUE(DecodeFrame(frame).ok());
    for (size_t bit = 0; bit < 8 * frame.size(); ++bit) {
      std::string flipped = frame;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      const Result<FrameView> decoded = DecodeFrame(flipped);
      ASSERT_FALSE(decoded.ok())
          << "payload " << payload_size << " bit " << bit;
      ASSERT_EQ(decoded.status().code(), StatusCode::kDataLoss)
          << "payload " << payload_size << " bit " << bit;
    }
  }
}

TEST(FrameChecksumTest, RetiredChainChecksumFrameIsRefusedByName) {
  // An intact frame of the previous definition is not torn: resending it
  // cannot help, so it must not read as DataLoss.
  const std::string old_frame = ChainChecksumFrame(16, 2, "payload");
  const Result<FrameView> decoded = DecodeFrame(old_frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("retired"), std::string::npos)
      << decoded.status().ToString();
  EXPECT_NE(decoded.status().message().find("CSOD"), std::string::npos)
      << decoded.status().ToString();
  // The built-in messages refuse it the same way.
  std::string measurement;
  AppendF64(&measurement, 1.5);
  const Result<std::vector<double>> y =
      DecodeMeasurement(ChainChecksumFrame(1, 1, measurement));
  ASSERT_FALSE(y.ok());
  EXPECT_EQ(y.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(y.status().message().find("retired"), std::string::npos);
  // The same bytes re-framed in the current format decode.
  EXPECT_EQ(DecodeMeasurement(EncodeFrame(1, 1, measurement)).Value(),
            std::vector<double>{1.5});
}

TEST(WireFormatTest, WireSizesMatchIdealizedAccountingPlusHeader) {
  // Header + checksum are a fixed 21 bytes; payload matches the paper's
  // per-tuple accounting (8B measurements, 12B kv pairs).
  EXPECT_EQ(MeasurementWireSize(100) - MeasurementWireSize(0), 100u * 8);
  EXPECT_EQ(KeyValueWireSize(100) - KeyValueWireSize(0), 100u * 12);
}

}  // namespace
}  // namespace csod::dist
