#include "dist/wire_format.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace csod::dist {
namespace {

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

TEST(WireFormatTest, WireSizesMatchIdealizedAccountingPlusHeader) {
  // Header + checksum are a fixed 21 bytes; payload matches the paper's
  // per-tuple accounting (8B measurements, 12B kv pairs).
  EXPECT_EQ(MeasurementWireSize(100) - MeasurementWireSize(0), 100u * 8);
  EXPECT_EQ(KeyValueWireSize(100) - KeyValueWireSize(0), 100u * 12);
}

}  // namespace
}  // namespace csod::dist
