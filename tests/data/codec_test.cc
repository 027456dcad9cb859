// Round-trip property tests for the column codecs: every encoder/decoder
// pair over adversarial shapes — empty and 1-row chunks, all-equal runs,
// int64 extremes, NaN payloads / infinities / signed zeros, values sitting
// exactly on float boundaries — plus the serving-grid codec's defining
// property: the decoded value decides every `x <= threshold` comparison of
// the originating forest exactly as the original did, in both the double
// (scalar kernel) and quantized-float (SIMD kernel) comparison spaces.
// Truncated payloads must come back as Status errors, never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "data/codec.h"
#include "gbdt/tree.h"

namespace lightmirm::data {
namespace {

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

// Doubles that stress a bit-exact contract: NaNs with distinct payloads,
// infinities, signed zeros, denormals, and float-boundary values.
std::vector<double> SpecialDoubles() {
  return {
      0.0,
      -0.0,
      1.0,
      -1.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      FromBits(0x7FF8000000000001ULL),  // NaN, different payload
      FromBits(0xFFF8000000000123ULL),  // negative NaN
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1.5,                                   // exactly a float
      0.1,                                   // not a float
      static_cast<double>(std::numeric_limits<float>::max()),
      std::nextafter(1.0f, 2.0f),            // float boundary
  };
}

TEST(CodecTest, VarintRoundTrip) {
  const uint64_t cases[] = {0,   1,    127,        128,
                            300, 1u << 20, ~uint64_t{0}};
  for (uint64_t value : cases) {
    std::vector<uint8_t> bytes;
    AppendVarint(value, &bytes);
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(ReadVarint(bytes.data(), bytes.size(), &pos, &decoded).ok());
    EXPECT_EQ(decoded, value);
    EXPECT_EQ(pos, bytes.size());
    // Truncation errors rather than reading past the buffer.
    size_t short_pos = 0;
    EXPECT_FALSE(
        ReadVarint(bytes.data(), bytes.size() - 1, &short_pos, &decoded)
            .ok());
  }
}

TEST(CodecTest, ZigzagRoundTrip) {
  const int64_t cases[] = {0,  -1, 1,  -2, 2, std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max()};
  for (int64_t value : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(value)), value);
  }
  // Small magnitudes stay small — that is the point of the mapping.
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

void ExpectDeltaBitpackRoundTrip(const std::vector<int64_t>& values) {
  std::vector<uint8_t> bytes;
  EncodeDeltaBitpack(values.data(), values.size(), &bytes);
  std::vector<int64_t> decoded(values.size());
  ASSERT_TRUE(
      DecodeDeltaBitpack(bytes.data(), bytes.size(), values.size(),
                         decoded.data())
          .ok());
  EXPECT_EQ(decoded, values);
}

TEST(CodecTest, DeltaBitpackRoundTrip) {
  ExpectDeltaBitpackRoundTrip({});
  ExpectDeltaBitpackRoundTrip({42});
  ExpectDeltaBitpackRoundTrip({7, 7, 7, 7, 7});  // constant: width 0
  ExpectDeltaBitpackRoundTrip({2016, 2016, 2017, 2018, 2020});
  ExpectDeltaBitpackRoundTrip({-5, 3, -1000000, 1000000, 0});
  // int64 extremes: deltas overflow the signed range and must still round
  // trip through the unsigned delta domain.
  ExpectDeltaBitpackRoundTrip({std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(),
                               std::numeric_limits<int64_t>::min()});
  Rng rng(17);
  std::vector<int64_t> timestamps(1000);
  int64_t t = 1577836800;  // 2020-01-01, monotone-ish with jitter
  for (int64_t& v : timestamps) {
    t += static_cast<int64_t>(rng.UniformInt(120));
    v = t;
  }
  ExpectDeltaBitpackRoundTrip(timestamps);
}

TEST(CodecTest, DeltaBitpackConstantColumnIsTiny) {
  std::vector<int64_t> values(4096, 2019);
  std::vector<uint8_t> bytes;
  EncodeDeltaBitpack(values.data(), values.size(), &bytes);
  // First value + width byte, nothing per row.
  EXPECT_LE(bytes.size(), 8u);
}

void ExpectRleDictionaryRoundTrip(const std::vector<int64_t>& values) {
  std::vector<uint8_t> bytes;
  EncodeRleDictionary(values.data(), values.size(), &bytes);
  std::vector<int64_t> decoded(values.size());
  ASSERT_TRUE(
      DecodeRleDictionary(bytes.data(), bytes.size(), values.size(),
                          decoded.data())
          .ok());
  EXPECT_EQ(decoded, values);
}

TEST(CodecTest, RleDictionaryRoundTrip) {
  ExpectRleDictionaryRoundTrip({});
  ExpectRleDictionaryRoundTrip({0});
  ExpectRleDictionaryRoundTrip(std::vector<int64_t>(513, 6));  // all equal
  ExpectRleDictionaryRoundTrip({1, 0, 1, 0, 1, 0, 1});  // alternating
  ExpectRleDictionaryRoundTrip({-3, 100, -3, -3, 100, 7});
  Rng rng(31);
  std::vector<int64_t> provinces(5000);
  for (int64_t& v : provinces) {
    v = static_cast<int64_t>(rng.UniformInt(31));
  }
  ExpectRleDictionaryRoundTrip(provinces);
}

TEST(CodecTest, RleDictionaryAllEqualIsTiny) {
  std::vector<int64_t> values(4096, 13);
  std::vector<uint8_t> bytes;
  EncodeRleDictionary(values.data(), values.size(), &bytes);
  // Dictionary {13} + one run.
  EXPECT_LE(bytes.size(), 8u);
}

void ExpectByteSplitRoundTrip(const std::vector<double>& values) {
  std::vector<uint8_t> bytes;
  EncodeByteStreamSplit(values.data(), values.size(), &bytes);
  std::vector<double> decoded(values.size());
  ASSERT_TRUE(
      DecodeByteStreamSplit(bytes.data(), bytes.size(), values.size(),
                            decoded.data())
          .ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameBits(values[i], decoded[i])) << "index " << i;
  }
}

TEST(CodecTest, ByteStreamSplitBitExact) {
  ExpectByteSplitRoundTrip({});
  ExpectByteSplitRoundTrip({3.25});
  ExpectByteSplitRoundTrip(SpecialDoubles());
  ExpectByteSplitRoundTrip(std::vector<double>(777, -0.0));  // all equal
  Rng rng(5);
  std::vector<double> gaussians(2048);
  for (double& v : gaussians) v = rng.Normal();
  ExpectByteSplitRoundTrip(gaussians);
}

TEST(CodecTest, QuantizedFloatDecodesToTheFloatImage) {
  std::vector<double> values = SpecialDoubles();
  Rng rng(11);
  for (int i = 0; i < 500; ++i) values.push_back(rng.Normal(0.0, 100.0));
  std::vector<uint8_t> bytes;
  EncodeQuantizedFloat(values.data(), values.size(), &bytes);
  std::vector<double> decoded(values.size());
  ASSERT_TRUE(
      DecodeQuantizedFloat(bytes.data(), bytes.size(), values.size(),
                           decoded.data())
          .ok());
  for (size_t i = 0; i < values.size(); ++i) {
    const double image =
        static_cast<double>(gbdt::QuantizeThreshold(values[i]));
    EXPECT_TRUE(SameBits(decoded[i], image) ||
                (std::isnan(decoded[i]) && std::isnan(image)))
        << "index " << i;
    // Idempotence: re-quantizing a decoded value changes nothing, so a
    // quantized store can be rewritten losslessly.
    const float requantized = gbdt::QuantizeThreshold(decoded[i]);
    const float once = gbdt::QuantizeThreshold(values[i]);
    EXPECT_TRUE((std::isnan(requantized) && std::isnan(once)) ||
                requantized == once)
        << "index " << i;
  }
}

TEST(CodecTest, DoubleDictionaryRoundTripAndRejection) {
  // Low-cardinality column with tricky symbols: distinct NaN payloads and
  // both zeros must survive as distinct dictionary entries.
  const std::vector<double> symbols = {0.0, -0.0, 1.0,
                                       FromBits(0x7FF8000000000001ULL),
                                       FromBits(0x7FF8000000000002ULL)};
  Rng rng(23);
  std::vector<double> values(3000);
  for (double& v : values) v = symbols[rng.UniformInt(symbols.size())];
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(
      TryEncodeDoubleDictionary(values.data(), values.size(), 8, &bytes));
  std::vector<double> decoded(values.size());
  ASSERT_TRUE(
      DecodeDoubleDictionary(bytes.data(), bytes.size(), values.size(),
                             decoded.data())
          .ok());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameBits(values[i], decoded[i])) << "index " << i;
  }

  // Too many distinct patterns: the encoder declines and writes nothing.
  std::vector<double> wide(100);
  for (size_t i = 0; i < wide.size(); ++i) wide[i] = static_cast<double>(i);
  std::vector<uint8_t> untouched;
  EXPECT_FALSE(
      TryEncodeDoubleDictionary(wide.data(), wide.size(), 8, &untouched));
  EXPECT_TRUE(untouched.empty());

  // Empty and 1-row chunks.
  std::vector<uint8_t> tiny;
  ASSERT_TRUE(TryEncodeDoubleDictionary(nullptr, 0, 8, &tiny));
  ASSERT_TRUE(DecodeDoubleDictionary(tiny.data(), tiny.size(), 0, nullptr)
                  .ok());
  tiny.clear();
  const double one = 0.25;
  ASSERT_TRUE(TryEncodeDoubleDictionary(&one, 1, 8, &tiny));
  double one_decoded = 0.0;
  ASSERT_TRUE(
      DecodeDoubleDictionary(tiny.data(), tiny.size(), 1, &one_decoded).ok());
  EXPECT_EQ(one_decoded, one);
}

// The serving-grid property: with grid = sorted unique QuantizeThreshold
// images of a threshold set, the decoded value must decide x <= t exactly
// as the original for every threshold t — as doubles (scalar kernel) and
// as quantized floats (SIMD kernel).
TEST(CodecTest, ServingGridPreservesEveryThresholdComparison) {
  Rng rng(47);
  std::vector<double> thresholds;
  for (int i = 0; i < 13; ++i) thresholds.push_back(rng.Normal());
  thresholds.push_back(0.0);
  thresholds.push_back(1.5);  // exactly a float
  std::vector<float> grid;
  for (double t : thresholds) grid.push_back(gbdt::QuantizeThreshold(t));
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::vector<double> values = SpecialDoubles();
  for (int i = 0; i < 2000; ++i) values.push_back(rng.Normal());
  // Values sitting exactly on thresholds (the tie cases splits care about).
  for (double t : thresholds) {
    values.push_back(t);
    values.push_back(static_cast<double>(gbdt::QuantizeThreshold(t)));
  }

  std::vector<uint8_t> bytes;
  EncodeServingGrid(values.data(), values.size(), grid, &bytes);
  std::vector<double> decoded(values.size());
  ASSERT_TRUE(DecodeServingGrid(bytes.data(), bytes.size(), values.size(),
                                grid, decoded.data())
                  .ok());

  for (size_t i = 0; i < values.size(); ++i) {
    const double x = values[i];
    const double g = decoded[i];
    const float xq = gbdt::QuantizeThreshold(x);
    const float gq = gbdt::QuantizeThreshold(g);
    for (double t : thresholds) {
      const float tq = gbdt::QuantizeThreshold(t);
      // The contract: the decoded value reproduces the quantized decision
      // `xq <= tq` — what the SIMD feature plane sees — in float space...
      EXPECT_EQ(xq <= tq, gq <= tq)
          << "value " << i << " vs threshold " << t << " (float space)";
      // ...and, being float-representable, decides identically under the
      // scalar kernel's raw double compare (the tree.h tie invariant).
      EXPECT_EQ(g <= t, gq <= tq)
          << "value " << i << " vs threshold " << t << " (double space)";
      // The raw comparison of the *original* double matches except when x
      // lies in the sub-float-ULP window above t — where the scalar and
      // SIMD kernels already disagree on uncompressed data (tree.h only
      // promises exactness for float-representable features).
      if ((x <= t) == (xq <= tq)) {
        EXPECT_EQ(x <= t, g <= t) << "value " << i << " vs threshold " << t;
      }
    }
  }

  // A handful of bits per value, not 64.
  EXPECT_LT(bytes.size(), values.size());
}

TEST(CodecTest, ServingGridEdgeShapes) {
  const std::vector<float> grid = {-1.0f, 0.5f, 2.0f};
  // Empty chunk.
  std::vector<uint8_t> bytes;
  EncodeServingGrid(nullptr, 0, grid, &bytes);
  ASSERT_TRUE(
      DecodeServingGrid(bytes.data(), bytes.size(), 0, grid, nullptr).ok());
  // One row above every threshold decodes to NaN (compares false against
  // every threshold, like the original).
  bytes.clear();
  const double big = 99.0;
  EncodeServingGrid(&big, 1, grid, &bytes);
  double decoded = 0.0;
  ASSERT_TRUE(
      DecodeServingGrid(bytes.data(), bytes.size(), 1, grid, &decoded).ok());
  EXPECT_TRUE(std::isnan(decoded));
  // Empty grid (feature the forest never splits on): everything maps to
  // the single interval and decodes to NaN.
  bytes.clear();
  const double any = 0.125;
  EncodeServingGrid(&any, 1, {}, &bytes);
  ASSERT_TRUE(
      DecodeServingGrid(bytes.data(), bytes.size(), 1, {}, &decoded).ok());
  EXPECT_TRUE(std::isnan(decoded));
}

TEST(CodecTest, TruncatedPayloadsError) {
  Rng rng(3);
  std::vector<int64_t> ints(100);
  for (int64_t& v : ints) v = static_cast<int64_t>(rng.UniformInt(1000));
  std::vector<double> doubles(100);
  for (double& v : doubles) v = rng.Normal();

  std::vector<uint8_t> bytes;
  EncodeDeltaBitpack(ints.data(), ints.size(), &bytes);
  std::vector<int64_t> iout(ints.size());
  EXPECT_FALSE(
      DecodeDeltaBitpack(bytes.data(), bytes.size() / 2, ints.size(),
                         iout.data())
          .ok());

  bytes.clear();
  EncodeRleDictionary(ints.data(), ints.size(), &bytes);
  EXPECT_FALSE(
      DecodeRleDictionary(bytes.data(), bytes.size() / 2, ints.size(),
                          iout.data())
          .ok());

  bytes.clear();
  EncodeByteStreamSplit(doubles.data(), doubles.size(), &bytes);
  std::vector<double> dout(doubles.size());
  EXPECT_FALSE(
      DecodeByteStreamSplit(bytes.data(), bytes.size() / 2, doubles.size(),
                            dout.data())
          .ok());
  // Trailing garbage is also rejected (a corrupt size field cannot make
  // the decoder silently mis-align).
  bytes.push_back(0xAB);
  EXPECT_FALSE(
      DecodeByteStreamSplit(bytes.data(), bytes.size(), doubles.size(),
                            dout.data())
          .ok());

  bytes.clear();
  const std::vector<float> grid = {0.0f, 1.0f};
  EncodeServingGrid(doubles.data(), doubles.size(), grid, &bytes);
  EXPECT_FALSE(DecodeServingGrid(bytes.data(), bytes.size() / 2,
                                 doubles.size(), grid, dout.data())
                   .ok());
}

// --- Length fields that would wrap a `pos + length > limit` check --------
// Each input below carries an untrusted length or count chosen so the sum
// wraps past 2^64. The decoder must turn it into a Status error.

// varint(2^64 - 1): nine 0xff continuation bytes, then 0x01.
std::vector<uint8_t> MaxVarint() {
  std::vector<uint8_t> bytes(9, 0xff);
  bytes.push_back(0x01);
  return bytes;
}

std::vector<uint8_t> Concat(
    std::initializer_list<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (const std::vector<uint8_t>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

TEST(CodecTest, ByteStreamPayloadLengthCannotWrap) {
  double out = 0.0;
  // Split stream 0 (RLE mode) claims a 2^64-1 byte payload. Wrapped, the
  // length check passed and the cursor stepped back onto the varint's last
  // byte, so the remaining seven streams parsed cleanly out of the same
  // bytes and the corrupt column decoded as OK.
  std::vector<uint8_t> rewinds =
      Concat({{0x01}, MaxVarint(), {0x02, 0x01, 0x01}});
  for (int s = 2; s < 8; ++s) {
    rewinds.insert(rewinds.end(), {0x01, 0x02, 0x00, 0x01});
  }
  const Status rewind =
      DecodeByteStreamSplit(rewinds.data(), rewinds.size(), 1, &out);
  EXPECT_EQ(rewind.code(), StatusCode::kIoError) << rewind.ToString();
  // The 13-byte form: the RLE run varint continues past the buffer
  // (a heap-buffer-overflow under ASan).
  const std::vector<uint8_t> overruns =
      Concat({{0x01}, MaxVarint(), {0x00, 0x81}});
  ASSERT_EQ(overruns.size(), 13u);
  const Status overrun =
      DecodeByteStreamSplit(overruns.data(), overruns.size(), 1, &out);
  EXPECT_EQ(overrun.code(), StatusCode::kIoError) << overrun.ToString();
}

TEST(CodecTest, ByteStreamRleRunCannotWrap) {
  // One RLE stream for a 2-row column: a run of 1, then a run of 2^64-1.
  // Wrapped, `produced + run` was 0 and the memset ran off the column.
  const std::vector<uint8_t> runs = Concat({{0x07, 0x01, 0x07}, MaxVarint()});
  const std::vector<uint8_t> bytes =
      Concat({{0x01, static_cast<uint8_t>(runs.size())}, runs});
  double out[2] = {0.0, 0.0};
  const Status status =
      DecodeByteStreamSplit(bytes.data(), bytes.size(), 2, out);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(CodecTest, RleDictionaryRunCannotWrap) {
  // 16 bytes: one symbol (0), RLE index mode, a run of 1 and a run of
  // 2^64-1. Wrapped, the second run wrote past the 2-row column.
  const std::vector<uint8_t> bytes =
      Concat({{0x01, 0x00, 0x00, 0x00, 0x01, 0x00}, MaxVarint()});
  ASSERT_EQ(bytes.size(), 16u);
  int64_t out[2] = {0, 0};
  const Status status =
      DecodeRleDictionary(bytes.data(), bytes.size(), 2, out);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST(CodecTest, DoubleDictionarySizeCannotWrap) {
  // 9 bytes: a dictionary of 2^61 doubles. 2^61 * 8 wraps to 0, so the
  // size check passed and the symbol table allocation threw
  // std::length_error through the Status API.
  std::vector<uint8_t> bytes(8, 0x80);
  bytes.push_back(0x20);  // bit 61
  double out = 0.0;
  const Status status =
      DecodeDoubleDictionary(bytes.data(), bytes.size(), 1, &out);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

}  // namespace
}  // namespace lightmirm::data
