#include "util/coding.h"

#include <gtest/gtest.h>

#include <utility>

namespace procmine {
namespace {

TEST(VarintTest, RoundTripsRepresentativeValues) {
  for (uint64_t value : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull,
                         16384ull, (1ull << 32), ~0ull}) {
    std::string buf;
    PutVarint64(&buf, value);
    std::string_view cursor = buf;
    auto decoded = GetVarint64(&cursor);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(cursor.empty());
  }
}

TEST(VarintTest, EncodingLengths) {
  std::string buf;
  PutVarint64(&buf, 0);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  PutVarint64(&buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  PutVarint64(&buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  PutVarint64(&buf, ~0ull);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.pop_back();
  std::string_view cursor = buf;
  auto decoded = GetVarint64(&cursor);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(VarintTest, EmptyInputFails) {
  std::string_view cursor;
  EXPECT_FALSE(GetVarint64(&cursor).ok());
}

TEST(VarintTest, DecodeConsumesExactlyTheEncodedBytes) {
  // 0 and 127 take the inline one-byte path, 128 and ~0 the multi-byte
  // loop; each stops at its own last byte and leaves the next one.
  for (auto [value, length] : {std::pair{0ull, size_t{1}},
                               std::pair{127ull, size_t{1}},
                               std::pair{128ull, size_t{2}},
                               std::pair{~0ull, size_t{10}}}) {
    std::string buf;
    PutVarint64(&buf, value);
    ASSERT_EQ(buf.size(), length) << value;
    buf.push_back('\x05');
    std::string_view cursor = buf;
    auto decoded = GetVarint64(&cursor);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, value);
    EXPECT_EQ(cursor.size(), 1u) << value;
  }
}

TEST(VarintTest, TenthByteAboveOneOverflows) {
  // Nine continuation bytes carry bits 0..62; a 10th byte of 2 would set
  // bit 64, which a 64-bit value cannot hold.
  std::string buf(9, '\x80');
  buf.push_back('\x02');
  std::string_view cursor = buf;
  auto decoded = GetVarint64(&cursor);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "varint overflows 64 bits");
}

TEST(VarintTest, ElevenByteVarintFails) {
  std::string buf(9, '\x80');
  buf.push_back('\x81');  // bit 63, and a continuation into an 11th byte
  buf.push_back('\x00');
  std::string_view cursor = buf;
  auto decoded = GetVarint64(&cursor);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "varint longer than 10 bytes");
}

TEST(VarintTest, TruncatedMultiByteVarintFails) {
  for (uint64_t value : {128ull, 1ull << 40, ~0ull}) {
    std::string buf;
    PutVarint64(&buf, value);
    for (size_t keep = 1; keep < buf.size(); ++keep) {
      std::string_view cursor = std::string_view(buf).substr(0, keep);
      auto decoded = GetVarint64(&cursor);
      ASSERT_FALSE(decoded.ok()) << value << " kept " << keep;
      EXPECT_EQ(decoded.status().message(), "truncated varint");
    }
  }
}

TEST(ZigzagTest, MapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  EXPECT_EQ(ZigzagEncode(2), 4u);
}

TEST(ZigzagTest, RoundTripsExtremes) {
  for (int64_t value : {int64_t{0}, int64_t{-1}, int64_t{1}, INT64_MAX,
                        INT64_MIN, int64_t{-123456789}}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(value)), value);
  }
}

TEST(VarintSignedTest, RoundTrips) {
  for (int64_t value : {int64_t{0}, int64_t{-5}, int64_t{1000},
                        INT64_MIN, INT64_MAX}) {
    std::string buf;
    PutVarintSigned64(&buf, value);
    std::string_view cursor = buf;
    auto decoded = GetVarintSigned64(&cursor);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, value);
  }
}

TEST(Fixed32Test, LittleEndianLayout) {
  std::string buf;
  PutFixed32(&buf, 0x04030201u);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
  EXPECT_EQ(buf[2], 0x03);
  EXPECT_EQ(buf[3], 0x04);
  std::string_view cursor = buf;
  auto decoded = GetFixed32(&cursor);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 0x04030201u);
}

TEST(Fixed32Test, TruncatedFails) {
  std::string_view cursor("\x01\x02\x03", 3);
  EXPECT_FALSE(GetFixed32(&cursor).ok());
}

TEST(LengthPrefixedTest, RoundTripsIncludingEmbeddedNul) {
  std::string payload("a\0b", 3);
  std::string buf;
  PutLengthPrefixed(&buf, payload);
  std::string_view cursor = buf;
  auto decoded = GetLengthPrefixed(&cursor);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, payload);
  EXPECT_TRUE(cursor.empty());
}

TEST(LengthPrefixedTest, TruncatedPayloadFails) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(buf.size() - 2);
  std::string_view cursor = buf;
  EXPECT_FALSE(GetLengthPrefixed(&cursor).ok());
}

TEST(CodingTest, SequentialFieldsDecodeInOrder) {
  std::string buf;
  PutVarint64(&buf, 7);
  PutLengthPrefixed(&buf, "mid");
  PutVarintSigned64(&buf, -9);
  PutFixed32(&buf, 42);
  std::string_view cursor = buf;
  EXPECT_EQ(*GetVarint64(&cursor), 7u);
  EXPECT_EQ(*GetLengthPrefixed(&cursor), "mid");
  EXPECT_EQ(*GetVarintSigned64(&cursor), -9);
  EXPECT_EQ(*GetFixed32(&cursor), 42u);
  EXPECT_TRUE(cursor.empty());
}

}  // namespace
}  // namespace procmine
