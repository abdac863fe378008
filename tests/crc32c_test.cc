#include "util/crc32c.h"

#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "util/random.h"

namespace procmine {
namespace {

// The byte-at-a-time definition of CRC-32C, bit by bit: the oracle for the
// sliced implementation.
uint32_t ByteLoopCrc32c(uint32_t crc, std::string_view data) {
  crc = ~crc;
  for (char c : data) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, StandardCheckValue) {
  // The canonical CRC-32C check vector.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) appendix test patterns.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8a9136aau);
  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs), 0x62a8ab43u);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  uint32_t original = Crc32c(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = data;
      corrupted[byte] = static_cast<char>(corrupted[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(corrupted), original)
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  std::string a = "hello ";
  std::string b = "world";
  uint32_t one_shot = Crc32c(a + b);
  uint32_t incremental = Crc32c(Crc32c(a), b);
  EXPECT_EQ(incremental, one_shot);
}

TEST(Crc32cTest, MatchesByteLoopAtEveryLengthAndOffset) {
  Rng rng(32);
  std::string buffer(8 + 300, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      ASSERT_EQ(Crc32c(data), ByteLoopCrc32c(0, data))
          << "offset " << offset << " length " << length;
      // Chained: extend a running CRC by the data in two calls.
      const uint32_t seed = ByteLoopCrc32c(0, buffer.substr(0, offset));
      const size_t split = length % 13;
      const uint32_t chained =
          Crc32c(Crc32c(seed, data.substr(0, split)), data.substr(split));
      ASSERT_EQ(chained, ByteLoopCrc32c(seed, data))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32cTest, OrderSensitive) {
  EXPECT_NE(Crc32c("ab"), Crc32c("ba"));
}

}  // namespace
}  // namespace procmine
