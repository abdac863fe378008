// Varint / zigzag encoding primitives for the binary log format
// (LevelDB/RocksDB-style coding).

#ifndef PROCMINE_UTIL_CODING_H_
#define PROCMINE_UTIL_CODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/result.h"

namespace procmine {

/// Appends an unsigned LEB128 varint (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t value);

/// Zigzag-maps a signed value so small magnitudes stay short, then varints.
void PutVarintSigned64(std::string* dst, int64_t value);

/// Appends a fixed-width little-endian 32-bit value.
void PutFixed32(std::string* dst, uint32_t value);

/// Appends length-prefixed bytes.
void PutLengthPrefixed(std::string* dst, std::string_view bytes);

/// Zigzag mapping helpers (exposed for tests).
inline uint64_t ZigzagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}
inline int64_t ZigzagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

namespace coding_internal {
/// The multi-byte (and empty-input) case of GetVarint64.
Result<uint64_t> GetVarint64Slow(std::string_view* cursor);
}  // namespace coding_internal

/// Cursor-based decoder; each Get* advances `*cursor` on success and fails
/// with DataLoss on truncated or malformed input, including a varint whose
/// value does not fit in 64 bits.
///
/// Most values in the column blocks (activity ids, durations, small deltas)
/// fit in one byte, so that case is decoded inline.
inline Result<uint64_t> GetVarint64(std::string_view* cursor) {
  if (!cursor->empty()) {
    const auto byte = static_cast<uint8_t>(cursor->front());
    if (byte < 0x80) {
      cursor->remove_prefix(1);
      return uint64_t{byte};
    }
  }
  return coding_internal::GetVarint64Slow(cursor);
}

inline Result<int64_t> GetVarintSigned64(std::string_view* cursor) {
  PROCMINE_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(cursor));
  return ZigzagDecode(raw);
}

Result<uint32_t> GetFixed32(std::string_view* cursor);
Result<std::string_view> GetLengthPrefixed(std::string_view* cursor);

}  // namespace procmine

#endif  // PROCMINE_UTIL_CODING_H_
