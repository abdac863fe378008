// CRC-32C (Castagnoli) checksums, used to detect corruption in the binary
// log format. Portable software slicing-by-8: eight table lookups per eight
// bytes, one per byte for the tail.

#ifndef PROCMINE_UTIL_CRC32C_H_
#define PROCMINE_UTIL_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace procmine {

/// Extends `crc` with `data`; start from 0 for a fresh checksum.
uint32_t Crc32c(uint32_t crc, std::string_view data);

/// Checksum of `data` from scratch.
inline uint32_t Crc32c(std::string_view data) { return Crc32c(0, data); }

}  // namespace procmine

#endif  // PROCMINE_UTIL_CRC32C_H_
