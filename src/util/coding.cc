#include "util/coding.h"

namespace procmine {

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

void PutVarintSigned64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigzagEncode(value));
}

void PutFixed32(std::string* dst, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    dst->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void PutLengthPrefixed(std::string* dst, std::string_view bytes) {
  PutVarint64(dst, bytes.size());
  dst->append(bytes);
}

namespace coding_internal {

Result<uint64_t> GetVarint64Slow(std::string_view* cursor) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (cursor->empty()) return Status::DataLoss("truncated varint");
    uint8_t byte = static_cast<uint8_t>(cursor->front());
    cursor->remove_prefix(1);
    // The 10th byte carries bit 63 alone; anything above it would be
    // shifted out and decode to a wrong value.
    if (shift == 63 && (byte & 0x7f) > 1) {
      return Status::DataLoss("varint overflows 64 bits");
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  return Status::DataLoss("varint longer than 10 bytes");
}

}  // namespace coding_internal

Result<uint32_t> GetFixed32(std::string_view* cursor) {
  if (cursor->size() < 4) return Status::DataLoss("truncated fixed32");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>((*cursor)[i]))
             << (8 * i);
  }
  cursor->remove_prefix(4);
  return value;
}

Result<std::string_view> GetLengthPrefixed(std::string_view* cursor) {
  PROCMINE_ASSIGN_OR_RETURN(uint64_t length, GetVarint64(cursor));
  if (cursor->size() < length) {
    return Status::DataLoss("truncated length-prefixed field");
  }
  std::string_view bytes = cursor->substr(0, length);
  cursor->remove_prefix(length);
  return bytes;
}

}  // namespace procmine
