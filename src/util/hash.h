// HashBytes: a fast 64-bit byte-string hash (FNV-1a with a wyhash-style
// final mix) for hot-path hash maps that would otherwise have to build a
// std::string key just to hash it — e.g. the general-DAG miner's table of
// distinct activity sets (util/id_set_table.h), keyed on sorted id vectors,
// and the text readers' name index (log/name_index.h). GrowTaggedSlots is
// the growth step both indexes share.
//
// Not cryptographic and not stable across releases; never persist these
// values to disk.

#ifndef PROCMINE_UTIL_HASH_H_
#define PROCMINE_UTIL_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace procmine {

inline uint64_t HashBytes(const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  // 8 bytes per round keeps the loop fast on long keys; the multiply mixes
  // the whole word, unlike canonical byte-at-a-time FNV.
  while (size >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0x100000001b3ull;
    p += 8;
    size -= 8;
  }
  while (size > 0) {
    h = (h ^ *p++) * 0x100000001b3ull;
    --size;
  }
  // Final avalanche (xor-shift multiply, wyhash/splitmix style): FNV alone
  // mixes poorly into the low bits that unordered_map buckets use.
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ull;
  h ^= h >> 32;
  return h;
}

/// Doubles (to at least 16) an open-addressing index of tagged slots, the
/// layout IdSetTable and NameIndex share: (tag << 32) | (entry + 1), 0 =
/// empty, linear probing from the home slot tag & mask, where the tag is
/// the high word of a HashBytes value. The tag picks the home slot, so
/// growing never rehashes a key.
inline void GrowTaggedSlots(std::vector<uint64_t>* slots) {
  std::vector<uint64_t> old = std::move(*slots);
  slots->assign(std::max<size_t>(16, 2 * old.size()), 0);
  const size_t mask = slots->size() - 1;
  for (uint64_t slot : old) {
    if (slot == 0) continue;
    size_t pos = (slot >> 32) & mask;
    while ((*slots)[pos] != 0) pos = (pos + 1) & mask;
    (*slots)[pos] = slot;
  }
}

}  // namespace procmine

#endif  // PROCMINE_UTIL_HASH_H_
