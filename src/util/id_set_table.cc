#include "util/id_set_table.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace procmine {

void IdSetTable::Merge(const IdSetTable& other) {
  inserted_ += other.inserted_;
  for (size_t i = 0; i < other.size(); ++i) Add(other[i]);
}

bool IdSetTable::Add(std::span<const int32_t> ids) {
  // Load factor stays at or below one half.
  if (2 * (size() + 1) > slots_.size()) GrowTaggedSlots(&slots_);
  const uint64_t tag = HashBytes(ids.data(), ids.size_bytes()) >> 32;
  const size_t mask = slots_.size() - 1;
  for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
    const uint64_t slot = slots_[pos];
    if (slot == 0) {
      PROCMINE_CHECK(size() < UINT32_MAX);
      slots_[pos] = (tag << 32) | (size() + 1);
      break;
    }
    if ((slot >> 32) == tag) {
      std::span<const int32_t> entry = (*this)[(slot & UINT32_MAX) - 1];
      if (std::equal(entry.begin(), entry.end(), ids.begin(), ids.end())) {
        return false;
      }
    }
  }
  pool_.insert(pool_.end(), ids.begin(), ids.end());
  offsets_.push_back(pool_.size());
  return true;
}

}  // namespace procmine
