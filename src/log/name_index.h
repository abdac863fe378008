// NameIndex: first-appearance ids for borrowed names.
//
// Every text front end dictionary-encodes instance and activity names while
// it scans: a name's id is its position in a name table of string_views
// that alias the input. NameIndex is that table's reverse index: an
// open-addressing array of (hash tag, id) slots, a power of two long, at
// most half full. A lookup hashes the name once with HashBytes and walks
// one probe sequence, comparing bytes only where the tags agree; the names
// themselves are never copied.

#ifndef PROCMINE_LOG_NAME_INDEX_H_
#define PROCMINE_LOG_NAME_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/hash.h"
#include "util/logging.h"

namespace procmine {

class NameIndex {
 public:
  /// Indexes the name table `*names`, which must start empty and is then
  /// appended to only through Intern. Borrowed; must outlive the index.
  explicit NameIndex(std::vector<std::string_view>* names) : names_(names) {}

  /// Returns the id of `name`, appending it to the table on first sight.
  int32_t Intern(std::string_view name) {
    if (2 * (names_->size() + 1) > slots_.size()) GrowTaggedSlots(&slots_);
    const uint64_t tag = Tag(name);
    uint64_t& slot = slots_[Probe(name, tag)];
    if (slot != 0) return Id(slot);
    PROCMINE_CHECK(names_->size() < INT32_MAX);
    slot = (tag << 32) | (names_->size() + 1);
    names_->push_back(name);
    return static_cast<int32_t>(names_->size() - 1);
  }

  /// Returns the id of `name`, or -1 if it was never interned.
  int32_t Find(std::string_view name) const {
    if (slots_.empty()) return -1;
    const uint64_t slot = slots_[Probe(name, Tag(name))];
    return slot == 0 ? -1 : Id(slot);
  }

 private:
  static uint64_t Tag(std::string_view name) {
    return HashBytes(name.data(), name.size()) >> 32;
  }
  static int32_t Id(uint64_t slot) {
    return static_cast<int32_t>((slot & UINT32_MAX) - 1);
  }

  /// The slot holding `name`, or the empty slot that ends its probe
  /// sequence.
  size_t Probe(std::string_view name, uint64_t tag) const {
    const size_t mask = slots_.size() - 1;
    for (size_t pos = tag & mask;; pos = (pos + 1) & mask) {
      const uint64_t slot = slots_[pos];
      if (slot == 0) return pos;
      if ((slot >> 32) == tag &&
          (*names_)[static_cast<size_t>(Id(slot))] == name) {
        return pos;
      }
    }
  }

  std::vector<std::string_view>* names_;
  /// (tag << 32) | (id + 1); 0 = empty.
  std::vector<uint64_t> slots_;
};

}  // namespace procmine

#endif  // PROCMINE_LOG_NAME_INDEX_H_
