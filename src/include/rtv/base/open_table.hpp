// The interning table of the library's packed state arenas.
//
// An OpenTable maps hashes to dense int32 ids (0, 1, 2, ... in interning
// order) by open addressing with linear probing, starting at the high bits
// of the spread hash.  It stores ids only: the caller keeps the records in
// its own arena plus one hash per id, and decides equality with a
// `same(id)` predicate that compares a candidate against the arena.  Users:
// compose()'s product tuples and RefinedGraph's records and keys.
//
// The slots are allocated up front, so find() is a pure read: any number of
// threads may probe at once while nobody calls fill() or clear().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rtv/base/hash.hpp"

namespace rtv {

class OpenTable {
 public:
  OpenTable() : slots_(std::size_t{1} << kMinBits, -1) {}

  /// Slot of the first id `same` accepts on `h`'s probe sequence, or of the
  /// empty slot that ends it.
  template <typename Same>
  std::size_t find(std::size_t h, const Same& same) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_spread(h) >> (64 - bits_);
    while (slots_[i] >= 0 && !same(slots_[i])) i = (i + 1) & mask;
    return i;
  }

  /// Id in slot `i` (a find() result), or -1 if the slot is empty.
  std::int32_t at(std::size_t i) const { return slots_[i]; }

  /// Put `id` into empty slot `i`; rehash from `hashes` (one per id, `id`
  /// included) once the table is half full.
  void fill(std::size_t i, std::int32_t id,
            const std::vector<std::size_t>& hashes) {
    slots_[i] = id;
    if (2 * hashes.size() <= slots_.size()) return;
    ++bits_;
    slots_.assign(std::size_t{1} << bits_, -1);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t k = 0; k < hashes.size(); ++k) {
      std::size_t j = hash_spread(hashes[k]) >> (64 - bits_);
      while (slots_[j] >= 0) j = (j + 1) & mask;
      slots_[j] = static_cast<std::int32_t>(k);
    }
  }

  /// Forget every id, keeping the capacity.
  void clear() { std::fill(slots_.begin(), slots_.end(), -1); }

 private:
  static constexpr int kMinBits = 10;
  std::vector<std::int32_t> slots_;
  int bits_ = kMinBits;
};

}  // namespace rtv
