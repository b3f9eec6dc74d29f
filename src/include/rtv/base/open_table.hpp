// The interning table of the library's packed state records.
//
// A RecordTable<T> owns its records: one arena of T holding them back to
// back, each record's hash and offset side by side, and the slots that map
// hashes to dense int32 ids (0, 1, 2, ... in insertion order) by open
// addressing with linear probing, starting at the high bits of the spread
// hash.  hash() is the one record hash and the table's own comparison the
// one equality, for every record it holds.  Users: the circuit elaborator's
// valuations, compose()'s product tuples, the discrete engine's digitized
// configs and RefinedGraph's records and keys.
//
// probe() and find() are pure reads: any number of threads may probe at
// once while nobody calls insert() or clear().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtv/base/hash.hpp"

namespace rtv {

template <typename T>
class RecordTable {
  static_assert(std::has_unique_object_representations_v<T> &&
                    8 % sizeof(T) == 0,
                "records are hashed as bytes");

 public:
  /// Where a record's probe ended: at its id, or (id -1) at the empty slot
  /// where insert() puts it.
  struct Probe {
    std::size_t slot;
    std::int32_t id;
  };

  RecordTable() : slots_(std::size_t{1} << kMinBits, -1) {}

  /// The one record hash: the length, then the record's bytes 8 at a time
  /// (a shorter tail zero-padded).
  static std::size_t hash(const T* rec, std::size_t n) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(rec);
    const std::size_t size = n * sizeof(T);
    std::size_t h = n;
    std::size_t i = 0;
    for (; i + 8 <= size; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, bytes + i, 8);
      h = hash_mix(h, w);
    }
    if (i < size) {
      std::uint64_t w = 0;
      for (int shift = 0; i < size; ++i, shift += 8)
        w |= std::uint64_t{bytes[i]} << shift;
      h = hash_mix(h, w);
    }
    return h;
  }

  /// Probe for rec[0, n), hashed `h`.
  Probe probe(const T* rec, std::size_t n, std::size_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_spread(h) >> (64 - bits_);
    for (std::int32_t id; (id = slots_[i]) >= 0; i = (i + 1) & mask) {
      const Entry* e = entries_.data() + id;
      if (e->hash == h && e[1].offset - e->offset == n &&
          std::equal(rec, rec + n, arena_.data() + e->offset))
        return {i, id};
    }
    return {i, -1};
  }

  /// Id of rec[0, n), hashed `h`, or -1 if it was never inserted.
  std::int32_t find(const T* rec, std::size_t n, std::size_t h) const {
    return probe(rec, n, h).id;
  }

  /// Append rec[0, n), hashed `h`, as the next id at `p`: a probe() for
  /// the same record that found none, with no insert() since.  Returns the
  /// new id.
  std::int32_t insert(Probe p, const T* rec, std::size_t n, std::size_t h) {
    const auto id = static_cast<std::int32_t>(size());
    entries_.back().hash = h;
    arena_.insert(arena_.end(), rec, rec + n);
    entries_.push_back({0, arena_.size()});
    slots_[p.slot] = id;
    if (2 * size() > slots_.size()) grow();
    return id;
  }

  std::span<const T> record(std::int32_t id) const {
    const Entry* e = entries_.data() + id;
    return {arena_.data() + e->offset, e[1].offset - e->offset};
  }

  std::size_t size() const { return entries_.size() - 1; }

  /// Forget every record, keeping the slot capacity.
  void clear() {
    arena_.clear();
    entries_.assign(1, {0, 0});
    std::fill(slots_.begin(), slots_.end(), -1);
  }

  /// Move the arena (every record back to back, in id order) out, leaving
  /// the table empty.
  std::vector<T> release() {
    std::vector<T> records = std::move(arena_);
    clear();
    return records;
  }

 private:
  static constexpr int kMinBits = 10;

  /// A record's hash() and arena offset; it ends where the next entry's
  /// offset starts.
  struct Entry {
    std::size_t hash;
    std::size_t offset;
  };

  /// Double the slots and re-place every id from its stored hash.
  void grow() {
    ++bits_;
    slots_.assign(std::size_t{1} << bits_, -1);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t k = 0; k < size(); ++k) {
      std::size_t j = hash_spread(entries_[k].hash) >> (64 - bits_);
      while (slots_[j] >= 0) j = (j + 1) & mask;
      slots_[j] = static_cast<std::int32_t>(k);
    }
  }

  std::vector<T> arena_;
  /// One per record, then one whose offset is the arena's end.
  std::vector<Entry> entries_{{0, 0}};
  std::vector<std::int32_t> slots_;
  int bits_ = kMinBits;
};

}  // namespace rtv
