// A small dynamic bitset used to encode boolean state vectors
// (circuit node valuations, STG markings, enabled-event sets).
//
// Header-only; optimised for the <= few-hundred-bit vectors this library
// manipulates.  Provides hashing and ordering so vectors can key hash maps
// during reachability analysis.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rtv/base/hash.hpp"

namespace rtv {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n_bits, bool value = false)
      : n_bits_(n_bits), words_((n_bits + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    trim();
  }

  std::size_t size() const { return n_bits_; }
  bool empty() const { return n_bits_ == 0; }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  bool operator[](std::size_t i) const { return test(i); }

  void set(std::size_t i, bool v = true) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }
  void reset(std::size_t i) { set(i, false); }
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  std::size_t count() const {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }
  bool none() const { return !any(); }

  /// True iff every set bit of this is also set in other.
  bool is_subset_of(const BitVec& other) const {
    for (std::size_t k = 0; k < words_.size(); ++k)
      if (words_[k] & ~other.words_[k]) return false;
    return true;
  }

  BitVec& operator|=(const BitVec& o) {
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] |= o.words_[k];
    return *this;
  }
  BitVec& operator&=(const BitVec& o) {
    for (std::size_t k = 0; k < words_.size(); ++k) words_[k] &= o.words_[k];
    return *this;
  }

  /// Iterate set bits, calling f(index).
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t k = 0; k < words_.size(); ++k) {
      std::uint64_t w = words_[k];
      while (w) {
        const int b = __builtin_ctzll(w);
        f(k * 64 + static_cast<std::size_t>(b));
        w &= w - 1;
      }
    }
  }

  std::string to_string() const {
    std::string s;
    s.reserve(n_bits_);
    for (std::size_t i = 0; i < n_bits_; ++i) s.push_back(test(i) ? '1' : '0');
    return s;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.n_bits_ == b.n_bits_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitVec& a, const BitVec& b) { return !(a == b); }
  friend bool operator<(const BitVec& a, const BitVec& b) {
    if (a.n_bits_ != b.n_bits_) return a.n_bits_ < b.n_bits_;
    return a.words_ < b.words_;
  }

  std::size_t hash() const {
    std::size_t h = n_bits_;
    for (auto w : words_) h = hash_mix(h, static_cast<std::size_t>(w));
    return h;
  }

 private:
  void trim() {
    const std::size_t extra = words_.size() * 64 - n_bits_;
    if (!words_.empty() && extra > 0) {
      words_.back() &= (~std::uint64_t{0}) >> extra;
    }
  }

  std::size_t n_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace rtv

namespace std {
template <>
struct hash<rtv::BitVec> {
  size_t operator()(const rtv::BitVec& v) const noexcept { return v.hash(); }
};
}  // namespace std
