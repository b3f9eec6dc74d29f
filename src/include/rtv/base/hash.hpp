// One hashing idiom for the whole library.
//
// Three primitives cover every hashing need in the tree:
//
//   * mix(h, v)      — the splitmix-style combine used by every state/tuple
//                      hash (RecordTable's record hash, bit vectors).
//                      Order-sensitive.
//   * spread(h)      — a single golden-ratio multiply turning a possibly
//                      clustered hash into well-distributed high bits (the
//                      open-addressing table starts its probes there).
//   * Fnv1a          — an incremental FNV-1a byte hasher for *content*
//                      hashes that must be stable across runs and across
//                      processes: cache keys, report fingerprints.  Feed it
//                      typed values (u64/i64/str/...) so the encoding is
//                      unambiguous — every value is length- or
//                      width-delimited, so "ab","c" never collides with
//                      "a","bc".
//
// In-memory hashes (mix/spread) may differ between platforms via
// std::hash; Fnv1a digests are platform-independent by construction and
// safe to persist.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rtv {

/// Splitmix-style order-sensitive combine: fold `v` into the running hash
/// `h`.  This is the one combine used by the library's hot-loop state
/// hashes.
constexpr std::size_t hash_mix(std::size_t h, std::size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

/// Golden-ratio multiply: redistributes a clustered hash so its *high*
/// bits are usable (open-addressing probes).
constexpr std::uint64_t hash_spread(std::uint64_t h) {
  return h * 0x9e3779b97f4a7c15ull;
}

/// Incremental 64-bit FNV-1a over a typed byte stream.  Deterministic
/// across platforms and runs; use for content-addressed keys and
/// fingerprints, not for hot-loop hashing (mix() is cheaper).
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  constexpr Fnv1a() = default;
  /// Domain-separated hasher: the seed folds in first, so two hashers with
  /// different seeds never agree by construction.
  constexpr explicit Fnv1a(std::uint64_t seed) { u64(seed); }

  constexpr Fnv1a& byte(unsigned char b) {
    state_ = (state_ ^ b) * kPrime;
    return *this;
  }

  /// Fixed-width little-endian encoding: width-delimited by construction.
  constexpr Fnv1a& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  constexpr Fnv1a& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  constexpr Fnv1a& u32(std::uint32_t v) { return u64(v); }
  constexpr Fnv1a& boolean(bool v) { return byte(v ? 1 : 0); }

  /// Length-prefixed, so consecutive strings cannot alias each other.
  constexpr Fnv1a& str(std::string_view s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
    return *this;
  }

  /// Bit-exact double encoding (NaNs collapse per their bit pattern).
  Fnv1a& f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }

  constexpr std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

}  // namespace rtv
