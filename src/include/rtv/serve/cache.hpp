// The content-addressed verdict cache behind `rtv serve`.
//
// Key: a 128-bit FNV-1a digest (two domain-separated 64-bit runs) of the
// *semantic* content of one obligation —
//
//   (mode, resolved engine selection, resolved budget
//    [max_states, max_seconds, max_refinements, track_chokes],
//    property specs, module contents in composition order)
//
// — computed by obligation_cache_key().  Obligation *names*, worker counts
// and cancellation/progress plumbing are deliberately excluded: renaming
// an obligation or changing --jobs must not invalidate a verdict (the
// parallel substrate guarantees jobs-independent verdicts), while any
// budget change *must* miss — a cached Inconclusive at a small budget can
// never answer a bigger-budget request.
//
// Value: the obligation's full record set (one SuiteRecord per engine the
// request ran), so a hit replays the exact SuiteReport rows with
// `cached: true`.
//
// The store is in-memory, LRU-evicted past a configurable entry cap, and
// persists to a versioned JSON file that survives daemon restarts; load()
// rejects corrupt documents and any schema-version mismatch loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtv/base/hash.hpp"
#include "rtv/serve/wire.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::serve {

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  std::string hex() const;
  /// Inverse of hex(); throws std::runtime_error on malformed input.
  static CacheKey from_hex(const std::string& s);

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ hash_spread(k.lo));
  }
};

/// The canonical content hash of one obligation (see the header comment
/// for exactly what is and is not covered), from its front end
/// (rtv/verify/suite.hpp): the resolved engines and budget it carries and
/// the modules of its slice.  `fe` must be front_end() of `ob`'s
/// obligation view under the request's options; nothing is resolved,
/// instantiated or sliced here.
CacheKey obligation_cache_key(const WireObligation& ob, SuiteMode mode,
                              const FrontEnd& fe);

/// The same key from request-level values: `engines` the selection (an
/// unregistered name throws std::invalid_argument) and the budget
/// defaults, which `ob`'s own overrides win over as in the daemon.
/// Computes the front end itself (slice only, no lint).
CacheKey obligation_cache_key(const WireObligation& ob, SuiteMode mode,
                              const std::vector<std::string>& engines,
                              std::size_t max_states, double max_seconds,
                              std::size_t max_refinements);

// ---------------------------------------------------------------------------
// Cached outcomes
// ---------------------------------------------------------------------------

/// One obligation's records.  Only content is kept and persisted: engine,
/// verdict, stop reason, message, trace, states, the original wall and CPU
/// seconds, winner.  The obligation name, the cached flag and the lint and
/// slice facts belong to each serving request, and engine stats stay out.
struct CachedOutcome {
  std::vector<SuiteRecord> records;
};

/// Storage policy: an outcome may enter the cache unless its records are
/// tainted by execution accidents that the key cannot capture — a
/// cancellation without a deciding winner (portfolio losers cancelled *by*
/// a winner are fine: they are part of the deterministic outcome) or an
/// engine error (possibly environmental, e.g. out of memory).  Budget
/// truncation (state budget, deadline) IS cacheable: the budget is part of
/// the key, so the same question gets the same honest Inconclusive.
bool cacheable(const CachedOutcome& outcome);

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

class VerdictCache {
 public:
  /// On-disk format version; load() rejects any mismatch.
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "rtv-verdict-cache";

  /// `max_entries` caps the resident entry count; inserting past it evicts
  /// least-recently-used entries (0 is clamped to 1).
  explicit VerdictCache(std::size_t max_entries = 4096);

  /// Hit: copies the outcome into *out, refreshes recency, returns true.
  bool get(const CacheKey& key, CachedOutcome* out);
  /// Insert or overwrite; evicts LRU entries past the cap.
  void put(const CacheKey& key, CachedOutcome outcome);

  std::size_t size() const;
  std::size_t max_entries() const { return max_entries_; }
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

  /// Serialize every entry (least-recently-used first, so a load replays
  /// recency) to a versioned JSON document.
  std::string to_json() const;
  /// Replace the contents from a to_json() document.  Throws
  /// std::runtime_error on malformed JSON, a wrong schema tag, or ANY
  /// schema-version mismatch (both directions, version named in the
  /// error): a stale or corrupt cache must never be half-loaded.
  void load_json(const std::string& text);

  /// Atomic save (temp file + rename); throws std::runtime_error on I/O
  /// failure.
  void save(const std::string& path) const;
  /// load_json() from a file; throws on I/O failure or rejected content.
  void load(const std::string& path);

 private:
  void evict_to_cap_locked();

  mutable std::mutex mutex_;
  std::size_t max_entries_;
  /// Front = least recently used, back = most recently used.
  std::list<std::pair<CacheKey, CachedOutcome>> lru_;
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash> map_;
  Stats stats_;
};

}  // namespace rtv::serve
