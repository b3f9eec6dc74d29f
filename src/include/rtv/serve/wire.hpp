// Wire format of the `rtv serve` verification service.
//
// The protocol is line-delimited JSON over a Unix-domain stream socket:
// one request per line, one response line per request, every message
// schema-versioned and strictly parsed (a document written by a newer
// library fails loudly, naming both versions — no best-effort skew).
//
// A request carries complete obligations — full module content (states,
// events, delays, transitions, valuations) plus *declarative* property
// specs — so the daemon can content-hash exactly what it is asked and
// answer repeats from the verdict cache.  Responses embed the standard
// schema-versioned SuiteReport (rtv/verify/suite.hpp) with the
// serve-specific `cached` marker per record.
//
// Properties travel as PropertySpec, not as polymorphic SafetyProperty
// objects: the three built-in property families are closed under a small
// declarative description, which is what makes them hashable and
// transportable at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rtv/base/json.hpp"
#include "rtv/ts/module.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::serve {

// ---------------------------------------------------------------------------
// Declarative properties.
// ---------------------------------------------------------------------------

/// Serializable description of one safety property; instantiate() builds
/// the checker object.  Covers the library's three built-in families.
struct PropertySpec {
  enum class Kind {
    kDeadlockFreedom,
    kPersistency,
    kInvariant,
  };

  struct Literal {
    std::string signal;
    bool value = true;

    friend bool operator==(const Literal&, const Literal&) = default;
  };

  Kind kind = Kind::kDeadlockFreedom;
  /// Invariant only: the property's reported name.
  std::string name;
  /// Invariant only: the forbidden conjunction of signal literals.
  std::vector<Literal> literals;
  /// Persistency only: event labels exempt from the persistency check.
  std::vector<std::string> exempt;

  static PropertySpec deadlock();
  static PropertySpec persistency(std::vector<std::string> exempt = {});
  static PropertySpec invariant(std::string name, std::vector<Literal> lits);

  std::unique_ptr<SafetyProperty> instantiate() const;

  friend bool operator==(const PropertySpec&, const PropertySpec&) = default;
};

const char* to_string(PropertySpec::Kind kind);

// ---------------------------------------------------------------------------
// Obligations and requests.
// ---------------------------------------------------------------------------

/// One wire obligation with owned storage.  Zero-valued budget fields
/// inherit the request-level defaults (resolved by the daemon before
/// hashing, so "explicit 500" and "inherited 500" share a cache entry).
struct WireObligation {
  std::string name;
  std::deque<Module> modules;  ///< deque: stable addresses for Obligation
  std::vector<PropertySpec> properties;
  std::size_t max_states = 0;   ///< 0 = request default
  double max_seconds = 0.0;     ///< 0 = request default
  std::size_t max_refinements = 0;  ///< 0 = request default
  bool track_chokes = true;
  /// Batch mode only: run this engine instead of the request selection.
  std::string engine;

  std::vector<const Module*> module_ptrs() const;
  /// The suite Obligation over this one: its modules, its properties
  /// instantiated into `properties` (which must outlive the view), and
  /// its overrides mapped onto Obligation's inherit defaults.
  Obligation obligation(
      std::vector<std::unique_ptr<SafetyProperty>>& properties) const;
};

enum class RequestKind {
  kVerify,    ///< check the carried obligations
  kPing,      ///< liveness probe
  kStats,     ///< server + cache counters
  kMetrics,   ///< full metrics registry, Prometheus text exposition
  kShutdown,  ///< persist the cache and stop the daemon
};

const char* to_string(RequestKind kind);

/// Longest request line the daemon reads, newline excluded: 64 MiB.  One
/// Table 1 obligation is about 425 KB on the wire, all five about 1.7 MB.
/// A longer line is answered ok:false and its connection closed.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

struct ServeRequest {
  /// Bumped whenever the wire layout changes incompatibly.
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "rtv-serve-request";

  RequestKind kind = RequestKind::kVerify;
  SuiteMode mode = SuiteMode::kBatch;
  /// Engine selection; empty = the run_suite default for the mode
  /// ({"refine"} in batch, every registered engine in portfolio).
  std::vector<std::string> engines;
  /// Request-wide budget defaults, overridable per obligation.
  std::size_t max_states = 0;
  double max_seconds = 0.0;
  std::size_t max_refinements = 500;
  std::vector<WireObligation> obligations;

  /// One line, no embedded newlines.
  std::string to_json() const;
  /// Throws std::runtime_error on malformed input, a wrong schema tag, or
  /// an unsupported schema version (named in the error).
  static ServeRequest parse(const std::string& line);
};

// ---------------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------------

/// Server-side counters, serialized in stats responses.
struct ServeStats {
  std::uint64_t requests = 0;        ///< protocol messages handled
  std::uint64_t obligations = 0;     ///< obligations across verify requests
  std::uint64_t cache_hits = 0;      ///< answered straight from the cache
  std::uint64_t deduped = 0;         ///< computed by a twin after a miss
  std::uint64_t computed = 0;        ///< actually dispatched to run_suite
  std::uint64_t lint_rejected = 0;   ///< fast-rejected by the lint pre-flight
  std::uint64_t errors = 0;          ///< requests answered ok:false
  std::uint64_t cache_entries = 0;   ///< current resident cache entries
  std::uint64_t cache_evictions = 0;
  double uptime_seconds = 0.0;
  std::uint64_t jobs = 0;            ///< the daemon's global worker budget
};

struct ServeResponse {
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "rtv-serve-response";

  bool ok = false;
  std::string error;  ///< non-empty iff !ok
  /// Engaged for verify responses: the standard SuiteReport, records
  /// carrying the `cached` marker.
  bool has_report = false;
  SuiteReport report;
  /// Engaged for stats responses.
  bool has_stats = false;
  ServeStats stats;
  /// Engaged for metrics responses: the daemon's full metrics registry in
  /// Prometheus text-exposition format (carried as a JSON string).
  std::string metrics_text;
  /// Engaged for stats responses when the daemon has metrics enabled: the
  /// flat JSON snapshot of the daemon's registry (rtv::obs::append_json),
  /// spliceable into machine-readable stats output.
  std::string metrics_json;

  std::string to_json() const;
  static ServeResponse parse(const std::string& line);
};

/// Append the stats counters as a JSON object (shared by the wire response
/// serializer and `rtv client --stats --json`).
void stats_to_json(std::string& out, const ServeStats& s);

// ---------------------------------------------------------------------------
// Module serialization (also reused by tests and tools).
// ---------------------------------------------------------------------------

/// Append the module's full content as a JSON object (single line).
void module_to_json(std::string& out, const Module& m);

/// Rebuild a module from module_to_json() output; throws
/// std::runtime_error on malformed/mistyped content.
Module module_from_json(const rtv::json::Value& v);

/// Parse one property spec / serialize one property spec.
void property_to_json(std::string& out, const PropertySpec& spec);
PropertySpec property_from_json(const rtv::json::Value& v);

}  // namespace rtv::serve
