#include "rtv/serve/cache.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rtv/analysis/slice.hpp"
#include "rtv/base/json.hpp"
#include "rtv/verify/obligation_hash.hpp"

namespace rtv::serve {

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

std::string CacheKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

CacheKey CacheKey::from_hex(const std::string& s) {
  if (s.size() != 32 || s.find_first_not_of("0123456789abcdef") != s.npos)
    throw std::runtime_error("verdict cache: malformed cache key '" + s + "'");
  CacheKey k;
  k.hi = std::stoull(s.substr(0, 16), nullptr, 16);
  k.lo = std::stoull(s.substr(16), nullptr, 16);
  return k;
}

namespace {

/// Feed the full canonical content into one hasher.  Both halves of the
/// 128-bit key hash the same stream; only the domain seed differs.  The
/// module stream is the *sliced canonical reduced form* — the modules the
/// engines actually verify, in content-hash order — so semantically-equal
/// obligations (e.g. one padded with out-of-cone modules) share an entry.
void feed_obligation(Fnv1a& h, const WireObligation& ob, SuiteMode mode,
                     const FrontEnd& fe,
                     const std::vector<const Module*>& canonical_modules) {
  h.str("rtv-obligation-v3");
  h.str(rtv::to_string(mode));
  h.u64(fe.engines.size());
  for (const std::string& e : fe.engines) h.str(e);
  hash_budget(h, fe.budget, fe.max_refinements, ob.track_chokes);
  h.u64(ob.properties.size());
  for (const PropertySpec& p : ob.properties) {
    h.str(to_string(p.kind));
    h.str(p.name);
    h.u64(p.literals.size());
    for (const PropertySpec::Literal& l : p.literals) {
      h.str(l.signal);
      h.boolean(l.value);
    }
    h.u64(p.exempt.size());
    for (const std::string& e : p.exempt) h.str(e);
  }
  h.u64(canonical_modules.size());
  for (const Module* m : canonical_modules) hash_module(h, *m);
}

}  // namespace

CacheKey obligation_cache_key(const WireObligation& ob, SuiteMode mode,
                              const FrontEnd& fe) {
  // A bailed-out slice is the identity, so its modules are the
  // obligation's own: the key addresses what the engines verify.
  const std::vector<const Module*> canonical =
      analysis::canonical_order(fe.slice.modules);
  CacheKey key;
  Fnv1a a(0x6b65792d68690000ull);  // "key-hi" domain
  Fnv1a b(0x6b65792d6c6f0000ull);  // "key-lo" domain
  feed_obligation(a, ob, mode, fe, canonical);
  feed_obligation(b, ob, mode, fe, canonical);
  key.hi = a.digest();
  key.lo = b.digest();
  return key;
}

CacheKey obligation_cache_key(const WireObligation& ob, SuiteMode mode,
                              const std::vector<std::string>& engines,
                              std::size_t max_states, double max_seconds,
                              std::size_t max_refinements) {
  std::vector<std::unique_ptr<SafetyProperty>> properties;
  SuiteOptions so;
  so.mode = mode;
  so.engines = engines;
  so.budget.max_states = max_states;
  so.budget.max_seconds = max_seconds;
  so.max_refinements = max_refinements;
  so.preflight = false;  // the key needs the slice, not the lint
  return obligation_cache_key(ob, mode,
                              front_end(ob.obligation(properties), so));
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

bool cacheable(const CachedOutcome& outcome) {
  if (outcome.records.empty()) return false;
  bool has_winner = false;
  for (const SuiteRecord& r : outcome.records)
    if (r.winner) has_winner = true;
  for (const SuiteRecord& r : outcome.records) {
    const std::string& stop = r.result.truncated_reason;
    if (stop == stop_reason::kEngineError) return false;
    // The daemon answers lint rejections without the cache; should one
    // reach it anyway, it must not displace a computable entry.
    if (stop == stop_reason::kLintError) return false;
    if (stop == stop_reason::kCancelled && !has_winner) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

VerdictCache::VerdictCache(std::size_t max_entries)
    : max_entries_(max_entries ? max_entries : 1) {}

bool VerdictCache::get(const CacheKey& key, CachedOutcome* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.end(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  if (out) *out = it->second->second;
  return true;
}

void VerdictCache::put(const CacheKey& key, CachedOutcome outcome) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = std::move(outcome);
    lru_.splice(lru_.end(), lru_, it->second);
    return;
  }
  lru_.emplace_back(key, std::move(outcome));
  map_.emplace(key, std::prev(lru_.end()));
  ++stats_.insertions;
  evict_to_cap_locked();
}

void VerdictCache::evict_to_cap_locked() {
  while (lru_.size() > max_entries_) {
    map_.erase(lru_.front().first);
    lru_.pop_front();
    ++stats_.evictions;
  }
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void VerdictCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  map_.clear();
}

VerdictCache::Stats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

using rtv::json::append_double;
using rtv::json::append_string;
using rtv::json::append_uint;
using rtv::json::Value;
using Kind = Value::Kind;

constexpr std::string_view kCacheContext = "verdict cache JSON";

const Value& require(const Value& obj, std::string_view key, Kind kind,
                     const char* what) {
  return rtv::json::require(obj, key, kind, what, kCacheContext);
}

void record_to_json(std::string& out, const SuiteRecord& r) {
  out += "{\"engine\":";
  append_string(out, r.engine);
  out += ",\"verdict\":";
  append_string(out, rtv::to_string(r.result.verdict));
  out += ",\"stop_reason\":";
  append_string(out, r.result.truncated_reason);
  out += ",\"message\":";
  append_string(out, r.result.message);
  out += ",\"states\":";
  append_uint(out, r.result.states_explored);
  out += ",\"wall_seconds\":";
  append_double(out, r.result.seconds);
  out += ",\"cpu_seconds\":";
  append_double(out, r.cpu_seconds);
  out += ",\"winner\":";
  out += r.winner ? "true" : "false";
  out += ",\"trace\":[";
  for (std::size_t i = 0; i < r.result.trace_labels.size(); ++i) {
    if (i) out += ",";
    append_string(out, r.result.trace_labels[i]);
  }
  out += "]}";
}

SuiteRecord record_from_json(const Value& v) {
  if (v.kind != Kind::kObject)
    throw std::runtime_error("verdict cache JSON: record is not an object");
  SuiteRecord r;
  r.engine = require(v, "engine", Kind::kString, "engine").string;
  r.result.verdict = verdict_from_string(
      require(v, "verdict", Kind::kString, "verdict").string, kCacheContext);
  r.result.truncated_reason =
      require(v, "stop_reason", Kind::kString, "stop reason").string;
  r.result.message = require(v, "message", Kind::kString, "message").string;
  r.result.states_explored =
      static_cast<std::size_t>(rtv::json::require_whole(
          v, "states", "states", kCacheContext));
  r.result.seconds =
      require(v, "wall_seconds", Kind::kNumber, "wall seconds").number;
  r.cpu_seconds =
      require(v, "cpu_seconds", Kind::kNumber, "cpu seconds").number;
  r.winner = require(v, "winner", Kind::kBool, "winner flag").boolean;
  for (const Value& label :
       require(v, "trace", Kind::kArray, "trace labels").array) {
    if (label.kind != Kind::kString)
      throw std::runtime_error(
          "verdict cache JSON: trace label is not a string");
    r.result.trace_labels.push_back(label.string);
  }
  return r;
}

}  // namespace

std::string VerdictCache::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"schema\":";
  append_string(out, kSchemaName);
  out += ",\"schema_version\":";
  rtv::json::append_int(out, kSchemaVersion);
  out += ",\"entries\":[";
  bool first = true;
  for (const auto& [key, outcome] : lru_) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"key\":";
    append_string(out, key.hex());
    out += ",\"records\":[";
    for (std::size_t i = 0; i < outcome.records.size(); ++i) {
      if (i) out += ",";
      record_to_json(out, outcome.records[i]);
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

void VerdictCache::load_json(const std::string& text) {
  const Value root = rtv::json::parse(text, kCacheContext);
  if (root.kind != Kind::kObject)
    throw std::runtime_error("verdict cache JSON: root is not an object");
  if (require(root, "schema", Kind::kString, "schema tag").string !=
      kSchemaName)
    throw std::runtime_error("verdict cache JSON: wrong schema tag");
  const auto version = static_cast<int>(rtv::json::require_whole(
      root, "schema_version", "schema version", kCacheContext,
      std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
  // Any mismatch rejects: a cache written by an older schema may hash
  // differently and must be recomputed, not trusted.
  if (version != kSchemaVersion)
    throw std::runtime_error(
        "verdict cache JSON: schema version " + std::to_string(version) +
        " does not match this library's version " +
        std::to_string(kSchemaVersion));

  std::list<std::pair<CacheKey, CachedOutcome>> lru;
  std::unordered_map<CacheKey, decltype(lru_)::iterator, CacheKeyHash> map;
  for (const Value& entry :
       require(root, "entries", Kind::kArray, "entries").array) {
    if (entry.kind != Kind::kObject)
      throw std::runtime_error("verdict cache JSON: entry is not an object");
    const CacheKey key =
        CacheKey::from_hex(require(entry, "key", Kind::kString, "key").string);
    CachedOutcome outcome;
    for (const Value& rec :
         require(entry, "records", Kind::kArray, "records").array)
      outcome.records.push_back(record_from_json(rec));
    if (map.count(key))
      throw std::runtime_error("verdict cache JSON: duplicate key " +
                               key.hex());
    lru.emplace_back(key, std::move(outcome));
    map.emplace(key, std::prev(lru.end()));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  lru_ = std::move(lru);
  map_ = std::move(map);
  evict_to_cap_locked();
}

void VerdictCache::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << to_json();
    out.flush();
    if (!out)
      throw std::runtime_error("verdict cache: cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("verdict cache: cannot rename " + tmp + " to " +
                             path);
}

void VerdictCache::load(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("verdict cache: cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  load_json(text);
}

}  // namespace rtv::serve
