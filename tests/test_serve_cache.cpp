// The serve layer's content-addressed verdict cache: what the obligation
// hash covers (and deliberately does not), LRU store behaviour, the
// cacheability policy, and the versioned persistence format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "rtv/serve/cache.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/obligation_hash.hpp"

using namespace rtv;
using namespace rtv::serve;

namespace {

WireObligation make_obligation() {
  WireObligation ob;
  ob.name = "intro";
  ob.modules.push_back(gallery::intro_example());
  ob.properties.push_back(PropertySpec::deadlock());
  return ob;
}

CacheKey key_of(const WireObligation& ob, std::size_t max_states = 0,
                double max_seconds = 0.0, std::size_t max_refinements = 500) {
  return obligation_cache_key(ob, SuiteMode::kBatch, {"refine"}, max_states,
                              max_seconds, max_refinements);
}

CachedOutcome outcome_with(const char* engine, Verdict verdict,
                           const char* stop = "", bool winner = true) {
  CachedOutcome o;
  SuiteRecord r;
  r.engine = engine;
  r.result.verdict = verdict;
  r.result.truncated_reason = stop;
  r.winner = winner;
  o.records.push_back(std::move(r));
  return o;
}

/// RAII temp path (the file itself is created by the code under test).
struct TempFile {
  std::string path;
  explicit TempFile(const char* tag)
      : path("/tmp/rtv-test-cache-" + std::to_string(::getpid()) + "-" + tag +
             ".json") {}
  ~TempFile() { std::remove(path.c_str()); }
};

}  // namespace

// ---------------------------------------------------------------------------
// What the module hash covers.
// ---------------------------------------------------------------------------

TEST(ModuleContentHash, DeterministicAndNameIndependent) {
  Module a = gallery::intro_example();
  Module b = gallery::intro_example();
  EXPECT_EQ(module_content_hash(a), module_content_hash(b));

  // Renaming the module or its states is cosmetic: same content hash.
  b.set_name("entirely different");
  for (std::uint32_t s = 0; s < b.ts().num_states(); ++s)
    b.ts().set_state_name(StateId{s}, "renamed-" + std::to_string(s));
  EXPECT_EQ(module_content_hash(a), module_content_hash(b));
}

TEST(ModuleContentHash, SensitiveToDelaysStructureAndValuations) {
  const DelayInterval d12{ticks_from_units(1), ticks_from_units(2)};
  const DelayInterval d13{ticks_from_units(1), ticks_from_units(3)};
  const Module base = gallery::diamond("x", d12, "y", d12);
  EXPECT_NE(module_content_hash(base),
            module_content_hash(gallery::diamond("x", d13, "y", d12)));
  EXPECT_NE(module_content_hash(base),
            module_content_hash(gallery::diamond("z", d12, "y", d12)));
  EXPECT_NE(module_content_hash(base),
            module_content_hash(gallery::diamond("y", d12, "x", d12)));

  // Extra structure (a transition) changes the hash.
  Module more = base;
  more.ts().add_transition(StateId{1}, EventId{1}, StateId{1});
  EXPECT_NE(module_content_hash(base), module_content_hash(more));
}

// ---------------------------------------------------------------------------
// What the obligation key covers.
// ---------------------------------------------------------------------------

// Persisted caches outlive library versions, so the key of a fixed
// obligation is pinned: a change here orphans every cache file on disk.
TEST(ObligationCacheKey, PinnedHexIsStable) {
  EXPECT_EQ(key_of(make_obligation()).hex(),
            "6b1683c7d93ac41bda12313a3462e27d");
}

TEST(ObligationCacheKey, ObligationNameIsNotContent) {
  WireObligation a = make_obligation();
  WireObligation b = make_obligation();
  b.name = "renamed";
  EXPECT_EQ(key_of(a), key_of(b));
}

// Regression: every budget knob must be part of the key — a cached
// Inconclusive computed at a small budget can never answer a bigger-budget
// request.
TEST(ObligationCacheKey, BudgetChangesChangeTheKey) {
  const WireObligation ob = make_obligation();
  const CacheKey base = key_of(ob);
  EXPECT_NE(base, key_of(ob, 1000));
  EXPECT_NE(base, key_of(ob, 0, 5.0));
  EXPECT_NE(base, key_of(ob, 0, 0.0, 7));
  EXPECT_NE(key_of(ob, 1000), key_of(ob, 2000));

  WireObligation no_chokes = make_obligation();
  no_chokes.track_chokes = false;
  EXPECT_NE(base, key_of(no_chokes));
}

TEST(ObligationCacheKey, ModeEnginesAndPropertiesAreContent) {
  const WireObligation ob = make_obligation();
  const CacheKey base = key_of(ob);
  EXPECT_NE(base, obligation_cache_key(ob, SuiteMode::kPortfolio, {"refine"},
                                       0, 0.0, 500));
  EXPECT_NE(base, obligation_cache_key(ob, SuiteMode::kBatch, {"zone"}, 0,
                                       0.0, 500));
  EXPECT_NE(base, obligation_cache_key(ob, SuiteMode::kBatch,
                                       {"refine", "zone"}, 0, 0.0, 500));

  WireObligation more_props = make_obligation();
  more_props.properties.push_back(PropertySpec::persistency());
  EXPECT_NE(base, key_of(more_props));

  WireObligation invariant = make_obligation();
  invariant.properties = {PropertySpec::invariant("!fail", {{"fail", true}})};
  EXPECT_NE(base, key_of(invariant));

  // Module content flows into the key.
  WireObligation edited = make_obligation();
  edited.modules.front().ts().add_transition(StateId{0}, EventId{0},
                                             StateId{0});
  EXPECT_NE(base, key_of(edited));
}

TEST(CacheKeyApi, HexRoundTripsAndRejectsMalformedInput) {
  const CacheKey key = key_of(make_obligation());
  const std::string hex = key.hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(CacheKey::from_hex(hex), key);
  EXPECT_THROW(CacheKey::from_hex("short"), std::runtime_error);
  EXPECT_THROW(CacheKey::from_hex(std::string(32, 'g')), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The LRU store.
// ---------------------------------------------------------------------------

TEST(VerdictCache, HitMissAndStats) {
  VerdictCache cache(8);
  const CacheKey key = key_of(make_obligation());
  CachedOutcome out;
  EXPECT_FALSE(cache.get(key, &out));
  cache.put(key, outcome_with("refine", Verdict::kVerified));
  ASSERT_TRUE(cache.get(key, &out));
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].engine, "refine");
  EXPECT_EQ(out.records[0].result.verdict, Verdict::kVerified);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(VerdictCache, EvictsLeastRecentlyUsedPastTheCap) {
  VerdictCache cache(2);
  const CacheKey k1{1, 1}, k2{2, 2}, k3{3, 3};
  cache.put(k1, outcome_with("refine", Verdict::kVerified));
  cache.put(k2, outcome_with("refine", Verdict::kVerified));
  // Touch k1 so k2 becomes the LRU entry.
  EXPECT_TRUE(cache.get(k1, nullptr));
  cache.put(k3, outcome_with("refine", Verdict::kVerified));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.get(k1, nullptr));   // refreshed, survived
  EXPECT_FALSE(cache.get(k2, nullptr));  // evicted
  EXPECT_TRUE(cache.get(k3, nullptr));
}

TEST(VerdictCache, PutOverwritesInPlace) {
  VerdictCache cache(4);
  const CacheKey k{9, 9};
  cache.put(k, outcome_with("refine", Verdict::kInconclusive));
  cache.put(k, outcome_with("zone", Verdict::kVerified));
  CachedOutcome out;
  ASSERT_TRUE(cache.get(k, &out));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(out.records[0].engine, "zone");
  EXPECT_EQ(out.records[0].result.verdict, Verdict::kVerified);
}

// ---------------------------------------------------------------------------
// Cacheability policy.
// ---------------------------------------------------------------------------

TEST(CacheablePolicy, RejectsAccidentsKeepsHonestTruncations) {
  EXPECT_FALSE(cacheable(CachedOutcome{}));
  EXPECT_FALSE(cacheable(outcome_with("refine", Verdict::kInconclusive,
                                      stop_reason::kEngineError, false)));
  // Cancelled with no deciding winner: an execution accident.
  EXPECT_FALSE(cacheable(outcome_with("zone", Verdict::kInconclusive,
                                      stop_reason::kCancelled, false)));
  // A portfolio loser cancelled BY a winner is a deterministic outcome.
  CachedOutcome race = outcome_with("refine", Verdict::kVerified, "", true);
  SuiteRecord loser;
  loser.engine = "zone";
  loser.result.verdict = Verdict::kInconclusive;
  loser.result.truncated_reason = stop_reason::kCancelled;
  race.records.push_back(loser);
  EXPECT_TRUE(cacheable(race));
  // Honest budget truncation is cacheable — the budget is in the key.
  EXPECT_TRUE(cacheable(outcome_with("discrete", Verdict::kInconclusive,
                                     stop_reason::kStateBudget, false)));
  EXPECT_TRUE(cacheable(outcome_with("refine", Verdict::kVerified)));
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------

TEST(VerdictCachePersistence, FileRoundTripPreservesEntriesAndRecency) {
  VerdictCache cache(8);
  const CacheKey k1{1, 10}, k2{2, 20};
  CachedOutcome rich = outcome_with("zone", Verdict::kViolated);
  rich.records[0].result.message = "fail reached \"quoted\"";
  rich.records[0].result.trace_labels = {"a+", "b-"};
  rich.records[0].result.states_explored = 42;
  rich.records[0].result.seconds = 0.25;
  rich.records[0].cpu_seconds = 0.5;
  cache.put(k1, rich);
  cache.put(k2, outcome_with("refine", Verdict::kVerified));
  // Touch k1: recency order on disk must be k2 (LRU) then k1.
  EXPECT_TRUE(cache.get(k1, nullptr));

  TempFile file("roundtrip");
  cache.save(file.path);

  VerdictCache loaded(2);
  loaded.load(file.path);
  EXPECT_EQ(loaded.size(), 2u);
  CachedOutcome out;
  ASSERT_TRUE(loaded.get(k1, &out));
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].engine, "zone");
  EXPECT_EQ(out.records[0].result.verdict, Verdict::kViolated);
  EXPECT_EQ(out.records[0].result.message, "fail reached \"quoted\"");
  EXPECT_EQ(out.records[0].result.trace_labels,
            (std::vector<std::string>{"a+", "b-"}));
  EXPECT_EQ(out.records[0].result.states_explored, 42u);
  EXPECT_TRUE(out.records[0].winner);

  // Replayed recency: with cap 1, inserting one more evicts k2 first.
  VerdictCache tight(1);
  tight.load(file.path);
  EXPECT_EQ(tight.size(), 1u);
  EXPECT_TRUE(tight.get(k1, nullptr));
  EXPECT_FALSE(tight.get(k2, nullptr));
}

TEST(VerdictCachePersistence, RejectsCorruptAndVersionSkewedFiles) {
  VerdictCache cache(4);
  cache.put(CacheKey{1, 1}, outcome_with("refine", Verdict::kVerified));
  const std::string good = cache.to_json();

  VerdictCache victim(4);
  EXPECT_THROW(victim.load_json("not json at all"), std::runtime_error);
  EXPECT_THROW(victim.load_json("{}"), std::runtime_error);
  EXPECT_THROW(victim.load_json(good.substr(0, good.size() / 2)),
               std::runtime_error);

  std::string wrong_tag = good;
  wrong_tag.replace(wrong_tag.find("rtv-verdict-cache"), 17,
                    "rtv-other-format!");
  EXPECT_THROW(victim.load_json(wrong_tag), std::runtime_error);

  // ANY version mismatch rejects, and the message names the version.
  std::string newer = good;
  newer.replace(newer.find("\"schema_version\":1"), 18,
                "\"schema_version\":9");
  try {
    victim.load_json(newer);
    FAIL() << "expected a schema-version rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("9"), std::string::npos) << e.what();
  }

  std::string bad_key = good;
  bad_key.replace(bad_key.find("\"key\":\"") + 7, 1, "Z");
  EXPECT_THROW(victim.load_json(bad_key), std::runtime_error);

  // Deep nesting is malformed input too, not a stack overflow.
  EXPECT_THROW(victim.load_json(std::string(2000000, '[')),
               std::runtime_error);

  // A rejected load leaves the victim untouched.
  EXPECT_EQ(victim.size(), 0u);
  victim.load_json(good);
  EXPECT_EQ(victim.size(), 1u);

  EXPECT_THROW(victim.load("/nonexistent/dir/cache.json"),
               std::runtime_error);
}
