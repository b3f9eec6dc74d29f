// Generator and minimizer invariants: determinism from (seed, config),
// structural well-formedness of every generated scenario, config JSON
// round-trips, and monotone delta-debugging shrinks.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "rtv/fuzz/generator.hpp"
#include "rtv/fuzz/minimize.hpp"

namespace rtv::fuzz {
namespace {

/// Structural digest of a scenario: module names, full transition systems,
/// event delays and property names.  Two identical digests mean the
/// scenarios are byte-for-byte the same obligation.
std::string digest(const Scenario& sc) {
  std::string out = sc.name + "\n" + sc.describe() + "\n";
  for (const Module& m : sc.modules) {
    out += m.name() + "\n" + m.ts().to_string();
    for (std::size_t e = 0; e < m.ts().num_events(); ++e) {
      const EventId id(static_cast<EventId::underlying_type>(e));
      const DelayInterval d = m.ts().delay(id);
      out += m.ts().label(id) + " [" + std::to_string(d.lo()) + "," +
             (d.upper_bounded() ? std::to_string(d.hi()) : "inf") + "] " +
             std::to_string(static_cast<int>(m.ts().event(id).kind)) + "\n";
    }
  }
  for (const auto& p : sc.properties) out += p->name() + "\n";
  return out;
}

TEST(FuzzGenerator, SameSeedSameConfigIsByteIdentical) {
  GeneratorConfig config;
  config.modules = 3;
  config.properties = 2;
  config.deadlock_check = true;
  for (std::uint64_t seed : {1ULL, 7ULL, 0xdeadbeefULL, ~0ULL}) {
    const Scenario a = generate(seed, config);
    const Scenario b = generate(seed, config);
    EXPECT_EQ(digest(a), digest(b)) << "seed " << seed;
  }
}

TEST(FuzzGenerator, DifferentSeedsDiverge) {
  const GeneratorConfig config;
  std::set<std::string> digests;
  for (std::uint64_t seed = 0; seed < 16; ++seed)
    digests.insert(digest(generate(seed, config)));
  // Not all 16 need be distinct, but a generator stuck on one shape would
  // collapse them all.
  EXPECT_GT(digests.size(), 8u);
}

TEST(FuzzGenerator, ScenariosAreWellFormed) {
  GeneratorConfig config;
  config.modules = 4;
  config.events = 6;
  config.properties = 3;
  config.unbounded_p = 0.3;
  config.persistency_check = true;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Scenario sc = generate(seed, config);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + sc.describe());
    EXPECT_EQ(sc.system_modules, config.modules);
    EXPECT_EQ(sc.shapes.size(), sc.system_modules);
    EXPECT_GE(sc.modules.size(), sc.system_modules);  // + monitors
    for (const Module& m : sc.modules) {
      EXPECT_GT(m.ts().num_states(), 0u);
      EXPECT_GT(m.ts().num_events(), 0u);
      EXPECT_TRUE(m.ts().initial().valid());
      for (std::size_t e = 0; e < m.ts().num_events(); ++e) {
        const EventId id(static_cast<EventId::underlying_type>(e));
        const DelayInterval d = m.ts().delay(id);
        EXPECT_GE(d.lo(), 0);
        if (d.upper_bounded()) {
          EXPECT_LE(d.lo(), d.hi());
        }
        EXPECT_FALSE(m.ts().label(id).empty());
      }
    }
    // Monitors must synchronise on system labels only: every monitored
    // label exists in some system module.
    std::set<std::string> system_labels;
    for (std::size_t i = 0; i < sc.system_modules; ++i) {
      const TransitionSystem& ts = sc.modules[i].ts();
      for (std::size_t e = 0; e < ts.num_events(); ++e)
        system_labels.insert(
            ts.label(EventId(static_cast<EventId::underlying_type>(e))));
    }
    for (std::size_t i = sc.system_modules; i < sc.modules.size(); ++i) {
      const TransitionSystem& ts = sc.modules[i].ts();
      for (std::size_t e = 0; e < ts.num_events(); ++e) {
        const std::string label =
            ts.label(EventId(static_cast<EventId::underlying_type>(e)));
        if (label.rfind("fuzz_fail", 0) == 0) continue;  // monitor-internal
        EXPECT_TRUE(system_labels.count(label))
            << "monitor references unknown label " << label;
      }
    }
    EXPECT_FALSE(sc.properties.empty());  // persistency_check at minimum
  }
}

TEST(FuzzGenerator, SanitizedClampsDegenerateConfigs) {
  GeneratorConfig config;
  config.modules = 0;
  config.events = 0;
  config.max_delay = 0;
  config.unbounded_p = 7.0;
  config.share_p = -2.0;
  const GeneratorConfig s = sanitized(config);
  EXPECT_GE(s.modules, 1u);
  EXPECT_GE(s.events, 1u);
  EXPECT_GE(s.max_delay, 1);
  EXPECT_LE(s.unbounded_p, 1.0);
  EXPECT_GE(s.share_p, 0.0);
  // And a degenerate config still generates.
  const Scenario sc = generate(5, config);
  EXPECT_EQ(sc.system_modules, s.modules);
}

TEST(FuzzGenerator, ConfigJsonRoundTrips) {
  GeneratorConfig config;
  config.modules = 5;
  config.events = 9;
  config.max_delay = Time{1} << 33;  // needs 64-bit serialization
  config.properties = 0;
  config.unbounded_p = 0.25;
  config.share_p = 0.0;
  config.point_delays = true;
  config.gates = false;
  config.deadlock_check = true;
  config.padding_modules = 3;
  const GeneratorConfig back = GeneratorConfig::from_json(config.to_json());
  EXPECT_EQ(back, config);
  EXPECT_THROW(GeneratorConfig::from_json("not json"), std::runtime_error);
  EXPECT_THROW(GeneratorConfig::from_json("{\"schema\":\"bogus\"}"),
               std::runtime_error);
  EXPECT_THROW(GeneratorConfig::from_json(std::string(2000000, '[')),
               std::runtime_error);
}

TEST(FuzzGenerator, PreSlicerConfigsParseWithoutPadding) {
  // Configs serialized before padding_modules existed omit the field;
  // they must keep replaying byte-identically (padding defaults to 0).
  GeneratorConfig config;
  config.padding_modules = 0;
  std::string json = config.to_json();
  const std::string field = ",\"padding_modules\":0";
  const std::size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos);
  json.erase(at, field.size());
  EXPECT_EQ(GeneratorConfig::from_json(json), config);
}

TEST(FuzzGenerator, PaddingModulesAreDisconnectedAndRngNeutral) {
  GeneratorConfig config;
  config.modules = 3;
  config.padding_modules = 2;
  const Scenario padded = generate(11, config);
  config.padding_modules = 0;
  const Scenario plain = generate(11, config);

  // Padding rides after monitors and draws nothing from the rng: the
  // shared prefix is byte-identical.
  ASSERT_EQ(padded.modules.size(), plain.modules.size() + 2);
  for (std::size_t i = 0; i < plain.modules.size(); ++i)
    EXPECT_EQ(padded.modules[i].name(), plain.modules[i].name());

  // Fresh private labels only — never shared with the system.
  std::set<std::string> system_labels;
  for (std::size_t i = 0; i < plain.modules.size(); ++i)
    for (const std::string& l : padded.modules[i].alphabet())
      system_labels.insert(l);
  for (std::size_t i = plain.modules.size(); i < padded.modules.size(); ++i) {
    EXPECT_NE(padded.modules[i].name().find("toggler"), std::string::npos);
    for (const std::string& l : padded.modules[i].alphabet())
      EXPECT_EQ(system_labels.count(l), 0u) << l;
  }
}

TEST(FuzzGenerator, CaseSeedsAreStableAndSpread) {
  EXPECT_EQ(case_seed(1, 0), case_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) seeds.insert(case_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(case_seed(1, 3), case_seed(2, 3));
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(FuzzMinimize, ShrinksMonotonicallyToMinimalFailingConfig) {
  GeneratorConfig start;
  start.modules = 8;
  start.events = 12;
  start.properties = 4;
  start.max_delay = 4096;
  // Failure depends only on structure the minimizer can shrink: fires while
  // the config keeps >= 2 modules and the gates shape allowed.
  std::size_t calls = 0;
  std::size_t last_accepted = config_size(sanitized(start));
  const FailureOracle oracle = [&](std::uint64_t, const GeneratorConfig& c) {
    ++calls;
    return c.modules >= 2 && c.gates;
  };
  const MinimizeResult r = minimize(99, start, oracle, 256);
  const std::size_t loop_calls = calls;
  EXPECT_TRUE(oracle(99, r.config)) << "minimized config must still fail";
  EXPECT_LT(config_size(r.config), last_accepted);
  EXPECT_EQ(r.config.modules, 2u) << "cannot shrink below the oracle's floor";
  EXPECT_TRUE(r.config.gates);
  EXPECT_EQ(r.config.events, 1u);
  EXPECT_EQ(r.config.properties, 0u);
  EXPECT_EQ(r.config.max_delay, 1);
  EXPECT_LE(r.tested, 256u);
  EXPECT_GT(r.steps, 0u);
  EXPECT_EQ(r.tested, loop_calls);
}

TEST(FuzzMinimize, ReturnsStartWhenNothingSmallerFails) {
  GeneratorConfig start;
  start.modules = 3;
  start.events = 2;
  const std::size_t start_size = config_size(sanitized(start));
  const MinimizeResult r = minimize(
      7, start,
      [&](std::uint64_t, const GeneratorConfig& c) {
        return config_size(c) >= start_size;  // any shrink "fixes" it
      });
  EXPECT_EQ(config_size(r.config), start_size);
  EXPECT_EQ(r.steps, 0u);
}

TEST(FuzzMinimize, EveryProposalKeepsGenerating) {
  // The minimizer only ever proposes configs; all of them must be valid
  // generator inputs (generate() is total over sanitized configs).
  GeneratorConfig start;
  start.modules = 6;
  start.events = 8;
  start.properties = 3;
  std::size_t generated = 0;
  minimize(3, start, [&](std::uint64_t seed, const GeneratorConfig& c) {
    const Scenario sc = generate(seed, c);
    ++generated;
    EXPECT_GT(sc.modules.size(), 0u);
    return false;  // nothing fails; walks the whole first proposal round
  });
  EXPECT_GT(generated, 5u);
}

}  // namespace
}  // namespace rtv::fuzz
