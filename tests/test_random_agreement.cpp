// Cross-validation sweep: on random small timed systems every engine in
// the registry — relative-timing refinement, exact dense-time zones and
// digitized 64-bit ages — must agree.  Scenarios come from the seeded
// fuzz generator (rtv/fuzz/generator.hpp) and run through the campaign's
// differential oracle, so "agree" is the full contract: no contradictory
// definitive verdicts AND every counterexample trace replays through the
// composition.  Each failure message carries the case seed; replay it with
//
//   rtv fuzz --replay --seed <seed> --modules 3 --properties 2
#include <gtest/gtest.h>

#include "engine_support.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/fuzz/campaign.hpp"
#include "rtv/fuzz/generator.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv {
namespace {

class RandomAgreement : public ::testing::TestWithParam<int> {};

/// One generated obligation through all three engines.  kInconclusive is
/// accepted only for budget truncation (never expected at these sizes).
TEST_P(RandomAgreement, AllEnginesAgreeOnGeneratedScenarios) {
  fuzz::GeneratorConfig config;
  config.modules = 3;
  config.properties = 2;

  fuzz::CampaignOptions opt;
  opt.config = config;
  opt.minimize = false;

  const std::uint64_t seed =
      fuzz::case_seed(0xa9 + static_cast<std::uint64_t>(GetParam()), 0);
  const fuzz::Scenario sc = fuzz::generate(seed, config);
  const fuzz::CaseResult res = fuzz::run_case(seed, config, opt);
  EXPECT_FALSE(res.failure.has_value())
      << "seed " << seed << " (" << sc.describe()
      << "): " << (res.failure ? res.failure->detail : "");
  EXPECT_EQ(res.definitive, opt.engines.size())
      << "seed " << seed << " (" << sc.describe()
      << "): an engine came back inconclusive at smoke-test size";
}

/// Larger mixed-magnitude delays: constants past 65535 ticks (the
/// digitization-cost threshold) against the zone engine.  Kept at 2^16 —
/// the digitized engine's runtime grows with the constants themselves
/// (tick-by-tick time steps), not with the state count, so bigger caps
/// belong in the nightly fuzz campaign with --timeout, not in tier-1.
TEST_P(RandomAgreement, AgreementHoldsWithLargeDelayConstants) {
  fuzz::GeneratorConfig config;
  config.modules = 2;
  config.events = 3;
  config.max_delay = Time{1} << 16;
  config.properties = 1;

  fuzz::CampaignOptions opt;
  opt.config = config;
  opt.engines = {"zone", "discrete"};  // refine covered above; keep this fast
  opt.minimize = false;

  const std::uint64_t seed =
      fuzz::case_seed(0xb7 + static_cast<std::uint64_t>(GetParam()), 1);
  const fuzz::CaseResult res = fuzz::run_case(seed, config, opt);
  EXPECT_FALSE(res.failure.has_value())
      << "seed " << seed << ": "
      << (res.failure ? res.failure->detail : "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAgreement, ::testing::Range(0, 40));

class RandomPersistency : public ::testing::TestWithParam<int> {};

TEST_P(RandomPersistency, RefinementMatchesZoneVerdict) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  // Conflict structure: x and y enabled together, y disables x; whether
  // the persistency violation is timed-reachable depends on the delays.
  const Time xlo = static_cast<Time>(rng.below(5)) * kTicksPerUnit;
  const Time xhi = xlo + static_cast<Time>(1 + rng.below(4)) * kTicksPerUnit;
  const Time ylo = static_cast<Time>(rng.below(5)) * kTicksPerUnit;
  const Time yhi = ylo + static_cast<Time>(1 + rng.below(4)) * kTicksPerUnit;
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval(xlo, xhi));
  const EventId y = ts.add_event("y", DelayInterval(ylo, yhi));
  const EventId idle = ts.add_event("idle", DelayInterval::units(1, 2));
  ts.add_transition(s0, x, s1);
  ts.add_transition(s0, y, s2);
  ts.add_transition(s1, y, s2);
  ts.add_transition(s2, idle, s2);
  ts.set_initial(s0);
  const Module sys("conflict", std::move(ts));
  const PersistencyProperty pers;

  const Engine* refine = engine_registry().find("refine");
  const Engine* zone = engine_registry().find("zone");
  ASSERT_NE(refine, nullptr);
  ASSERT_NE(zone, nullptr);
  const Composition comp = test::compose_for_engines({&sys});
  EngineRequest req;
  req.composition = &comp;
  req.properties = {&pers};
  const EngineResult rt = refine->run(req);
  const EngineResult zn = zone->run(req);
  ASSERT_NE(rt.verdict, Verdict::kInconclusive);
  ASSERT_NE(zn.verdict, Verdict::kInconclusive);
  EXPECT_EQ(rt.verdict, zn.verdict)
      << "x [" << xlo << "," << xhi << "] y [" << ylo << "," << yhi << "]";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPersistency, ::testing::Range(0, 40));

}  // namespace
}  // namespace rtv
