#include "rtv/zone/discrete.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine_support.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/zone/zone_graph.hpp"

namespace rtv {
namespace {

TEST(Discrete, IntroExampleHolds) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = test::decide("discrete", {&sys, &mon}, {&bad});
  EXPECT_FALSE(r.violated());
  EXPECT_TRUE(r.truncated_reason.empty());
}

TEST(Discrete, BrokenDelaysViolate) {
  TransitionSystem ts = gallery::intro_example().ts();
  ts.set_event_delay(ts.event_by_label("g"), DelayInterval::units(10, 20));
  ts.set_event_delay(ts.event_by_label("d"), DelayInterval::units(0, 1));
  const Module sys("broken", std::move(ts));
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  EXPECT_TRUE(test::decide("discrete", {&sys, &mon}, {&bad}).violated());
}

TEST(Discrete, ViolationCarriesCounterexampleTrace) {
  // Regression: the engine used to report VIOLATED with no trace at all —
  // its result had no trace field and every violation path returned bare
  // finish(result).  The counterexample must name the event
  // sequence, ending with the premature 'd'.
  TransitionSystem ts = gallery::intro_example().ts();
  ts.set_event_delay(ts.event_by_label("g"), DelayInterval::units(10, 20));
  ts.set_event_delay(ts.event_by_label("d"), DelayInterval::units(0, 1));
  const Module sys("broken", std::move(ts));
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = test::decide("discrete", {&sys, &mon}, {&bad});
  ASSERT_TRUE(r.violated());
  ASSERT_FALSE(r.trace_labels.empty());
  // The monitor's fail state is entered by firing d before g.
  EXPECT_NE(std::find(r.trace_labels.begin(), r.trace_labels.end(), "d"),
            r.trace_labels.end());
  EXPECT_EQ(std::find(r.trace_labels.begin(), r.trace_labels.end(), "g"),
            r.trace_labels.end());
}

TEST(Discrete, StateCountScalesWithConstants) {
  // The same race with 10x larger constants needs ~10x more configs —
  // the digitization cost the paper alludes to ([8]).
  const auto count = [](double scale) {
    const Module m = gallery::diamond("x", DelayInterval::units(1 * scale, 2 * scale),
                                      "y", DelayInterval::units(1 * scale, 2 * scale));
    return test::decide("discrete", {&m}, {}).states_explored;
  };
  const std::size_t small = count(1);
  const std::size_t large = count(10);
  EXPECT_GT(large, 5 * small);
}

TEST(Discrete, SaturationKeepsUnboundedLoopsFinite) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval::at_least_units(1));
  ts.add_transition(s0, x, s0);
  ts.set_initial(s0);
  const Module m("loop", std::move(ts));
  const EngineResult r = test::decide("discrete", {&m}, {});
  EXPECT_TRUE(r.truncated_reason.empty());
  EXPECT_LT(r.states_explored, 20u);
}

class DiscreteZoneAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DiscreteZoneAgreement, VerdictsMatchOnRandomRaces) {
  // On the integer grid, digitization is exact: discrete and zone engines
  // must agree on reachability verdicts.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
  const Time xlo = static_cast<Time>(rng.below(4)) * kTicksPerUnit;
  const Time xhi = xlo + static_cast<Time>(1 + rng.below(3)) * kTicksPerUnit;
  const Time ylo = static_cast<Time>(rng.below(4)) * kTicksPerUnit;
  const Time yhi = ylo + static_cast<Time>(1 + rng.below(3)) * kTicksPerUnit;
  const Module m =
      gallery::diamond("x", DelayInterval(xlo, xhi), "y", DelayInterval(ylo, yhi));
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x first", {{"fail", true}});
  const EngineResult d = test::decide("discrete", {&m, &mon}, {&bad});
  const EngineResult z = test::decide("zone", {&m, &mon}, {&bad});
  EXPECT_EQ(d.verdict, z.verdict)
      << "x [" << xlo << "," << xhi << "] y [" << ylo << "," << yhi << "]";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscreteZoneAgreement, ::testing::Range(0, 25));

TEST(Discrete, ChokeDetection) {
  // Producer pulses x; a one-shot listener refuses the second pulse.
  TransitionSystem pts;
  const StateId p0 = pts.add_state();
  const StateId p1 = pts.add_state();
  pts.add_transition(p0, pts.add_event("x+", DelayInterval::units(1, 2),
                                       EventKind::kOutput), p1);
  pts.add_transition(p1, pts.add_event("x-", DelayInterval::units(1, 2),
                                       EventKind::kOutput), p0);
  pts.set_initial(p0);
  const Module producer("p", std::move(pts));

  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  const StateId l2 = lts.add_state();
  lts.add_transition(l0, lts.add_event("x+", DelayInterval::unbounded(),
                                       EventKind::kInput), l1);
  lts.add_transition(l1, lts.add_event("x-", DelayInterval::unbounded(),
                                       EventKind::kInput), l2);
  lts.set_initial(l0);
  const Module once("once", std::move(lts));

  const EngineResult r = test::decide("discrete", {&producer, &once}, {});
  EXPECT_TRUE(r.violated());
  EXPECT_NE(r.message.find("refusal"), std::string::npos);
  // The trace ends with the refused output.
  ASSERT_FALSE(r.trace_labels.empty());
  EXPECT_EQ(r.trace_labels.back(), "x+");
}

TEST(Discrete, VerifiesConstantsBeyondTheOld16BitAgeRange) {
  // Regression, inverted twice: with 16-bit ages a delay bound past 65535
  // ticks first silently wrapped (the event never fired and a violated
  // system came back VERIFIED), then was refused outright.  64-bit ages
  // represent every Time, so the same obligation now verifies.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  // 20000 units * 4 ticks/unit = 80000 ticks > 65535.
  ts.add_transition(s0, ts.add_event("a", DelayInterval::units(10000, 20000)),
                    s1);
  ts.set_initial(s0);
  const Module m("overflow", std::move(ts));
  const EngineResult r = test::decide("discrete", {&m}, {});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_TRUE(r.truncated_reason.empty());
  EXPECT_GT(r.states_explored, 65536u);  // the ages really counted past 2^16
}

// ---------------------------------------------------------------------------
// 64-bit age boundary table — banked from the fuzzing campaign's widened
// constant range.  Each case puts a slow [T,T]-tick event in a race with a
// fast [1,2]-tick one: "slow before fast" is genuinely violated (maximal
// progress forces fast by tick 2), "fast before slow" genuinely holds and
// requires ages to count all the way to T without wrapping.
// ---------------------------------------------------------------------------

struct AgeBoundaryCase {
  const char* name;
  Time slow_ticks;       ///< exact delay of the slow event, in ticks
  bool check_verified;   ///< also prove the cheap direction + zone parity
};

class DiscreteAgeBoundary : public ::testing::TestWithParam<AgeBoundaryCase> {};

TEST_P(DiscreteAgeBoundary, LargeConstantsDecideInsteadOfRefusing) {
  const AgeBoundaryCase& c = GetParam();
  const Module m =
      gallery::diamond("slow", DelayInterval(c.slow_ticks, c.slow_ticks),
                       "fast", DelayInterval(1, 2));

  const Module mon_bad = gallery::order_monitor("slow", "fast");
  const InvariantProperty bad("slow first", {{"fail", true}});
  const EngineResult viol = test::decide("discrete", {&m, &mon_bad}, {&bad});
  EXPECT_TRUE(viol.violated()) << c.name;
  EXPECT_TRUE(viol.truncated_reason.empty()) << c.name;

  if (c.check_verified) {
    // The verified direction explores ~T configs (cost scales with the
    // constants — the digitization tradeoff); skipped for the largest T.
    const Module mon_ok = gallery::order_monitor("fast", "slow", "ok_fail");
    const InvariantProperty ok("fast first", {{"ok_fail", true}});
    const EngineResult v = test::decide("discrete", {&m, &mon_ok}, {&ok});
    EXPECT_FALSE(v.violated()) << c.name;
    EXPECT_TRUE(v.truncated_reason.empty()) << c.name;
    EXPECT_GT(v.states_explored, static_cast<std::size_t>(c.slow_ticks))
        << c.name;
    const EngineResult z = test::decide("zone", {&m, &mon_ok}, {&ok});
    EXPECT_EQ(v.verdict, z.verdict) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, DiscreteAgeBoundary,
    ::testing::Values(AgeBoundaryCase{"ticks65535", 65535, true},
                      AgeBoundaryCase{"ticks65536", 65536, true},
                      AgeBoundaryCase{"ticks100000", 100000, true},
                      AgeBoundaryCase{"ticks4000000", 4'000'000, false}),
    [](const ::testing::TestParamInfo<AgeBoundaryCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace rtv
