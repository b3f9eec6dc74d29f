#include "rtv/zone/zone_graph.hpp"

#include <gtest/gtest.h>

#include "engine_support.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {
namespace {

TEST(ZoneGraph, IntroExamplePropertyHoldsTimed) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = test::decide("zone", {&sys, &mon}, {&bad});
  EXPECT_FALSE(r.violated());
  EXPECT_TRUE(r.truncated_reason.empty());
  EXPECT_GT(r.states_explored, 0u);
}

TEST(ZoneGraph, PropertyFailsWhenDelaysAllowIt) {
  // Same structure but d becomes fast and g slow: d can beat g.
  TransitionSystem ts = gallery::intro_example().ts();
  ts.set_event_delay(ts.event_by_label("g"), DelayInterval::units(10, 20));
  ts.set_event_delay(ts.event_by_label("d"), DelayInterval::units(0, 1));
  const Module sys("intro-broken", std::move(ts));
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = test::decide("zone", {&sys, &mon}, {&bad});
  EXPECT_TRUE(r.violated());
  EXPECT_FALSE(r.trace_labels.empty());
}

TEST(ZoneGraph, RaceSemantics) {
  // x [1,2] races y [5,6] from the same instant: y can never fire first.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                    DelayInterval::units(5, 6));
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x before y", {{"fail", true}});
  const EngineResult r = test::decide("zone", {&m, &mon}, {&bad});
  EXPECT_FALSE(r.violated());
}

TEST(ZoneGraph, RaceTieIsPossible) {
  // x [1,3] and y [2,4] overlap: both orders possible, so "x always
  // first" is violated... the monitor flags y-before-x; check that the
  // overlapping race indeed allows y first.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 3), "y",
                                    DelayInterval::units(2, 4));
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x before y", {{"fail", true}});
  const EngineResult r = test::decide("zone", {&m, &mon}, {&bad});
  EXPECT_TRUE(r.violated());
}

TEST(ZoneGraph, UrgencyForcesProgress) {
  // A single event with finite bounds in a loop never deadlocks and keeps
  // the zone count finite thanks to extrapolation.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval::units(1, 2));
  ts.add_transition(s0, x, s0);
  ts.set_initial(s0);
  const Module m("loop", std::move(ts));
  const DeadlockFreedom dead;
  const EngineResult r = test::decide("zone", {&m}, {&dead});
  EXPECT_FALSE(r.violated());
  EXPECT_LT(r.states_explored, 10u);
}

TEST(ZoneGraph, DeadlockDetected) {
  const Module m = gallery::chain({{"a", DelayInterval::units(1, 2)}});
  const DeadlockFreedom dead;
  const EngineResult r = test::decide("zone", {&m}, {&dead});
  EXPECT_TRUE(r.violated());
  EXPECT_EQ(r.message, "deadlock");
  EXPECT_EQ(r.trace_labels, (std::vector<std::string>{"a"}));
}

TEST(ZoneGraph, PersistencyViolationOnlyWhenTimedReachable) {
  // y [5,6] would disable x [1,2] — but x always fires first, so the
  // persistency violation is NOT timed-reachable.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval::units(1, 2));
  const EventId y = ts.add_event("y", DelayInterval::units(5, 6));
  ts.add_transition(s0, x, s1);
  ts.add_transition(s0, y, s2);  // firing y disables x
  ts.add_transition(s1, y, s2);
  ts.set_initial(s0);
  const Module m("race", std::move(ts));
  const PersistencyProperty pers;
  const EngineResult r = test::decide("zone", {&m}, {&pers});
  EXPECT_FALSE(r.violated());

  // Overlapping delays make it reachable.
  TransitionSystem ts2;
  const StateId t0 = ts2.add_state();
  const StateId t1 = ts2.add_state();
  const StateId t2 = ts2.add_state();
  const EventId x2 = ts2.add_event("x", DelayInterval::units(1, 4));
  const EventId y2 = ts2.add_event("y", DelayInterval::units(2, 6));
  ts2.add_transition(t0, x2, t1);
  ts2.add_transition(t0, y2, t2);
  ts2.add_transition(t1, y2, t2);
  ts2.set_initial(t0);
  const Module m2("race2", std::move(ts2));
  const EngineResult r2 = test::decide("zone", {&m2}, {&pers});
  EXPECT_TRUE(r2.violated());
}

TEST(ZoneGraph, ChokeOnlyCountsWhenTimedReachable) {
  // Producer wants x+ then x- then x+ again; a listener accepts one pulse
  // only.  The second x+ is a choke; it is timed-reachable here.
  TransitionSystem pts;
  const StateId p0 = pts.add_state();
  const StateId p1 = pts.add_state();
  const EventId up = pts.add_event("x+", DelayInterval::units(1, 2), EventKind::kOutput);
  const EventId dn = pts.add_event("x-", DelayInterval::units(1, 2), EventKind::kOutput);
  pts.add_transition(p0, up, p1);
  pts.add_transition(p1, dn, p0);
  pts.set_initial(p0);
  const Module producer("p", std::move(pts));

  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  const StateId l2 = lts.add_state();
  lts.add_transition(l0, lts.add_event("x+", DelayInterval::unbounded(), EventKind::kInput), l1);
  lts.add_transition(l1, lts.add_event("x-", DelayInterval::unbounded(), EventKind::kInput), l2);
  lts.set_initial(l0);
  const Module once("once", std::move(lts));

  const EngineResult r = test::decide("zone", {&producer, &once}, {});
  EXPECT_TRUE(r.violated());
  EXPECT_NE(r.message.find("refusal"), std::string::npos);
}

TEST(ZoneGraph, ZoneCountExceedsDiscreteStates) {
  const Module sys = gallery::intro_example();
  const EngineResult r = test::decide("zone", {&sys}, {});
  EXPECT_GE(r.states_explored, r.discrete_states);
  EXPECT_GT(r.discrete_states, 0u);
}

}  // namespace
}  // namespace rtv
