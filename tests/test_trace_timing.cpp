#include "rtv/timing/trace_timing.hpp"

#include <gtest/gtest.h>

#include "rtv/fuzz/generator.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/sim/simulator.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

Trace replay(const TransitionSystem& ts, const std::vector<std::string>& labels) {
  Trace trace;
  StateId s = ts.initial();
  for (const std::string& l : labels) {
    const EventId e = ts.event_by_label(l);
    EXPECT_TRUE(e.valid()) << l;
    EXPECT_TRUE(ts.is_enabled(s, e)) << l;
    TraceStep step;
    step.state = s;
    step.event = e;
    step.enabled = ts.enabled_events(s);
    trace.steps.push_back(step);
    s = *ts.successor(s, e);
  }
  trace.final_state = s;
  trace.final_enabled = ts.enabled_events(s);
  return trace;
}

TEST(TraceTiming, ConsistentTraceAccepted) {
  const Module m = gallery::intro_example();
  // b, g, a, c, d is the "natural" timed order.
  const Trace t = replay(m.ts(), {"b", "g", "a", "c", "d"});
  EXPECT_TRUE(TraceTimingModel(m.ts(), PredecessorIndex(m.ts()), t).consistent());
}

TEST(TraceTiming, InconsistentByPendingDeadline) {
  const Module m = gallery::intro_example();
  // a, c, d with b pending: d fires at >= 3.5 while b's deadline is 2.
  const Trace t = replay(m.ts(), {"a", "c", "d"});
  const PredecessorIndex preds(m.ts());
  TraceTimingModel model(m.ts(), preds, t);
  EXPECT_FALSE(model.consistent());
  const auto win = model.find_ban_window();
  ASSERT_TRUE(win.has_value());
  // Already the firing of a (>= 2.5) violates pending b's deadline (2);
  // any window ending at or before d is a valid ban.
  EXPECT_LE(win->last_point, 2);
  const BuiltTraceSystem sys =
      model.build_system(win->anchor_point, win->last_point, !win->from_start);
  EXPECT_FALSE(sys.system.solve().feasible);
}

TEST(TraceTiming, InconsistentByFiringOrder) {
  const Module m = gallery::intro_example();
  // a before b: a's earliest (2.5) exceeds b's deadline (2).
  const Trace t = replay(m.ts(), {"a", "b"});
  const PredecessorIndex preds(m.ts());
  TraceTimingModel model(m.ts(), preds, t);
  EXPECT_FALSE(model.consistent());
}

TEST(TraceTiming, ExplainNamesThePendingBlocker) {
  const Module m = gallery::intro_example();
  const Trace t = replay(m.ts(), {"a", "c", "d"});
  const PredecessorIndex preds(m.ts());
  TraceTimingModel model(m.ts(), preds, t);
  const auto win = model.find_ban_window();
  ASSERT_TRUE(win.has_value());
  const auto orderings = model.explain(*win);
  ASSERT_FALSE(orderings.empty());
  // The pending blocker is b, whichever firing the window ends at.
  for (const DerivedOrdering& o : orderings) EXPECT_EQ(o.before, "b");
}

TEST(TraceTiming, EnablingPointsRespectDisabling) {
  const Module m = gallery::intro_example();
  const Trace t = replay(m.ts(), {"b", "a", "c"});
  const PredecessorIndex preds(m.ts());
  TraceTimingModel model(m.ts(), preds, t);
  // c (fired at point 2) became enabled when a fired (point 1 -> enabling
  // point 2); a and b were enabled from the start.
  const TransitionSystem& ts = m.ts();
  EXPECT_EQ(model.enabling_point(ts.event_by_label("c"), 2), 2);
  EXPECT_EQ(model.enabling_point(ts.event_by_label("a"), 1), 0);
  EXPECT_EQ(model.enabling_point(ts.event_by_label("b"), 0), 0);
}

TEST(TraceTiming, VirtualFinalEventIsTimed) {
  const Module m = gallery::intro_example();
  // After a, c the event d is enabled; treat it as a refused virtual
  // firing: same inconsistency as firing it for real (b's deadline).
  const Trace t = replay(m.ts(), {"a", "c"});
  const EventId d = m.ts().event_by_label("d");
  const PredecessorIndex preds(m.ts());
  TraceTimingModel model(m.ts(), preds, t, d);
  EXPECT_EQ(model.num_points(), 3);
  EXPECT_FALSE(model.consistent());
  const auto win = model.find_ban_window();
  ASSERT_TRUE(win.has_value());
  EXPECT_LE(win->last_point, 2);
}

TEST(TraceTiming, EmptyTraceIsConsistent) {
  const Module m = gallery::intro_example();
  Trace t;
  t.final_state = m.ts().initial();
  t.final_enabled = m.ts().enabled_events(t.final_state);
  EXPECT_TRUE(TraceTimingModel(m.ts(), PredecessorIndex(m.ts()), t).consistent());
}

TEST(TraceTiming, AnchoredWindowPrefersLatestAnchor) {
  // Chain u [10, 20] then the diamond race x [1,2] vs y [5,6]: firing y
  // before x is inconsistent *regardless of history*, so the ban window
  // should be anchored (not from-start) and cover only the race.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const StateId s3 = ts.add_state();
  const EventId u = ts.add_event("u", DelayInterval::units(10, 20));
  const EventId x = ts.add_event("x", DelayInterval::units(1, 2));
  const EventId y = ts.add_event("y", DelayInterval::units(5, 6));
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, x, s2);
  ts.add_transition(s1, y, s3);
  ts.add_transition(s3, x, s2);
  ts.set_initial(s0);

  const Trace t = replay(ts, {"u", "y"});
  const PredecessorIndex preds(ts);
  TraceTimingModel model(ts, preds, t);
  EXPECT_FALSE(model.consistent());
  const auto win = model.find_ban_window();
  ASSERT_TRUE(win.has_value());
  EXPECT_FALSE(win->from_start);
  EXPECT_EQ(win->anchor_point, 1);
  EXPECT_EQ(win->last_point, 1);
  const auto orderings = model.explain(*win);
  ASSERT_EQ(orderings.size(), 1u);
  EXPECT_EQ(orderings[0].before, "x");
  EXPECT_EQ(orderings[0].after, "y");
}

TEST(TraceTiming, ClampedWindowDropsStaleLowerBounds) {
  // x [5,6] is already enabled before the window anchor, so a window
  // anchored at point 1 may not use x's lower bound: even though firing x
  // past pending z's deadline (2) *looks* contradictory with x >= 5, the
  // enabling of x predates the anchor and the clamped system must stay
  // feasible (the ban falls back to a from-start window instead).
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const StateId s3 = ts.add_state();
  const StateId s4 = ts.add_state();
  const EventId u = ts.add_event("u", DelayInterval::units(1, 2));
  const EventId x = ts.add_event("x", DelayInterval::units(5, 6));
  const EventId z = ts.add_event("z", DelayInterval::units(1, 2));
  ts.add_transition(s0, u, s1);
  ts.add_transition(s0, x, s4);  // x pre-enabled before the anchor
  ts.add_transition(s1, x, s2);
  ts.add_transition(s1, z, s3);
  ts.set_initial(s0);
  const Trace t = replay(ts, {"u", "x"});
  const PredecessorIndex preds(ts);
  TraceTimingModel model(ts, preds, t);
  // The full trace is genuinely inconsistent (x's enabling at time 0 and
  // z's deadline after u), so a ban window exists...
  EXPECT_FALSE(model.consistent());
  // ...but the anchored (history-independent) window [1..1] must be
  // feasible: x's lower bound is dropped at the window boundary.
  const BuiltTraceSystem clamped = model.build_system(1, 1, /*clamped=*/true);
  EXPECT_TRUE(clamped.system.solve().feasible);
  const auto win = model.find_ban_window();
  ASSERT_TRUE(win.has_value());
  EXPECT_TRUE(win->from_start);
}

// A simulated run fires every event within its delay bounds of its
// enabling and never past a pending event's deadline, so the model must
// judge each run's untimed trace timing-consistent.
Trace trace_of(const TransitionSystem& ts, const SimTrace& run) {
  Trace trace;
  StateId s = ts.initial();
  for (const SimEvent& ev : run.events) {
    trace.steps.push_back(TraceStep{s, ev.event, ts.enabled_events(s)});
    s = ev.state_after;
  }
  trace.final_state = s;
  trace.final_enabled = ts.enabled_events(s);
  return trace;
}

void expect_runs_consistent(const TransitionSystem& ts, int runs,
                            std::size_t events) {
  const PredecessorIndex preds(ts);
  for (int i = 0; i < runs; ++i) {
    SimOptions opts;
    opts.max_events = events;
    opts.seed = static_cast<std::uint64_t>(i) + 1;
    const Trace trace = trace_of(ts, simulate(ts, opts));
    ASSERT_TRUE(TraceTimingModel(ts, preds, trace).consistent())
        << "simulation seed " << opts.seed << ", " << trace.steps.size()
        << " steps";
  }
}

TEST(TraceTiming, SimulatedRunsAreConsistentOnIntroAndTable1) {
  const Module intro = gallery::intro_example();
  expect_runs_consistent(intro.ts(), 200, 40);
  const Suite table1 = ipcmos::table1_suite();
  for (const Obligation& ob : table1.obligations()) {
    SCOPED_TRACE(ob.name);
    expect_runs_consistent(compose(ob.modules).ts, 100, 40);
  }
}

TEST(TraceTiming, SimulatedRunsAreConsistentOnFuzzScenarios) {
  for (std::size_t i = 0; i < 300; ++i) {
    const fuzz::Scenario sc = fuzz::generate(fuzz::case_seed(1, i), {});
    SCOPED_TRACE(sc.describe());
    const std::vector<const Module*> all = sc.module_ptrs();
    const std::vector<const Module*> system(
        all.begin(), all.begin() + static_cast<std::ptrdiff_t>(sc.system_modules));
    expect_runs_consistent(compose(system).ts, 20, 24);
  }
}

}  // namespace
}  // namespace rtv
