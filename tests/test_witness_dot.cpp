#include <gtest/gtest.h>

#include "engine_support.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/dot.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/refinement.hpp"
#include "rtv/verify/witness.hpp"

namespace rtv {
namespace {

Trace replay(const TransitionSystem& ts, const std::vector<std::string>& labels) {
  Trace trace;
  StateId s = ts.initial();
  for (const std::string& l : labels) {
    const EventId e = ts.event_by_label(l);
    TraceStep step{s, e, ts.enabled_events(s)};
    trace.steps.push_back(step);
    s = *ts.successor(s, e);
  }
  trace.final_state = s;
  trace.final_enabled = ts.enabled_events(s);
  return trace;
}

TEST(Witness, ConsistentTraceGetsSchedule) {
  const Module m = gallery::intro_example();
  const Trace t = replay(m.ts(), {"b", "g", "a", "c", "d"});
  const auto w = make_witness(m.ts(), t);
  ASSERT_TRUE(w.has_value());
  ASSERT_EQ(w->steps.size(), 5u);
  // Monotone, starts at >= 0, respects delay windows per enabling.
  Time prev = 0;
  for (const TimedStep& s : w->steps) {
    EXPECT_GE(s.time, prev);
    prev = s.time;
  }
  // b fires within [1, 2] of the start.
  EXPECT_GE(w->steps[0].time, ticks_from_units(1));
  EXPECT_LE(w->steps[0].time, ticks_from_units(2));
  // g fires within [0.5, 0.5] of b.
  EXPECT_EQ(w->steps[1].time - w->steps[0].time, ticks_from_units(0.5));
}

TEST(Witness, InconsistentTraceHasNoSchedule) {
  const Module m = gallery::intro_example();
  const Trace t = replay(m.ts(), {"a", "c", "d"});
  EXPECT_FALSE(make_witness(m.ts(), t).has_value());
}

TEST(Witness, CounterexampleFromVerifierIsSchedulable) {
  TransitionSystem broken = gallery::intro_example().ts();
  broken.set_event_delay(broken.event_by_label("g"), DelayInterval::units(10, 20));
  broken.set_event_delay(broken.event_by_label("d"), DelayInterval::units(0, 1));
  const Module sys("intro-broken", std::move(broken));
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req;
  req.composition = &comp;
  req.properties = {&bad};
  const EngineResult r = RefineEngine().run(req);
  ASSERT_EQ(r.verdict, Verdict::kViolated);
  const std::optional<Trace>& cex = test::refine_stats(r).counterexample;
  ASSERT_TRUE(cex.has_value());

  // The counterexample is valid against the request's composition: replay
  // its labels there to extract a schedule.
  const std::vector<std::string> labels = cex->labels(comp.ts);
  const auto w = make_witness(comp.ts, replay(comp.ts, labels));
  ASSERT_TRUE(w.has_value());
  ASSERT_EQ(w->steps.size(), labels.size());
  // d fires before g in the schedule (that is the violation).
  Time td = -1, tg = -1;
  for (const TimedStep& s : w->steps) {
    if (s.label == "d") td = s.time;
    if (s.label == "g") tg = s.time;
  }
  ASSERT_GE(td, 0);
  EXPECT_TRUE(tg < 0 || td < tg);
}

TEST(Witness, RefusedEventMarked) {
  const Module m = gallery::intro_example();
  const Trace t = replay(m.ts(), {"b", "g", "a", "c"});
  const auto w = make_witness(m.ts(), t, m.ts().event_by_label("d"));
  ASSERT_TRUE(w.has_value());
  EXPECT_NE(w->steps.back().label.find("(refused)"), std::string::npos);
}

TEST(Witness, EmptyTrace) {
  const Module m = gallery::intro_example();
  Trace t;
  t.final_state = m.ts().initial();
  t.final_enabled = m.ts().enabled_events(t.final_state);
  const auto w = make_witness(m.ts(), t);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->steps.empty());
}

TEST(Witness, ToStringFormatsTimes) {
  const Module m = gallery::chain({{"a", DelayInterval::units(1, 2)}});
  const Trace t = replay(m.ts(), {"a"});
  const auto w = make_witness(m.ts(), t);
  ASSERT_TRUE(w.has_value());
  EXPECT_NE(w->to_string().find("t="), std::string::npos);
  EXPECT_NE(w->to_string().find("a"), std::string::npos);
}

TEST(Dot, TransitionSystemExport) {
  const Module m = gallery::intro_example();
  const std::string dot = to_dot(m.ts());
  EXPECT_NE(dot.find("digraph ts"), std::string::npos);
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);  // initial state
}

TEST(Dot, HighlightAndLimit) {
  const Module m = gallery::intro_example();
  DotOptions opts;
  opts.max_states = 3;
  opts.highlight = {m.ts().initial()};
  const std::string dot = to_dot(m.ts(), opts);
  EXPECT_NE(dot.find("fillcolor=lightgray"), std::string::npos);
  // Only 3 states emitted.
  std::size_t count = 0, pos = 0;
  while ((pos = dot.find("shape", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);  // only in the node default
}

}  // namespace
}  // namespace rtv

#include "rtv/ipcmos/stage.hpp"

namespace rtv {
namespace {

TEST(Dot, NetlistExportShowsStacks) {
  const Netlist nl =
      ipcmos::make_stage_netlist("I1", ipcmos::linear_channels(1));
  const std::string dot = to_dot(nl);
  EXPECT_NE(dot.find("digraph netlist"), std::string::npos);
  EXPECT_NE(dot.find("I1.Vint"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // weak keeper
  EXPECT_NE(dot.find("label=\"down"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // input node
}

}  // namespace
}  // namespace rtv
