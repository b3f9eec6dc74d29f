#include "rtv/ts/minimize.hpp"

#include <gtest/gtest.h>

#include "engine_support.hpp"
#include "rtv/stg/library.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/refinement.hpp"

namespace rtv {
namespace {

TEST(Minimize, MergesDuplicatedTail) {
  // Two states with identical futures collapse.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const StateId sink1 = ts.add_state();
  const StateId sink2 = ts.add_state();
  const EventId a = ts.add_event("a");
  const EventId b = ts.add_event("b");
  ts.add_transition(s0, a, s1);
  ts.add_transition(s0, b, s2);
  ts.add_transition(s1, a, sink1);
  ts.add_transition(s2, a, sink2);
  ts.add_transition(sink1, b, sink1);
  ts.add_transition(sink2, b, sink2);
  ts.set_initial(s0);

  const MinimizeResult r = minimize(ts);
  // s1 ~ s2 and sink1 ~ sink2: 3 blocks.
  EXPECT_EQ(r.num_blocks, 3u);
  EXPECT_EQ(r.block_of[s1.value()], r.block_of[s2.value()]);
  EXPECT_EQ(r.block_of[sink1.value()], r.block_of[sink2.value()]);
  EXPECT_NE(r.block_of[s0.value()], r.block_of[s1.value()]);
}

TEST(Minimize, DistinguishesByLabels) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId a = ts.add_event("a");
  const EventId b = ts.add_event("b");
  ts.add_transition(s0, a, s1);
  ts.add_transition(s0, b, s2);
  ts.set_initial(s0);
  const MinimizeResult r = minimize(ts);
  // s1 and s2 are both deadlocked sinks: bisimilar.
  EXPECT_EQ(r.num_blocks, 2u);
}

TEST(Minimize, DropsUnreachableStates) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  ts.add_state();  // unreachable
  ts.set_initial(s0);
  const MinimizeResult r = minimize(ts);
  EXPECT_EQ(r.num_blocks, 1u);
  EXPECT_EQ(r.ts.num_states(), 1u);
}

TEST(Minimize, IdempotentOnMinimalSystems) {
  const Module m = gallery::intro_example();
  const Module m1 = minimized(m, {/*respect_valuations=*/false});
  const Module m2 = minimized(m1, {false});
  EXPECT_EQ(m1.ts().num_states(), m2.ts().num_states());
  EXPECT_LE(m1.ts().num_states(), m.ts().num_states());
}

TEST(Minimize, RespectsValuationsWhenAsked) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId a = ts.add_event("a");
  ts.add_transition(s0, a, s1);
  ts.add_transition(s0, a, s2);  // nondeterministic split
  ts.set_initial(s0);
  ts.set_signal_names({"f"});
  BitVec lo(1), hi(1);
  hi.set(0);
  ts.set_state_valuation(s0, lo);
  ts.set_state_valuation(s1, lo);
  ts.set_state_valuation(s2, hi);
  MinimizeOptions keep;
  keep.respect_valuations = true;
  EXPECT_EQ(minimize(ts, keep).num_blocks, 3u);
  MinimizeOptions merge;
  merge.respect_valuations = false;
  EXPECT_EQ(minimize(ts, merge).num_blocks, 2u);
}

TEST(Minimize, QuotientPreservesVerificationVerdict) {
  // Verifying against the minimized monitor gives the same verdict.
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const Module mon_min = minimized(mon);
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult a = test::decide("refine", {&sys, &mon}, {&bad});
  const EngineResult b = test::decide("refine", {&sys, &mon_min}, {&bad});
  EXPECT_EQ(a.verdict, b.verdict);
}

TEST(Minimize, EnvironmentModelsAlreadyTight) {
  // The hand-built STG environments have little redundancy; minimization
  // must not grow them and the quotient must still compose cleanly.
  const Module in = stg_library::in_module("V", "A");
  const Module in_min = minimized(in);
  EXPECT_LE(in_min.ts().num_states(), in.ts().num_states());
  const Module out = stg_library::out_module("V", "A");
  const Composition c = compose({&in_min, &out});
  for (StateId s : c.ts.reachable_states()) {
    EXPECT_FALSE(c.ts.enabled_events(s).empty());
  }
}

}  // namespace
}  // namespace rtv
