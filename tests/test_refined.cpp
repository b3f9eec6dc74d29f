#include "rtv/lazy/refined_system.hpp"

#include <gtest/gtest.h>

#include "engine_support.hpp"
#include "rtv/lazy/refined_graph.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

TEST(RefinedSystem, NoObserversMeansNoBlocking) {
  const Module m = gallery::intro_example();
  const ChokeIndex index(m.ts(), {});
  RefinedSystem rs(m.ts(), index);
  const RefinedState s = rs.initial();
  for (EventId e : m.ts().enabled_events(s.base)) {
    EXPECT_FALSE(rs.blocked(s, e));
  }
}

TEST(RefinedSystem, FromStartObserverBlocksExactSequence) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const EventId a = ts.event_by_label("a");
  const EventId c = ts.event_by_label("c");
  const EventId d = ts.event_by_label("d");

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {a, c, d};
  rs.add_observer(std::move(obs));

  RefinedState s = rs.initial();
  EXPECT_FALSE(rs.blocked(s, a));
  s = rs.advance(s, a);
  EXPECT_FALSE(rs.blocked(s, c));
  s = rs.advance(s, c);
  EXPECT_TRUE(rs.blocked(s, d));  // completing the window
}

TEST(RefinedSystem, DivergedRunIsNotBlocked) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const EventId a = ts.event_by_label("a");
  const EventId b = ts.event_by_label("b");
  const EventId c = ts.event_by_label("c");
  const EventId d = ts.event_by_label("d");

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {a, c, d};
  rs.add_observer(std::move(obs));

  // Firing b first diverges from the window: d stays allowed.
  RefinedState s = rs.initial();
  s = rs.advance(s, b);
  s = rs.advance(s, a);
  s = rs.advance(s, c);
  EXPECT_FALSE(rs.blocked(s, d));
}

TEST(RefinedSystem, AnchoredObserverRearmsAtEveryVisit) {
  // Loop u; x with ban [x] anchored at the post-u state: x is blocked on
  // every visit.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const EventId u = ts.add_event("u");
  const EventId x = ts.add_event("x");
  const EventId back = ts.add_event("back");
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, x, s0);
  ts.add_transition(s1, back, s0);
  ts.set_initial(s0);

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = false;
  obs.anchor_state = s1;
  obs.window = {x};
  rs.add_observer(std::move(obs));

  RefinedState s = rs.initial();
  s = rs.advance(s, u);
  EXPECT_TRUE(rs.blocked(s, x));
  s = rs.advance(s, back);
  s = rs.advance(s, u);
  EXPECT_TRUE(rs.blocked(s, x));  // re-armed on the second visit
}

TEST(RefinedSystem, MaterializePrunesBlockedFirings) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {ts.event_by_label("a"), ts.event_by_label("c"),
                ts.event_by_label("d")};
  rs.add_observer(std::move(obs));

  RefinedGraph graph(rs);
  const test::RefinedWalk walk = test::walk_refined(graph);
  EXPECT_EQ(walk.blocked_firings, 1u);
  EXPECT_FALSE(walk.truncated);
  // The refined system has no more behaviours than the base one.
  EXPECT_LE(walk.transitions + walk.blocked_firings,
            ts.num_transitions() + walk.states);
}

TEST(RefinedSystem, PairBlockingNeedsActivationAndJustification) {
  // Diamond race x [1,2] vs y [5,6]: the pair (x, y) justifies blocking y
  // while x is pending — but only once activated.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                    DelayInterval::units(5, 6));
  const TransitionSystem& ts = m.ts();
  const EventId x = ts.event_by_label("x");
  const EventId y = ts.event_by_label("y");

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  rs.enable_age_rule(true);
  RefinedState s0 = rs.initial();
  EXPECT_FALSE(rs.blocked(s0, y));

  EXPECT_TRUE(rs.activate_pair(x, y));
  EXPECT_FALSE(rs.activate_pair(x, y));  // already active
  s0 = rs.initial();                     // re-pull with bookkeeping on
  EXPECT_TRUE(rs.blocked(s0, y));
  EXPECT_FALSE(rs.blocked(s0, x));
}

TEST(RefinedSystem, PairNotJustifiedWhenWindowsOverlap) {
  // x [1,4] vs y [2,3]: overlap, no provable ordering, pair must not block.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 4), "y",
                                    DelayInterval::units(2, 3));
  const TransitionSystem& ts = m.ts();
  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  rs.enable_age_rule(true);
  rs.activate_pair(ts.event_by_label("x"), ts.event_by_label("y"));
  const RefinedState s0 = rs.initial();
  EXPECT_FALSE(rs.blocked(s0, ts.event_by_label("y")));
}

TEST(RefinedSystem, ChainSlackJustifiesPair) {
  // u [3,4] enables y [4,5]; x [1,2] pending from the start with deadline
  // 2... wait: x's deadline (2) < u's earliest (3), so u itself could not
  // fire before x.  Use a start-wave x with deadline 8: after u (>= 3),
  // y's earliest is 3 + 4 = 7 < 8: not blocked.  With deadline 6 — wave
  // bound gives lower(t_wave(y) - t_wave(x)) = 3, 3 + 4 = 7 > 6: blocked.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const StateId s3 = ts.add_state();
  const EventId x6 = ts.add_event("x6", DelayInterval::units(1, 6));
  const EventId x8 = ts.add_event("x8", DelayInterval::units(1, 8));
  const EventId u = ts.add_event("u", DelayInterval::units(3, 4));
  const EventId y = ts.add_event("y", DelayInterval::units(4, 5));
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, y, s2);
  ts.add_transition(s0, x6, s3);
  ts.add_transition(s0, x8, s3);
  ts.add_transition(s1, x6, s3);
  ts.add_transition(s1, x8, s3);
  ts.set_initial(s0);

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  rs.enable_age_rule(true);
  rs.activate_pair(x6, y);
  rs.activate_pair(x8, y);
  RefinedState s = rs.initial();
  s = rs.advance(s, u);
  EXPECT_TRUE(rs.blocked(s, y));  // justified through x6's deadline
}

TEST(RefinedSystem, StateHashingConsistent) {
  const Module m = gallery::intro_example();
  const ChokeIndex index(m.ts(), {});
  RefinedSystem rs(m.ts(), index);
  rs.enable_age_rule(true);
  rs.activate_pair(m.ts().event_by_label("b"), m.ts().event_by_label("d"));
  const RefinedState a = rs.initial();
  const RefinedState b = rs.initial();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.gaps.empty());
  // Two equal states intern to one id and one key.
  RefinedGraph graph(rs);
  const auto first = graph.intern(a);
  const auto second = graph.intern(b);
  EXPECT_TRUE(first.second);
  EXPECT_FALSE(second.second);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_EQ(graph.num_keys(), 1u);
}

}  // namespace
}  // namespace rtv
