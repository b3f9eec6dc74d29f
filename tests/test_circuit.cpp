#include "rtv/circuit/elaborate.hpp"
#include "rtv/circuit/invariants.hpp"
#include "rtv/circuit/netlist.hpp"

#include <gtest/gtest.h>

namespace rtv {
namespace {

/// A CMOS inverter with an environment-driven input.
Netlist inverter() {
  Netlist nl("inverter");
  const NodeId in = nl.add_node("in", false, /*input=*/true);
  const NodeId out = nl.add_node("out", true, false, /*boundary=*/true);
  nl.pull_up(out, nl.exprs().lit(in, false), DelayInterval::units(1, 2), 1);
  nl.pull_down(out, nl.exprs().lit(in, true), DelayInterval::units(1, 2), 1);
  return nl;
}

TEST(Circuit, InverterElaboration) {
  const Module m = elaborate(inverter());
  const TransitionSystem& ts = m.ts();
  // States: (in, out) reachable = 00 is transient... initial (0,1) stable;
  // in+ -> (1,1) -> out- -> (1,0) -> in- -> (0,0) -> out+ -> (0,1).
  EXPECT_EQ(ts.num_states(), 4u);
  EXPECT_EQ(ts.event(ts.event_by_label("in+")).kind, EventKind::kInput);
  EXPECT_EQ(ts.event(ts.event_by_label("out-")).kind, EventKind::kOutput);
  EXPECT_EQ(ts.delay(ts.event_by_label("out-")), DelayInterval::units(1, 2));
  // Initial state is stable: only the input can move.
  EXPECT_EQ(ts.enabled_events(ts.initial()).size(), 1u);
}

TEST(Circuit, InverterNeverShortCircuits) {
  const Netlist nl = inverter();
  // Guards are complementary: no short-circuit candidates... the node has
  // both stacks, so it IS a candidate, but the SC flag never raises.
  ASSERT_EQ(nl.short_circuit_candidates().size(), 1u);
  const Module m = elaborate(nl);
  const std::size_t sc = m.ts().signal_index("SC_out");
  ASSERT_NE(sc, static_cast<std::size_t>(-1));
  for (StateId s : m.ts().reachable_states()) {
    EXPECT_FALSE(m.ts().valuation(s).test(sc));
  }
}

TEST(Circuit, ShortCircuitFlagRaises) {
  // Both stacks gated by the same polarity: in high -> contest.
  Netlist nl("contest");
  const NodeId in = nl.add_node("in", false, true);
  const NodeId out = nl.add_node("out", false);
  nl.pull_up(out, nl.exprs().lit(in, true), DelayInterval::units(1, 2), 1);
  nl.pull_down(out, nl.exprs().lit(in, true), DelayInterval::units(1, 2), 1);
  const Module m = elaborate(nl);
  const std::size_t sc = m.ts().signal_index("SC_out");
  const StateId bad =
      *m.ts().successor(m.ts().initial(), m.ts().event_by_label("in+"));
  EXPECT_TRUE(m.ts().valuation(bad).test(sc));
  // Contested node does not transition.
  EXPECT_FALSE(m.ts().is_enabled(bad, m.ts().event_by_label("out+")));
  EXPECT_FALSE(m.ts().is_enabled(bad, m.ts().event_by_label("out-")));
}

TEST(Circuit, ShortCircuitPropertiesDetect) {
  Netlist nl("contest");
  const NodeId in = nl.add_node("in", false, true);
  const NodeId out = nl.add_node("out", false);
  nl.pull_up(out, nl.exprs().lit(in, true), DelayInterval::units(1, 2), 1);
  nl.pull_down(out, nl.exprs().lit(in, true), DelayInterval::units(1, 2), 1);
  const Module m = elaborate(nl);
  const auto props = short_circuit_properties(nl);
  ASSERT_EQ(props.size(), 1u);
  const StateId bad =
      *m.ts().successor(m.ts().initial(), m.ts().event_by_label("in+"));
  const auto enabled = m.ts().enabled_events(bad);
  const PropertyContext ctx{m.ts(), bad, enabled};
  EXPECT_TRUE(props[0]->check_state(ctx).has_value());
  const auto initial_enabled = m.ts().enabled_events(m.ts().initial());
  const PropertyContext ok{m.ts(), m.ts().initial(), initial_enabled};
  EXPECT_FALSE(props[0]->check_state(ok).has_value());
}

TEST(Circuit, WeakKeeperYieldsToStrongDriver) {
  // Node held high by an always-on weak keeper, pulled down strongly when
  // in is high: the strong stack wins, no contest event-wise.
  Netlist nl("keeper");
  const NodeId in = nl.add_node("in", false, true);
  const NodeId out = nl.add_node("out", true);
  nl.pull_up(out, nl.exprs().true_expr(), DelayInterval::units(1, 2), 1,
             /*weak=*/true);
  nl.pull_down(out, nl.exprs().lit(in, true), DelayInterval::units(1, 2), 1);
  const Module m = elaborate(nl);
  const TransitionSystem& ts = m.ts();
  StateId s = *ts.successor(ts.initial(), ts.event_by_label("in+"));
  ASSERT_TRUE(ts.is_enabled(s, ts.event_by_label("out-")));
  s = *ts.successor(s, ts.event_by_label("out-"));
  // Releasing the strong pull-down lets the keeper restore the node.
  s = *ts.successor(s, ts.event_by_label("in-"));
  EXPECT_TRUE(ts.is_enabled(s, ts.event_by_label("out+")));
}

TEST(Circuit, PassTransistorCopiesSource) {
  Netlist nl("pass");
  const NodeId gate = nl.add_node("gate", false, true);
  const NodeId src = nl.add_node("src", false, true);
  const NodeId dst = nl.add_node("dst", true);
  nl.pass(dst, src, nl.exprs().lit(gate, true), DelayInterval::units(1, 2), 1);
  const Module m = elaborate(nl);
  const TransitionSystem& ts = m.ts();
  // With gate on and src low, dst discharges.
  StateId s = *ts.successor(ts.initial(), ts.event_by_label("gate+"));
  EXPECT_TRUE(ts.is_enabled(s, ts.event_by_label("dst-")));
  // With gate off, dst holds (charge storage).
  const StateId hold = *ts.successor(ts.initial(), ts.event_by_label("src+"));
  EXPECT_FALSE(ts.is_enabled(hold, ts.event_by_label("dst-")));
  EXPECT_FALSE(ts.is_enabled(hold, ts.event_by_label("dst+")));
}

TEST(Circuit, TransistorCounting) {
  Netlist nl("count");
  const NodeId a = nl.add_node("a", false, true);
  const NodeId o = nl.add_node("o", true);
  nl.pull_up(o, nl.exprs().lit(a, false), DelayInterval::units(1, 2), 3);
  nl.pull_down(o, nl.exprs().lit(a, true), DelayInterval::units(1, 2), 4);
  EXPECT_EQ(nl.transistor_count(), 7);
}

TEST(Circuit, NodeLookup) {
  const Netlist nl = inverter();
  EXPECT_TRUE(nl.node_by_name("out").valid());
  EXPECT_FALSE(nl.node_by_name("nope").valid());
  EXPECT_TRUE(nl.is_input(nl.node_by_name("in")));
  EXPECT_TRUE(nl.is_boundary(nl.node_by_name("out")));
}

TEST(Circuit, InputNodesAlwaysReceptive) {
  const Module m = elaborate(inverter());
  const TransitionSystem& ts = m.ts();
  // From every reachable state, the input can toggle.
  for (StateId s : ts.reachable_states()) {
    const std::size_t in_idx = ts.signal_index("in");
    const bool value = ts.valuation(s).test(in_idx);
    const EventId e = ts.event_by_label(value ? "in-" : "in+");
    EXPECT_TRUE(ts.is_enabled(s, e));
  }
}

TEST(Circuit, SeriesStackGuard) {
  // Two-transistor series pull-down (NAND-style).
  Netlist nl("nand");
  const NodeId a = nl.add_node("a", false, true);
  const NodeId b = nl.add_node("b", false, true);
  const NodeId o = nl.add_node("o", true);
  ExprPool& xp = nl.exprs();
  nl.pull_down(o, xp.conj2(xp.lit(a, true), xp.lit(b, true)),
               DelayInterval::units(1, 2), 2);
  nl.pull_up(o, xp.disj2(xp.lit(a, false), xp.lit(b, false)),
             DelayInterval::units(1, 2), 2);
  const Module m = elaborate(nl);
  const TransitionSystem& ts = m.ts();
  StateId s = *ts.successor(ts.initial(), ts.event_by_label("a+"));
  EXPECT_FALSE(ts.is_enabled(s, ts.event_by_label("o-")));
  s = *ts.successor(s, ts.event_by_label("b+"));
  EXPECT_TRUE(ts.is_enabled(s, ts.event_by_label("o-")));
}

}  // namespace
}  // namespace rtv
