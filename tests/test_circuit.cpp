#include "rtv/circuit/elaborate.hpp"
#include "rtv/circuit/invariants.hpp"
#include "rtv/circuit/netlist.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "rtv/base/hash.hpp"
#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/ipcmos/topologies.hpp"

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

/// Content digest of an elaborated module: its name, signal names, events
/// (label, delay, kind), initial state, and per state its name, valuation
/// and transitions in order.
std::uint64_t digest(const Module& m) {
  const TransitionSystem& ts = m.ts();
  Fnv1a h;
  h.str(m.name());
  h.u64(ts.signal_names().size());
  for (const std::string& s : ts.signal_names()) h.str(s);
  h.u64(ts.num_events());
  for (std::size_t i = 0; i < ts.num_events(); ++i) {
    const Event& e = ts.event(EventId(static_cast<EventId::underlying_type>(i)));
    h.str(e.label).i64(e.delay.lo()).i64(e.delay.hi());
    h.u64(static_cast<std::uint64_t>(e.kind));
  }
  h.u64(ts.num_states()).u64(ts.initial().value());
  for (std::size_t q = 0; q < ts.num_states(); ++q) {
    const StateId s(static_cast<StateId::underlying_type>(q));
    h.str(ts.state_name(s)).str(ts.valuation(s).to_string());
    h.u64(ts.transitions_from(s).size());
    for (const Transition& t : ts.transitions_from(s))
      h.u64(t.event.value()).u64(t.target.value());
  }
  return h.digest();
}

TEST(Circuit, ElaborationIsPinned) {
  // State numbering, transition order, valuations (with the SC_* flags),
  // events and signal names of the IPCMOS stage, join and fork modules,
  // pinned from the first elaborator.
  const Module stage = ipcmos::make_stage(1);
  EXPECT_EQ(stage.ts().num_states(), 3584u);
  EXPECT_EQ(stage.ts().num_transitions(), 20736u);
  EXPECT_EQ(digest(stage), 0x2f3a13ae010e0b12ull);
  EXPECT_EQ(digest(elaborate(ipcmos::make_join_netlist())), 0x0e80b5e328b0226dull);
  EXPECT_EQ(digest(elaborate(ipcmos::make_fork_netlist())), 0x6bd66c47434240ffull);
  EXPECT_EQ(digest(elaborate(inverter())), 0x040eb8b72fd8f7b9ull);
}

TEST(Circuit, StateBudgetThrowsExactlyWhenExceeded) {
  // The budget caps the reachable valuations: a run with exactly as many
  // states succeeds, one state fewer throws.
  const Netlist nl = ipcmos::make_stage_netlist(
      "I1", ipcmos::linear_channels(1), ipcmos::StageTiming{});
  CircuitElaborateOptions opts;
  opts.max_states = 3584;
  EXPECT_EQ(elaborate(nl, opts).ts().num_states(), 3584u);
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1},
                                   std::size_t{100}, std::size_t{3583}}) {
    opts.max_states = budget;
    try {
      elaborate(nl, opts);
      ADD_FAILURE() << "max_states " << budget << " did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "circuit 'I1': state budget exhausted");
    }
  }
  opts.max_states = 4;
  EXPECT_EQ(elaborate(inverter(), opts).ts().num_states(), 4u);
  opts.max_states = 3;
  EXPECT_THROW(elaborate(inverter(), opts), std::runtime_error);
}

}  // namespace
}  // namespace rtv
