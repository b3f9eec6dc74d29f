// Cross-module integration tests: simulation runs stay inside the timed
// (zone-reachable) state space; the refined graph reproduces the
// Fig. 1(c,d) pruning; STG-file environments verify end to end.
#include <gtest/gtest.h>

#include <set>

#include "engine_support.hpp"
#include "rtv/lazy/refined_system.hpp"
#include "rtv/sim/simulator.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"
#include "rtv/stg/library.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/failure_search.hpp"
#include "rtv/verify/refinement.hpp"

namespace rtv {
namespace {

using test::decide;
using test::refine_stats;
using test::walk_refined;

TEST(Integration, SimulationVisitsOnlyZoneReachableStates) {
  // Every discrete state visited by a timed simulation must be reachable
  // in the zone graph (the simulator implements the same TTS semantics).
  const Module sys = gallery::intro_example();
  const EngineResult z = decide("zone", {&sys}, {});
  ASSERT_FALSE(z.violated());
  const std::size_t timed_states = z.discrete_states;

  // Collect simulated discrete states over many seeds.
  std::set<StateId::underlying_type> visited;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    SimOptions opts;
    opts.seed = seed;
    const SimTrace t = simulate(sys.ts(), opts);
    for (const SimEvent& e : t.events) visited.insert(e.state_after.value());
  }
  // The zone engine reports how many discrete states are timed-reachable;
  // simulation can never exceed that.
  EXPECT_LE(visited.size() + 1, timed_states + 1);
  EXPECT_GE(timed_states, visited.size());
}

TEST(Integration, MaterializedLazySystemShrinksPerRefinement) {
  // Manually replay the intro example's refinement sequence and check the
  // lazy product prunes firings (Fig. 1(c,d): fewer and fewer traces).
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad});
  ASSERT_EQ(r.verdict, Verdict::kVerified);

  // Rebuild the composition and apply the derived orderings.
  const Composition comp = compose({&sys, &mon});
  RefinedSystem refined(comp.ts, comp.index());
  refined.enable_age_rule(true);
  for (const DerivedOrdering& o : refine_stats(r).constraints()) {
    refined.activate_pair(comp.ts.event_by_label(o.before),
                          comp.ts.event_by_label(o.after));
  }
  RefinedGraph graph(refined);
  EXPECT_GT(walk_refined(graph).blocked_firings, 0u);
  // The bad state (fail signal) is unreachable in the refined system.
  const std::size_t fail_idx = comp.ts.signal_index("fail");
  ASSERT_NE(fail_idx, static_cast<std::size_t>(-1));
  for (std::int32_t id = 0; static_cast<std::size_t>(id) < graph.size(); ++id) {
    EXPECT_FALSE(comp.ts.valuation(graph.base_state(id)).test(fail_idx));
  }
  const std::vector<const SafetyProperty*> props{&bad};
  const SafetyChecks checks(comp, props);
  FailureSearchStats stats;
  EXPECT_FALSE(
      FailureSearch().run(graph, checks, 1'000'000, &stats).has_value());
  EXPECT_FALSE(stats.truncated);
}

TEST(Integration, AstgEnvironmentVerifiesAgainstAbstraction) {
  // Round-trip the A_out abstraction through the .g format and use the
  // parsed copy as the monitor of a containment check: a pulse-paced IN
  // driving OUT refines A_out.  The check is genuinely *timed*: A_out
  // promises VALID+ after ACK+, which holds for IN only because the pulse
  // width (15+eps) exceeds the ACK response (<= 11) — the flow must derive
  // that ordering.
  const Stg aout_stg = stg_library::make_aout("V", "A");
  const Stg parsed = parse_astg_string(write_astg(aout_stg));
  const Module abstraction = elaborate(parsed);
  const Module out = stg_library::out_module("V", "A");
  const Module producer = stg_library::in_module("V", "A");

  const Module monitor = abstraction.as_monitor("Aout'");
  const DeadlockFreedom dead;
  const EngineResult r = decide("refine", {&producer, &out, &monitor}, {&dead});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GE(refine_stats(r).refinements, 1);
}

TEST(Integration, ComposedDelayTighteningAffectsVerdict) {
  // The same diamond race is safe only because composition intersects the
  // producer's delays with a tighter listener annotation.
  Module impl = gallery::diamond("x", DelayInterval::units(1, 9), "y",
                                 DelayInterval::units(5, 6));
  // Untimed-ish x [1,9] overlaps y [5,6]: race can go either way.
  {
    const Module mon = gallery::order_monitor("x", "y");
    const InvariantProperty bad("x first", {{"fail", true}});
    const EngineResult r = decide("refine", {&impl, &mon}, {&bad});
    EXPECT_EQ(r.verdict, Verdict::kViolated);
  }
  // A participant declaring x in [1,2] tightens the composed event.
  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  lts.add_transition(
      l0, lts.add_event("x", DelayInterval::units(1, 2), EventKind::kInput), l1);
  lts.add_transition(
      l1, lts.add_event("y", DelayInterval::unbounded(), EventKind::kInput), l1);
  // Accept y anywhere so the listener never blocks it... also at l0.
  lts.add_transition(l0, lts.event_by_label("y"), l0);
  lts.set_initial(l0);
  const Module listener("tight-x", std::move(lts));
  {
    const Module mon = gallery::order_monitor("x", "y");
    const InvariantProperty bad("x first", {{"fail", true}});
    const EngineResult r = decide("refine", {&impl, &listener, &mon}, {&bad});
    EXPECT_EQ(r.verdict, Verdict::kVerified);
  }
}

TEST(Integration, WaveCapKeepsVerdictSound) {
  // Tight wave caps lose precision but never soundness: the verdict stays
  // VERIFIED (possibly with more refinements) on the intro example.
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  for (std::size_t cap : {2u, 3u, 6u}) {
    const RefineEngine capped(/*structural_rule=*/true, /*max_waves=*/cap);
    const EngineResult r = decide(capped, {&sys, &mon}, {&bad});
    EXPECT_EQ(r.verdict, Verdict::kVerified) << "cap " << cap;
  }
}

}  // namespace
}  // namespace rtv
