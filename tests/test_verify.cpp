#include "rtv/verify/refinement.hpp"

#include <gtest/gtest.h>

#include "engine_support.hpp"
#include "rtv/verify/containment.hpp"
#include "rtv/verify/report.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

using test::decide;
using test::refine_stats;

TEST(Verify, IntroExampleVerifiesWithRefinements) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GE(refine_stats(r).refinements, 1);
  EXPECT_FALSE(refine_stats(r).constraints().empty());
}

TEST(Verify, BrokenDelaysGiveCounterexample) {
  TransitionSystem ts = gallery::intro_example().ts();
  ts.set_event_delay(ts.event_by_label("g"), DelayInterval::units(10, 20));
  ts.set_event_delay(ts.event_by_label("d"), DelayInterval::units(0, 1));
  const Module sys("intro-broken", std::move(ts));
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad});
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  ASSERT_TRUE(refine_stats(r).counterexample.has_value());
  EXPECT_FALSE(r.message.empty());
  EXPECT_FALSE(r.trace_labels.empty());
}

TEST(Verify, UntimedlyCorrectNeedsNoRefinement) {
  // Property "x before y" on a chain x -> y holds untimed.
  const Module sys = gallery::chain({{"x", DelayInterval::units(1, 2)},
                                     {"y", DelayInterval::units(1, 2)}});
  const Module mon = gallery::order_monitor("x", "y");
  const InvariantProperty bad("x before y", {{"fail", true}});
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_EQ(refine_stats(r).refinements, 0);
}

TEST(Verify, DeadlockIsACounterexampleWhenTimingConsistent) {
  const Module sys = gallery::chain({{"x", DelayInterval::units(1, 2)}});
  const DeadlockFreedom dead;
  const EngineResult r = decide("refine", {&sys}, {&dead});
  EXPECT_EQ(r.verdict, Verdict::kViolated);
}

TEST(Verify, PersistencyGlitchPrunedByTiming) {
  // x [1,2] vs disabling y [5,6]: the glitch is untimed-reachable but
  // timing-impossible.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const EventId x = ts.add_event("x", DelayInterval::units(1, 2));
  const EventId y = ts.add_event("y", DelayInterval::units(5, 6));
  const EventId idle = ts.add_event("idle", DelayInterval::units(1, 2));
  ts.add_transition(s0, x, s1);
  ts.add_transition(s0, y, s2);
  ts.add_transition(s1, y, s2);
  ts.add_transition(s2, idle, s2);  // keep the system alive
  ts.set_initial(s0);
  const Module sys("glitch", std::move(ts));
  const PersistencyProperty pers;
  const EngineResult r = decide("refine", {&sys}, {&pers});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GE(refine_stats(r).refinements, 1);
}

TEST(Verify, StructuralRuleOffStillSoundJustSlower) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const RefineEngine windows_only(/*structural_rule=*/false);
  const EngineResult r = decide(windows_only, {&sys, &mon}, {&bad});
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  // Window observers only: at least as many iterations.
  const EngineResult fast = decide("refine", {&sys, &mon}, {&bad});
  EXPECT_GE(refine_stats(r).refinements, refine_stats(fast).refinements);
}

TEST(Verify, ContainmentAcceptsRefinement) {
  // A chain "a;b" is contained in a more permissive spec that allows a and
  // b in any order repeatedly.
  const Module impl = gallery::chain({{"a", DelayInterval::units(1, 2)},
                                      {"b", DelayInterval::units(1, 2)}});
  TransitionSystem spec;
  const StateId s = spec.add_state();
  spec.add_transition(s, spec.add_event("a", DelayInterval::unbounded(),
                                        EventKind::kOutput), s);
  spec.add_transition(s, spec.add_event("b", DelayInterval::unbounded(),
                                        EventKind::kOutput), s);
  spec.set_initial(s);
  const Module abs("spec", std::move(spec));
  const EngineResult r = check_containment({&impl}, abs);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
}

TEST(Verify, ContainmentRejectsForbiddenOutput) {
  // Implementation emits c which the abstraction never produces.
  TransitionSystem its;
  const StateId i0 = its.add_state();
  const StateId i1 = its.add_state();
  its.add_transition(i0, its.add_event("c", DelayInterval::units(1, 2),
                                       EventKind::kOutput), i1);
  its.add_transition(i1, its.event_by_label("c"), i1);
  its.set_initial(i0);
  const Module impl("impl", std::move(its));

  TransitionSystem ats;
  const StateId a0 = ats.add_state();
  ats.add_transition(a0, ats.add_event("d", DelayInterval::unbounded(),
                                       EventKind::kOutput), a0);
  // The abstraction also knows the label c but never enables it after one
  // occurrence... simpler: it has c nowhere enabled.
  ats.add_event("c", DelayInterval::unbounded(), EventKind::kOutput);
  ats.set_initial(a0);
  const Module abs("spec", std::move(ats));

  const EngineResult r = check_containment({&impl}, abs);
  EXPECT_EQ(r.verdict, Verdict::kViolated);
  EXPECT_NE(r.message.find("refusal"), std::string::npos);
}

TEST(Verify, TimedContainmentNeedsRefinement) {
  // Implementation: the diamond race x [1,2] / y [5,6]; abstraction
  // requires x before y.  Untimed the refusal is reachable, timed not.
  // The checked events must be outputs for refusals to register as chokes.
  Module impl = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                 DelayInterval::units(5, 6));
  impl.ts().set_event_kind(impl.ts().event_by_label("x"), EventKind::kOutput);
  impl.ts().set_event_kind(impl.ts().event_by_label("y"), EventKind::kOutput);
  TransitionSystem ats;
  const StateId a0 = ats.add_state();
  const StateId a1 = ats.add_state();
  const StateId a2 = ats.add_state();
  ats.add_transition(a0, ats.add_event("x", DelayInterval::unbounded(),
                                       EventKind::kOutput), a1);
  ats.add_transition(a1, ats.add_event("y", DelayInterval::unbounded(),
                                       EventKind::kOutput), a2);
  ats.set_initial(a0);
  const Module abs("x-then-y", std::move(ats));
  const EngineResult r = check_containment({&impl}, abs);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GE(refine_stats(r).refinements, 1);
}

TEST(Verify, VerdictAgreesWithZoneEngineOnIntro) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult rt = decide("refine", {&sys, &mon}, {&bad});
  const EngineResult zn = decide("zone", {&sys, &mon}, {&bad});
  EXPECT_EQ(rt.verdict, zn.verdict);
}

TEST(Verify, ReportFormatting) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad});
  const std::string report = format_report("intro", r);
  EXPECT_NE(report.find("VERIFIED"), std::string::npos);
  EXPECT_NE(report.find("refinements"), std::string::npos);
  const std::string cs = format_constraints(r);
  EXPECT_FALSE(cs.empty());
  SuiteReport suite_report;
  SuiteRecord rec;
  rec.obligation = "intro";
  rec.engine = "refine";
  rec.result = r;
  suite_report.records.push_back(rec);
  const std::string table = format_table(suite_report);
  EXPECT_NE(table.find("intro"), std::string::npos);
}

TEST(Verify, RefinementBudgetGivesInconclusive) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  EngineRequest req;
  req.max_refinements = 0;
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad}, req);
  EXPECT_EQ(r.verdict, Verdict::kInconclusive);
  EXPECT_EQ(r.truncated_reason, stop_reason::kRefinementBudget);
}

}  // namespace
}  // namespace rtv
