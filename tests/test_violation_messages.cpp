// The three engines word a violation the same way.  They judge states,
// firings and refusals through one SafetyChecks table per run
// (rtv/verify/property.hpp), so zone and discrete report the same message
// byte for byte, and refine's message is that description followed by
// " via " and the trace.  Discrete runs on four workers, which share the
// table's memo (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine_support.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

/// Decide `modules` on every engine; each must report a violation whose
/// description is `expected`.
void expect_message(const std::vector<const Module*>& modules,
                    std::vector<const SafetyProperty*> properties,
                    const std::string& expected) {
  const Composition comp = test::compose_for_engines(modules);
  EngineRequest req = test::request(comp, std::move(properties));
  const EngineResult zone = engine_registry().find("zone")->run(req);
  const EngineResult refine = engine_registry().find("refine")->run(req);
  req.jobs = 4;
  const EngineResult discrete = engine_registry().find("discrete")->run(req);
  ASSERT_TRUE(zone.violated()) << zone.message;
  ASSERT_TRUE(discrete.violated()) << discrete.message;
  ASSERT_TRUE(refine.violated()) << refine.message;
  EXPECT_EQ(zone.message, expected);
  EXPECT_EQ(discrete.message, zone.message);
  EXPECT_EQ(refine.message.rfind(zone.message + " via ", 0), 0u)
      << refine.message;
}

TEST(ViolationMessages, Invariant) {
  // g always fires before d, so a monitor for "d before g" fails.
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("d", "g");
  const InvariantProperty bad("d before g", {{"fail", true}});
  expect_message({&sys, &mon}, {&bad}, "invariant 'd before g' violated: fail");
}

TEST(ViolationMessages, InvariantOnWideLayers) {
  // a always fires first, but only after 10 time units; meanwhile two free
  // running rings give the digitized search about 150 configs per layer,
  // enough to split each layer across the workers.
  const Module sys = gallery::chain(
      {{"a", DelayInterval::units(10, 12)}, {"b", DelayInterval::units(1, 2)}});
  const Module mon = gallery::order_monitor("b", "a");
  const Module p = gallery::ring({{"p", DelayInterval::units(1, 3)}});
  const Module q = gallery::ring({{"q", DelayInterval::units(1, 4)}});
  const InvariantProperty bad("b before a", {{"fail", true}});
  expect_message({&sys, &mon, &p, &q}, {&bad},
                 "invariant 'b before a' violated: fail");
}

TEST(ViolationMessages, Deadlock) {
  const Module sys = gallery::chain(
      {{"a", DelayInterval::units(1, 2)}, {"b", DelayInterval::units(1, 2)}});
  const DeadlockFreedom dead;
  expect_message({&sys}, {&dead}, "deadlock");
}

TEST(ViolationMessages, Persistency) {
  // x and y are in conflict; x's deadline passes before y may fire, so
  // the only violation is x disabling y.  The gallery has no conflict
  // shape, hence the hand-built system.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const EventId x =
      ts.add_event("x", DelayInterval::units(1, 2), EventKind::kOutput);
  const EventId y =
      ts.add_event("y", DelayInterval::units(3, 4), EventKind::kOutput);
  ts.add_transition(s0, x, ts.add_state());
  ts.add_transition(s0, y, ts.add_state());
  ts.set_initial(s0);
  const Module sys("conflict", std::move(ts));
  const PersistencyProperty pers;
  expect_message({&sys}, {&pers}, "persistency violated: y disabled by x");
}

TEST(ViolationMessages, Refusal) {
  // The producer repeats x; the listener accepts it once.
  Module producer = gallery::ring({{"x", DelayInterval::units(1, 2)}});
  producer.ts().set_event_kind(producer.ts().event_by_label("x"),
                               EventKind::kOutput);
  const Module once = gallery::chain({{"x", DelayInterval::unbounded()}})
                          .as_monitor("once");
  expect_message({&producer, &once}, {},
                 "refusal: output 'x' not accepted (containment violation)");
}

}  // namespace
}  // namespace rtv
