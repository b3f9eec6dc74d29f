// The unified engine seam (rtv/verify/engine.hpp):
//
//   * registry enumeration and lookup,
//   * verdict parity of all three engines on the Fig. 1 gallery system,
//     on a boundary-2 obligation of the 2-stage IPCMOS pipeline and on a
//     race whose constants scale by k, each engine reading the same
//     composition,
//   * budgets: a 1-state budget never yields kVerified (the truncation
//     regression), a truncated run never reports more states than its
//     budget, a tiny wall-clock deadline stops a run, and a
//     CancelToken fired from the progress callback stops a run mid-way —
//     always surfacing as Verdict::kInconclusive,
//   * the contract's precondition: no or a truncated composition throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "engine_support.hpp"
#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv {
namespace {

const Engine* engine(const char* name) {
  const Engine* e = engine_registry().find(name);
  EXPECT_NE(e, nullptr) << name;
  return e;
}

TEST(EngineRegistry, EnumeratesTheThreeBuiltInEngines) {
  const auto names = engine_registry().names();
  EXPECT_NE(std::find(names.begin(), names.end(), "refine"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "zone"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "discrete"), names.end());
  EXPECT_EQ(engine_registry().engines().size(), names.size());
  for (const Engine* e : engine_registry().engines()) {
    EXPECT_EQ(engine_registry().find(e->name()), e);
    EXPECT_FALSE(e->description().empty());
  }
  EXPECT_EQ(engine_registry().find("no-such-engine"), nullptr);
}

TEST(EngineParity, Fig1GalleryVerifiedByAllEngines) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req = test::request(comp, {&bad});
  for (const Engine* e : engine_registry().engines()) {
    const EngineResult r = e->run(req);
    EXPECT_EQ(r.verdict, Verdict::kVerified) << e->name();
    EXPECT_TRUE(r.truncated_reason.empty()) << e->name();
    EXPECT_GT(r.states_explored, 0u) << e->name();
  }
}

TEST(EngineParity, Fig1ReversedOrderViolatedByAllEngines) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("d", "g");
  const InvariantProperty bad("d before g", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req = test::request(comp, {&bad});
  for (const Engine* e : engine_registry().engines()) {
    const EngineResult r = e->run(req);
    EXPECT_EQ(r.verdict, Verdict::kViolated) << e->name();
    EXPECT_FALSE(r.message.empty()) << e->name();
  }
}

TEST(EngineParity, IpcmosBoundary2OfTwoStagePipeline) {
  // The 2-stage pipeline's boundary-2 obligation (the induction base,
  // experiment 3): IN || I1 || A_out(2) must stay within A_in(2), which
  // runs as a monitor so refusals surface as chokes.
  const ipcmos::PipelineTiming t;
  const Module in = ipcmos::make_in_env(t);
  const Module stage = ipcmos::make_stage(1, t);
  const Module aout = ipcmos::make_aout(2);
  const Module ain = ipcmos::make_ain(2);
  const Module mon = ain.as_monitor("Ain2'");
  const DeadlockFreedom dead;
  const PersistencyProperty pers;
  const Composition comp =
      test::compose_for_engines({&in, &stage, &aout, &mon});
  EngineRequest req = test::request(comp, {&dead, &pers});
  for (const Engine* e : engine_registry().engines()) {
    const EngineResult r = e->run(req);
    EXPECT_EQ(r.verdict, Verdict::kVerified) << e->name() << ": " << r.message;
  }
}

TEST(EngineParity, ScaledRaceAgreesAndRefineZoneCostIsFlatInConstants) {
  // A 3-way race with every constant scaled by k (the paper's Section 1
  // argument): the engines agree at every k that "a before c" is
  // violated, and relative timing and zones explore as much at k = 8 as at
  // k = 1.  The digitized engine's growth with k is
  // Discrete.StateCountScalesWithConstants.
  for (int k = 1; k <= 8; k *= 2) {
    SCOPED_TRACE(k);
    const Module sys = gallery::scaled_race(k);
    const Module mon = gallery::order_monitor("a", "c");
    const InvariantProperty bad("a before c", {{"fail", true}});
    const Composition comp = test::compose_for_engines({&sys, &mon});
    EngineRequest req = test::request(comp, {&bad});
    const EngineResult refine = engine("refine")->run(req);
    const EngineResult zone = engine("zone")->run(req);
    const EngineResult discrete = engine("discrete")->run(req);
    EXPECT_EQ(refine.verdict, Verdict::kViolated) << refine.message;
    EXPECT_EQ(zone.verdict, refine.verdict);
    EXPECT_EQ(discrete.verdict, refine.verdict);
    EXPECT_EQ(refine.states_explored, 7u);
    EXPECT_EQ(zone.states_explored, 7u);
  }
}

TEST(EngineBudget, OneStateBudgetIsNeverVerified) {
  // Regression for the verdict-semantics drift: a truncated run used to
  // surface as violated=false, which callers read as "verified".  The
  // deadlock property also guards against the dual failure mode: states
  // left on a truncated run's frontier must not be reported as (spurious)
  // deadlock violations.
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const DeadlockFreedom dead;
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req = test::request(comp, {&bad, &dead});
  req.budget.max_states = 1;
  for (const Engine* e : engine_registry().engines()) {
    const EngineResult r = e->run(req);
    EXPECT_NE(r.verdict, Verdict::kVerified) << e->name();
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << e->name();
    EXPECT_FALSE(r.truncated_reason.empty()) << e->name();
  }
}

TEST(EngineBudget, TruncatedRunsStayWithinTheStateBudget) {
  // Two free-running rings: a 30-state product where every state fires
  // two events, so a budget runs out in the middle of a state's
  // expansion.  The budget is a ceiling on every engine: a truncated run
  // reports at most max_states states.
  const DelayInterval fast = DelayInterval::units(1, 2);
  const DelayInterval slow = DelayInterval::units(1, 3);
  Module left = gallery::ring(
      {{"a0", fast}, {"a1", fast}, {"a2", fast}, {"a3", fast}, {"a4", fast}});
  left.set_name("left");
  Module right = gallery::ring({{"b0", slow}, {"b1", slow}, {"b2", slow},
                                {"b3", slow}, {"b4", slow}, {"b5", slow}});
  right.set_name("right");
  const DeadlockFreedom dead;
  const Composition comp = test::compose_for_engines({&left, &right});
  ASSERT_EQ(comp.ts.num_states(), 30u);
  for (const std::size_t budget : {1u, 5u, 20u}) {
    EngineRequest req = test::request(comp, {&dead});
    req.budget.max_states = budget;
    for (const Engine* e : engine_registry().engines()) {
      const EngineResult r = e->run(req);
      EXPECT_EQ(r.verdict, Verdict::kInconclusive)
          << e->name() << " " << budget;
      EXPECT_EQ(r.truncated_reason, stop_reason::kStateBudget)
          << e->name() << " " << budget;
      EXPECT_LE(r.states_explored, budget) << e->name();
      EXPECT_GT(r.states_explored, 0u) << e->name();
    }
  }
}

TEST(EngineContract, MissingOrTruncatedCompositionThrows) {
  // A truncated product has frontier states without outgoing transitions;
  // exploring it would fabricate deadlocks, so every engine refuses it.
  const Module sys = gallery::intro_example();
  const DeadlockFreedom dead;
  ComposeOptions co;
  co.track_chokes = true;
  co.max_states = 1;
  const Composition truncated = compose({&sys}, co);
  ASSERT_TRUE(truncated.truncated);
  EngineRequest none;
  none.properties = {&dead};
  EngineRequest cut = none;
  cut.composition = &truncated;
  for (const Engine* e : engine_registry().engines()) {
    EXPECT_THROW(e->run(none), std::invalid_argument) << e->name();
    EXPECT_THROW(e->run(cut), std::invalid_argument) << e->name();
  }
}

TEST(EngineBudget, DeadlineStopsRunEarlyWithInconclusive) {
  const Module sys = gallery::scaled_race(64);
  const Module mon = gallery::order_monitor("a", "c");
  const InvariantProperty bad("a before c", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req = test::request(comp, {&bad});
  req.budget.max_seconds = 1e-9;  // expires before the first state pops
  for (const Engine* e : engine_registry().engines()) {
    const EngineResult r = e->run(req);
    EXPECT_EQ(r.verdict, Verdict::kInconclusive) << e->name();
    EXPECT_EQ(r.truncated_reason, stop_reason::kDeadline) << e->name();
  }
}

TEST(EngineBudget, CancelTokenStopsRunEarlyWithInconclusive) {
  const Module sys = gallery::scaled_race(64);
  const Module mon = gallery::order_monitor("a", "c");
  const InvariantProperty bad("a before c", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});

  // Pre-cancelled token: every engine refuses to explore.
  {
    CancelToken token;
    token.cancel();
    EngineRequest req = test::request(comp, {&bad});
    req.budget.cancel = &token;
    for (const Engine* e : engine_registry().engines()) {
      const EngineResult r = e->run(req);
      EXPECT_EQ(r.verdict, Verdict::kInconclusive) << e->name();
      EXPECT_EQ(r.truncated_reason, stop_reason::kCancelled) << e->name();
    }
  }

  // Cancellation fired from the progress callback: the digitized engine
  // (thousands of configs on this system) must stop mid-run.
  {
    CancelToken token;
    std::size_t callbacks = 0;
    EngineRequest req = test::request(comp, {&bad});
    req.budget.cancel = &token;
    req.progress_interval = 16;
    req.progress = [&](const EngineProgress& p) {
      ++callbacks;
      EXPECT_EQ(p.engine, "discrete");
      token.cancel();
    };
    EngineRequest unbudgeted = test::request(comp, {&bad});
    const EngineResult full = engine("discrete")->run(unbudgeted);
    const EngineResult r = engine("discrete")->run(req);
    EXPECT_GE(callbacks, 1u);
    EXPECT_EQ(r.verdict, Verdict::kInconclusive);
    EXPECT_EQ(r.truncated_reason, stop_reason::kCancelled);
    EXPECT_LT(r.states_explored, full.states_explored);
  }
}

TEST(EngineProgressApi, AllThreeEnginesFireProgressWithMetricsSnapshot) {
  // Parity regression: every registered engine must drive its RunClock so
  // the progress callback fires, names the right engine, reports a
  // nonzero state count, and (metrics being enabled by default) carries a
  // metrics snapshot valid for the callback's duration.  No monotonicity
  // across fires: refine restarts its exploration every refinement
  // iteration, so the count legitimately resets within one run.
  const Module sys = gallery::scaled_race(64);
  const Module mon = gallery::order_monitor("a", "c");
  const InvariantProperty bad("a before c", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  for (const Engine* e : engine_registry().engines()) {
    std::size_t fires = 0;
    bool saw_metrics = false;
    EngineRequest req = test::request(comp, {&bad});
    req.budget.max_states = 4096;  // bounded: progress parity, not verdicts
    // Interval 1 fires on every tick: the zone and refine explorations
    // finish this system in fewer than a default interval's worth of
    // states, and the contract under test is that they tick at all.
    req.progress_interval = 1;
    req.progress = [&](const EngineProgress& p) {
      ++fires;
      EXPECT_EQ(p.engine, e->name());
      EXPECT_GE(p.states_explored, 1u);
      if (p.metrics != nullptr) saw_metrics = true;
    };
    (void)e->run(req);
    EXPECT_GE(fires, 1u) << e->name();
    EXPECT_TRUE(saw_metrics) << e->name();
  }
}

TEST(EngineResultApi, VerdictHelpersAndStats) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req = test::request(comp, {&bad});

  const EngineResult rt = engine("refine")->run(req);
  EXPECT_TRUE(rt.verified());
  EXPECT_FALSE(rt.violated());
  EXPECT_FALSE(rt.inconclusive());
  const auto* rst = std::get_if<RefineEngineStats>(&rt.stats);
  ASSERT_NE(rst, nullptr);
  EXPECT_GT(rst->composed_states, 0u);
  EXPECT_FALSE(rst->constraints().empty());

  EXPECT_EQ(rt.discrete_states, 0u);

  // The exact engines carry no engine-specific stats.
  const EngineResult zn = engine("zone")->run(req);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(zn.stats));
  EXPECT_GT(zn.states_explored, 0u);
  EXPECT_GT(zn.discrete_states, 0u);

  const EngineResult dg = engine("discrete")->run(req);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(dg.stats));
  EXPECT_GT(dg.states_explored, 0u);
  EXPECT_GT(dg.discrete_states, 0u);
}

TEST(EngineResultApi, ViolationCarriesTraceLabels) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("d", "g");
  const InvariantProperty bad("d before g", {{"fail", true}});
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req = test::request(comp, {&bad});
  // The exact engines unwind a concrete timed trace; refine reports the
  // counterexample firing sequence.
  for (const char* name : {"refine", "zone", "discrete"}) {
    const EngineResult r = engine(name)->run(req);
    ASSERT_EQ(r.verdict, Verdict::kViolated) << name;
    EXPECT_FALSE(r.trace_labels.empty()) << name;
  }
}

}  // namespace
}  // namespace rtv
