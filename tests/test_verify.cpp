#include "rtv/verify/refinement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <span>

#include "engine_support.hpp"
#include "rtv/base/log.hpp"
#include "rtv/fuzz/generator.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/timing/trace_timing.hpp"
#include "rtv/verify/failure_search.hpp"
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
  const Module mon = abs.as_monitor(abs.name() + "'");
  const EngineResult r = decide("refine", {&impl, &mon}, {});
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

  const Module mon = abs.as_monitor(abs.name() + "'");
  const EngineResult r = decide("refine", {&impl, &mon}, {});
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
  const Module mon = abs.as_monitor(abs.name() + "'");
  const EngineResult r = decide("refine", {&impl, &mon}, {});
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

// ---------------------------------------------------------------------------
// Graph reuse: a failure search on the graph a run keeps across iterations
// must agree exactly with a search on a fresh graph (the from-scratch
// reference) at every step of the refinement loop.  And the search the run
// keeps, resumed after every iteration's activations, must agree exactly
// with a fresh search on the same graph.

struct Search {
  std::optional<Failure> failure;
  FailureSearchStats stats;
};

Search search(RefinedGraph& graph, const SafetyChecks& checks) {
  Search s;
  s.failure =
      FailureSearch().run(graph, checks, kDefaultRefineStates, &s.stats);
  return s;
}

void expect_same(const Search& reused, const Search& fresh, std::size_t iter) {
  SCOPED_TRACE("iteration " + std::to_string(iter));
  EXPECT_EQ(reused.stats.states_explored, fresh.stats.states_explored);
  EXPECT_EQ(reused.stats.states_subsumed, fresh.stats.states_subsumed);
  EXPECT_EQ(reused.stats.truncated, fresh.stats.truncated);
  ASSERT_EQ(reused.failure.has_value(), fresh.failure.has_value());
  if (!fresh.failure) return;
  const Failure& a = *reused.failure;
  const Failure& b = *fresh.failure;
  EXPECT_EQ(a.description, b.description);
  EXPECT_EQ(a.virtual_event, b.virtual_event);
  ASSERT_EQ(a.trace.steps.size(), b.trace.steps.size());
  for (std::size_t i = 0; i < a.trace.steps.size(); ++i) {
    EXPECT_EQ(a.trace.steps[i].state, b.trace.steps[i].state) << "step " << i;
    EXPECT_EQ(a.trace.steps[i].event, b.trace.steps[i].event) << "step " << i;
    EXPECT_EQ(a.trace.steps[i].enabled, b.trace.steps[i].enabled) << "step " << i;
  }
  EXPECT_EQ(a.trace.final_state, b.trace.final_state);
  EXPECT_EQ(a.trace.final_enabled, b.trace.final_enabled);
}

constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

/// One search as its caller sees it: result and stats, the BFS it leaves
/// and the states_explored of every RunClock tick (a progress callback at
/// interval 1).
struct Observed {
  Search search;
  std::vector<std::int32_t> found, parent;
  std::vector<EventId> via;
  std::vector<std::size_t> ticks;
};

/// Run `fs` on `graph`; cancel it from the progress callback of tick
/// `cancel_at`, so the next tick stops it.
Observed observe(FailureSearch& fs, RefinedGraph& graph,
                 const SafetyChecks& checks, std::size_t cancel_at = kNever) {
  Observed o;
  CancelToken cancel;
  RunBudget budget;
  budget.cancel = &cancel;
  RunClock clock(
      "refine", budget,
      [&](const EngineProgress& p) {
        o.ticks.push_back(p.states_explored);
        if (o.ticks.size() == cancel_at) cancel.cancel();
      },
      1);
  // A cancelled search warns; these cancellations are the test's own.
  const LogLevel level = log_level();
  if (cancel_at != kNever) set_log_level(LogLevel::kError);
  o.search.failure =
      fs.run(graph, checks, kDefaultRefineStates, &o.search.stats, &clock);
  set_log_level(level);
  o.found.assign(fs.found().begin(), fs.found().end());
  o.parent.assign(fs.parent().begin(), fs.parent().end());
  o.via.assign(fs.via().begin(), fs.via().end());
  return o;
}

/// Stop reasons are static strings; compare their text.
std::string reason(const FailureSearchStats& stats) {
  return stats.stop_reason ? stats.stop_reason : "";
}

void expect_same(const Observed& resumed, const Observed& fresh,
                 std::size_t iter) {
  expect_same(resumed.search, fresh.search, iter);
  EXPECT_EQ(resumed.search.stats.states_interned,
            fresh.search.stats.states_interned);
  EXPECT_EQ(reason(resumed.search.stats), reason(fresh.search.stats));
  EXPECT_EQ(resumed.found, fresh.found);
  EXPECT_EQ(resumed.parent, fresh.parent);
  EXPECT_TRUE(resumed.via == fresh.via);
  EXPECT_EQ(resumed.ticks, fresh.ticks);
}

/// How much of the resume path a differential run covered.
struct ResumeCoverage {
  std::size_t searches = 0;
  std::size_t resumed = 0;              ///< with kept heads to replay
  std::size_t stopped_in_replay = 0;    ///< cancelled before the kept heads end
  std::size_t stopped_after_replay = 0;
};

/// Run the loop's kept search `fs` on `graph` and compare it with a fresh
/// search on a copy of the graph as it was: identical discoveries,
/// failure, stats and tick stream.  Then repeat both from there, cancelled
/// at ticks inside and past the replayed heads.
Search resume_checked(FailureSearch& fs, RefinedGraph& graph,
                      const SafetyChecks& checks, std::size_t iter,
                      bool cancelled_too, ResumeCoverage* coverage) {
  const RefinedGraph start = graph;
  const FailureSearch kept = fs;
  const Observed a = observe(fs, graph, checks);
  RefinedGraph twin = start;
  FailureSearch fresh;
  const Observed b = observe(fresh, twin, checks);
  expect_same(a, b, iter);

  // A fresh search ticks once per head; the resumed one expanded only
  // the heads from its rollback point on.
  const std::size_t total = b.ticks.size();
  const std::size_t replayed =
      b.search.stats.heads_expanded - a.search.stats.heads_expanded;
  ++coverage->searches;
  if (replayed > 0) ++coverage->resumed;
  if (!cancelled_too) return a.search;
  std::vector<std::size_t> cancels{replayed / 2, replayed, replayed + 1};
  cancels.erase(std::unique(cancels.begin(), cancels.end()), cancels.end());
  const RefinedGraph after = graph;
  for (const std::size_t k : cancels) {
    if (k == 0 || k >= total) continue;
    SCOPED_TRACE("cancelled at tick " + std::to_string(k));
    // The kept search resumes only on the graph as it left it.
    graph = start;
    FailureSearch resumed = kept;
    const Observed c = observe(resumed, graph, checks, k);
    twin = start;
    FailureSearch reference;
    const Observed d = observe(reference, twin, checks, k);
    EXPECT_EQ(reason(c.search.stats), stop_reason::kCancelled);
    // Stopped at head k: the resumed search expanded only those past the
    // replayed ones.
    EXPECT_EQ(c.search.stats.heads_expanded, k - std::min(k, replayed));
    expect_same(c, d, iter);
    ++(k < replayed ? coverage->stopped_in_replay
                    : coverage->stopped_after_replay);
  }
  graph = after;
  return a.search;
}

struct DifferentialOptions {
  bool structural_rule = true;
  std::size_t max_refinements = 500;
  /// Also take the ban-window fallback at this iteration.
  std::size_t force_window_at = kNever;
  /// Also search a graph rebuilt for every iteration.
  bool fresh_graph = true;
  /// Repeat every n-th search cancelled (each repeat copies the graph).
  std::size_t cancel_every = 1;
  ResumeCoverage* coverage = nullptr;
};

/// RefineEngine::run's loop, with every failure search checked: the
/// search the loop keeps (resumed on the graph it keeps) against a fresh
/// search on the same graph (resume_checked), and, with `fresh_graph`,
/// against a search on a graph rebuilt from scratch.  The refinement
/// decisions follow the from-scratch search; `force_window_at` also takes
/// the ban-window fallback (an observer, which invalidates the kept graph)
/// at that iteration.  Every failure trace is also timed twice — over the
/// run's shared PredecessorIndex, as the engine does, and over an index
/// built for that model alone — and the ban windows and their
/// explanations compared.  Returns the run's RefinementRecords.
std::vector<RefinementRecord> refine_differentially(
    const Composition& comp, const std::vector<const SafetyProperty*>& props,
    const DifferentialOptions& opt) {
  ResumeCoverage ignored;
  ResumeCoverage* coverage = opt.coverage ? opt.coverage : &ignored;
  RefinedSystem refined(comp.ts, comp.index());
  refined.enable_age_rule(opt.structural_rule);
  RefinedGraph kept(refined);
  const SafetyChecks kept_checks(comp, props);
  FailureSearch kept_search;
  const PredecessorIndex preds(comp.ts);
  std::vector<RefinementRecord> records;
  std::string last_signature;
  bool invalidated = false;
  for (std::size_t iter = 0; iter <= opt.max_refinements; ++iter) {
    const Search a = resume_checked(kept_search, kept, kept_checks, iter,
                                    iter % opt.cancel_every == 0, coverage);
    Search b = a;
    if (opt.fresh_graph) {
      RefinedGraph fresh(refined);
      const SafetyChecks fresh_checks(comp, props);
      b = search(fresh, fresh_checks);
      expect_same(a, b, iter);
    }
    if (invalidated) {
      // Nothing survives an encoding change: every state this search
      // interned was discovered, and kept or subsumed.
      EXPECT_EQ(a.stats.states_interned,
                a.stats.states_explored + a.stats.states_subsumed);
      invalidated = false;
    }
    if (!b.failure) break;
    const TraceTimingModel model(comp.ts, preds, b.failure->trace,
                                 b.failure->virtual_event, comp.chokes);
    const PredecessorIndex own_preds(comp.ts);
    const TraceTimingModel own(comp.ts, own_preds, b.failure->trace,
                               b.failure->virtual_event, comp.chokes);
    EXPECT_EQ(model.consistent(), own.consistent());
    if (model.consistent() || iter == opt.max_refinements) break;
    const auto window = model.find_ban_window();
    if (!window) break;
    EXPECT_EQ(own.find_ban_window(), window) << "iteration " << iter;
    EXPECT_EQ(own.explain(*window), model.explain(*window)) << "iteration " << iter;

    RefinementRecord rec;
    rec.iteration = static_cast<int>(iter) + 1;
    rec.failure = b.failure->description;
    rec.from_start = window->from_start;
    rec.orderings = model.explain(*window);
    std::string signature = b.failure->description;
    for (const TraceStep& st : b.failure->trace.steps)
      signature += "|" + comp.ts.label(st.event);
    bool progressed = false;
    for (const DerivedOrdering& o : rec.orderings) {
      const EventId before = comp.ts.event_by_label(o.before);
      const EventId after = comp.ts.event_by_label(o.after);
      if (before.valid() && after.valid() &&
          refined.activate_pair(before, after))
        progressed = true;
    }
    if (!progressed || signature == last_signature ||
        iter == opt.force_window_at) {
      rec.used_window = true;
      BanObserver obs;
      obs.from_start = window->from_start;
      obs.anchor_state = model.state_at(window->anchor_point);
      for (int k = window->anchor_point; k <= window->last_point; ++k) {
        obs.window.push_back(model.fired(k));
        rec.window_labels.push_back(comp.ts.label(model.fired(k)));
      }
      rec.anchor = window->from_start
                       ? std::string("run start")
                       : "state " + comp.describe_state(obs.anchor_state);
      refined.add_observer(std::move(obs));
      invalidated = true;
    }
    last_signature = std::move(signature);
    records.push_back(std::move(rec));
  }
  return records;
}

TEST(GraphReuse, Table1Obligation2MatchesFreshSearchEveryIteration) {
  const Suite suite = ipcmos::table1_suite();
  const Obligation& ob = suite.obligations()[1];
  const Composition comp = test::compose_for_engines(ob.modules);
  // The engine's own pair sequence, plus one ban-window observer at
  // iteration 5: neither Table 1 nor the fuzz campaign reaches that path.
  DifferentialOptions opt;
  opt.max_refinements = ob.max_refinements;
  opt.force_window_at = 5;
  const auto records = refine_differentially(comp, ob.properties, opt);
  ASSERT_GT(records.size(), 6u);
  EXPECT_TRUE(records[5].used_window);
}

TEST(ResumedSearch, MatchesFreshSearchOnTable1Obligations2To5) {
  const Suite suite = ipcmos::table1_suite();
  ResumeCoverage coverage;
  for (std::size_t i = 1; i < 5; ++i) {
    const Obligation& ob = suite.obligations()[i];
    SCOPED_TRACE(ob.name);
    const Composition comp = test::compose_for_engines(ob.modules);
    DifferentialOptions opt;
    opt.max_refinements = ob.max_refinements;
    opt.fresh_graph = false;
    opt.cancel_every = 6;  // the cancelled repeats copy large graphs
    opt.coverage = &coverage;
    refine_differentially(comp, ob.properties, opt);
  }
  // 89 refinements and 4 final searches; all but the first search of
  // each obligation and the one right after its first pair (which
  // re-encodes the graph) resume past a kept prefix.
  EXPECT_EQ(coverage.searches, 93u);
  EXPECT_EQ(coverage.resumed, 85u);
  EXPECT_GE(coverage.stopped_in_replay, 12u);
  EXPECT_GE(coverage.stopped_after_replay, 25u);
}

TEST(ResumedSearch, MatchesFreshSearchOnGeneratedScenarios) {
  ResumeCoverage coverage;
  for (std::size_t i = 0; i < 200; ++i) {
    const fuzz::Scenario sc =
        fuzz::generate(fuzz::case_seed(3, i), fuzz::GeneratorConfig{});
    SCOPED_TRACE(sc.describe());
    const Composition comp = test::compose_for_engines(sc.module_ptrs());
    DifferentialOptions opt;
    opt.coverage = &coverage;
    refine_differentially(comp, sc.property_ptrs(), opt);
  }
  // Most generated scenarios verify without a refinement; some resume.
  EXPECT_GT(coverage.searches, 200u);
  EXPECT_GE(coverage.resumed, 10u);
  EXPECT_GE(coverage.stopped_in_replay, 10u);
}

TEST(GraphReuse, BanWindowAblationRecordsMatchFreshReference) {
  // Without the structural rule every refinement ends in an observer, so
  // the kept graph is invalidated on every iteration.
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  const std::vector<const SafetyProperty*> props{&bad};
  const Composition comp = test::compose_for_engines({&sys, &mon});
  EngineRequest req;
  req.composition = &comp;
  req.properties = props;
  const EngineResult r = RefineEngine(/*structural_rule=*/false).run(req);
  ASSERT_EQ(r.verdict, Verdict::kVerified);
  const auto& engine_records = refine_stats(r).records;
  DifferentialOptions opt;
  opt.structural_rule = false;
  opt.max_refinements = req.max_refinements;
  const auto reference = refine_differentially(comp, props, opt);
  ASSERT_EQ(engine_records.size(), reference.size());
  ASSERT_GE(reference.size(), 2u);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(engine_records[i].iteration, reference[i].iteration);
    EXPECT_EQ(engine_records[i].failure, reference[i].failure);
    EXPECT_EQ(engine_records[i].window_labels, reference[i].window_labels);
    EXPECT_EQ(engine_records[i].from_start, reference[i].from_start);
    EXPECT_EQ(engine_records[i].used_window, reference[i].used_window);
    EXPECT_EQ(engine_records[i].anchor, reference[i].anchor);
    EXPECT_EQ(engine_records[i].orderings, reference[i].orderings);
  }
}

// ---------------------------------------------------------------------------
// Subsumption: the failure search skips a state whose gaps a kept state with the
// same (base, codes, order) covers entry-wise.  That is sound only because
// blocked() is antitone and advance() monotone in the gaps; check both on
// every dominated pair of reachable refined states of Table 1 obligation 2.

TEST(Subsumption, BlockingAntitoneAndAdvanceMonotoneOnTable1Obligation2) {
  const Suite suite = ipcmos::table1_suite();
  const Obligation& ob = suite.obligations()[1];
  const Composition comp = test::compose_for_engines(ob.modules);
  EngineRequest req;
  req.composition = &comp;
  req.properties = ob.properties;
  const EngineResult r = RefineEngine().run(req);
  ASSERT_EQ(r.verdict, Verdict::kVerified);

  // The refined system of the engine's last failure search, after its 19
  // refinements: pairs only, so the activated orderings rebuild it exactly.
  const auto& records = refine_stats(r).records;
  ASSERT_EQ(records.size(), 19u);
  RefinedSystem refined(comp.ts, comp.index());
  refined.enable_age_rule(true);
  for (const RefinementRecord& rec : records) {
    ASSERT_FALSE(rec.used_window);
    for (const DerivedOrdering& o : rec.orderings)
      refined.activate_pair(comp.ts.event_by_label(o.before),
                            comp.ts.event_by_label(o.after));
  }

  // Every reachable refined state (no subsumption): graph ids are handed
  // out in BFS order, so they double as the queue.
  RefinedGraph graph(refined);
  graph.initial();
  for (std::int32_t id = 0; static_cast<std::size_t>(id) < graph.size(); ++id) {
    const auto transitions = comp.ts.transitions_from(graph.base_state(id));
    for (std::size_t k = 0; k < transitions.size(); ++k)
      if (!graph.blocked(id, transitions[k].event)) graph.successor(id, k);
  }
  std::vector<std::vector<std::int32_t>> by_key(graph.num_keys());
  for (std::int32_t id = 0; static_cast<std::size_t>(id) < graph.size(); ++id)
    by_key[static_cast<std::size_t>(graph.key(id))].push_back(id);

  auto covers = [](std::span<const std::uint16_t> d,
                   std::span<const std::uint16_t> x) {
    return std::equal(x.begin(), x.end(), d.begin(), std::less_equal<>());
  };
  std::size_t pairs = 0, firings = 0;
  for (const auto& ids : by_key) {
    for (const std::int32_t x : ids) {
      for (const std::int32_t d : ids) {
        const RefinedStateView xs = graph.state(x), ds = graph.state(d);
        if (x == d || !covers(ds.gaps, xs.gaps)) continue;
        ++pairs;
        for (const Transition& t : comp.ts.transitions_from(xs.base)) {
          const bool x_blocked = refined.blocked(xs, t.event);
          EXPECT_TRUE(!refined.blocked(ds, t.event) || x_blocked)
              << "blocked from the dominator only: " << comp.ts.label(t.event);
          if (x_blocked) continue;
          ++firings;
          const RefinedState xn = refined.advance(xs, t.event);
          const RefinedState dn = refined.advance(ds, t.event);
          EXPECT_EQ(xn.base, dn.base);
          EXPECT_EQ(xn.codes, dn.codes);
          EXPECT_EQ(xn.order, dn.order);
          EXPECT_TRUE(covers(dn.gaps, xn.gaps))
              << "successor gaps not covered after " << comp.ts.label(t.event);
        }
      }
    }
  }
  // Not vacuous: 214,894 dominated pairs over 16,074 states and 1,404 keys.
  EXPECT_GT(pairs, graph.size());
  EXPECT_GT(firings, pairs);
}

}  // namespace
}  // namespace rtv
