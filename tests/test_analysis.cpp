// Cone-of-influence slicing (rtv/analysis/): cone rules per property
// kind, conservative bail-outs, canonical reduced forms, and the
// end-to-end wiring — suite records, serve cache keys, lint notes and
// counterexample replay through the full composition.
#include <gtest/gtest.h>

#include <algorithm>

#include "rtv/analysis/depgraph.hpp"
#include "rtv/analysis/slice.hpp"
#include "rtv/circuit/invariants.hpp"
#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/serve/cache.hpp"
#include "rtv/serve/wire.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/suite.hpp"

using namespace rtv;

namespace {

DelayInterval d(Time lo, Time hi) { return DelayInterval(lo, hi); }

/// Disconnected always-live two-event ring with private labels: out of
/// every property's cone by construction (the fuzz generator's padding
/// shape).
Module toggler(const std::string& base) {
  Module m = gallery::ring({{base + "_a", d(1, 2)}, {base + "_b", d(1, 2)}});
  for (std::size_t ei = 0; ei < m.ts().num_events(); ++ei)
    m.ts().set_event_kind(EventId(static_cast<std::uint32_t>(ei)),
                          EventKind::kInternal);
  m.set_name(base + "_toggler");
  return m;
}

/// Single state, no transitions: permanently stuck.
Module stuck(const std::string& name) {
  TransitionSystem ts;
  ts.set_initial(ts.add_state("s0"));
  return Module(name, std::move(ts));
}

/// x/y choice where y disables x — the persistency-relevant local
/// conflict.
Module conflict(const std::string& x, const std::string& y) {
  TransitionSystem ts;
  const EventId ex = ts.add_event(x, d(1, 2), EventKind::kOutput);
  const EventId ey = ts.add_event(y, d(1, 2), EventKind::kOutput);
  const StateId s0 = ts.add_state("c0");
  const StateId s1 = ts.add_state("c1");
  const StateId s2 = ts.add_state("c2");
  ts.add_transition(s0, ex, s1);
  ts.add_transition(s0, ey, s2);
  ts.add_transition(s1, ey, s2);
  ts.set_initial(s0);
  return Module("conflict", std::move(ts));
}

std::vector<std::string> kept_names(const analysis::SliceResult& sl) {
  std::vector<std::string> out;
  for (const Module* m : sl.modules) out.push_back(m->name());
  return out;
}

bool has_note(const analysis::SliceResult& sl, const std::string& kind,
              const std::string& module) {
  return std::any_of(sl.notes.begin(), sl.notes.end(),
                     [&](const analysis::SliceNote& n) {
                       return n.kind == kind && n.module == module;
                     });
}

}  // namespace

// ---------------------------------------------------------------------------
// Cone rules per property kind
// ---------------------------------------------------------------------------

TEST(SliceCone, InvariantKeepsSignalOwnersAndTheirComponent) {
  const Module sys = gallery::chain({{"x", d(1, 2)}, {"y", d(1, 2)}});
  const Module mon = gallery::order_monitor("x", "y", "fail");
  const Module pad = toggler("pad0");
  const InvariantProperty inv("order", {{"fail", true}});

  const analysis::SliceResult sl =
      analysis::slice({&sys, &mon, &pad}, {&inv});
  EXPECT_TRUE(sl.bailout.empty()) << sl.bailout;
  EXPECT_FALSE(sl.identity);
  EXPECT_EQ(sl.dropped_modules, 1u);
  // The monitor owns `fail`; the system shares x/y with it, so both stay.
  const std::vector<std::string> names = kept_names(sl);
  EXPECT_NE(std::find(names.begin(), names.end(), sys.name()), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), pad.name()), names.end());
  EXPECT_TRUE(has_note(sl, "module", pad.name()));
}

TEST(SliceCone, DeadlockKeepsEveryLiveComponent) {
  // A disconnected live ring masks every composed deadlock (and a stuck
  // one is itself at stake), so deadlock-freedom must keep it.
  const Module sys = gallery::chain({{"x", d(1, 2)}});
  const Module pad = toggler("pad0");
  const DeadlockFreedom dead;

  const analysis::SliceResult sl = analysis::slice({&sys, &pad}, {&dead});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_TRUE(sl.identity) << "a live module is never out of the deadlock cone";
}

TEST(SliceCone, DeadlockDropsPermanentlyStuckComponents) {
  const Module sys = gallery::ring({{"x", d(1, 2)}});
  const Module dead_weight = stuck("stuck");
  const DeadlockFreedom dead;

  const analysis::SliceResult sl =
      analysis::slice({&sys, &dead_weight}, {&dead});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_EQ(sl.dropped_modules, 1u);
  EXPECT_EQ(kept_names(sl), std::vector<std::string>{sys.name()});
}

TEST(SliceCone, DeadlockOnAllStuckModulesBailsOut) {
  // The initial state *is* the deadlock; the engines must witness it.
  const Module a = stuck("a");
  const DeadlockFreedom dead;
  const analysis::SliceResult sl = analysis::slice({&a}, {&dead});
  EXPECT_FALSE(sl.bailout.empty());
  EXPECT_TRUE(sl.identity);
}

TEST(SliceCone, PersistencyDropsConflictFreeComponents) {
  const Module confl = conflict("x", "y");
  const Module pad = toggler("pad0");
  const PersistencyProperty pers;

  const analysis::SliceResult sl = analysis::slice({&confl, &pad}, {&pers});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_EQ(sl.dropped_modules, 1u);
  EXPECT_EQ(kept_names(sl), std::vector<std::string>{confl.name()});
}

TEST(SliceCone, EmptyConeIsStaticallyVerified) {
  // Persistency over a conflict-free obligation: nothing can be violated,
  // nothing can choke (singleton components), so the cone empties.
  const Module pad = toggler("pad0");
  const PersistencyProperty pers;

  const analysis::SliceResult sl = analysis::slice({&pad}, {&pers});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_TRUE(sl.modules.empty());
  EXPECT_FALSE(sl.identity);
  EXPECT_EQ(sl.dropped_modules, 1u);
}

TEST(SliceCone, ZeroDeadlineModulesAreNeverDropped) {
  // Time is shared even across disconnected components: a fireable
  // event with a zero upper delay bound can be forced to fire without
  // letting the clock advance, and a cycle of such events pins global
  // time — masking timed behaviour in every kept module.  The banked
  // fuzz reproducer "zero-deadline self-loop pins time" is exactly this
  // shape, so such a module must stay in the cone no matter what the
  // property bundle says.
  const Module confl = conflict("x", "y");
  Module pinner = gallery::ring({{"pin_a", d(0, 0)}, {"pin_b", d(0, 0)}});
  pinner.set_name("pinner");
  const PersistencyProperty pers;

  const analysis::SliceResult sl = analysis::slice({&confl, &pinner}, {&pers});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_TRUE(sl.identity)
      << "a potential time-pinner is never provably irrelevant";

  const analysis::DepGraph g = analysis::build_depgraph({&confl, &pinner});
  EXPECT_FALSE(g.facts[0].can_pin_time);
  EXPECT_TRUE(g.facts[1].can_pin_time);
}

// ---------------------------------------------------------------------------
// Conservative bail-outs
// ---------------------------------------------------------------------------

namespace {
/// A property subclass the slicer has no cone rule for.
class OpaqueProperty final : public SafetyProperty {
 public:
  std::string name() const override { return "opaque"; }
  std::optional<std::string> check_state(
      const PropertyContext&) const override {
    return std::nullopt;
  }
};
}  // namespace

TEST(SliceBailout, UnknownPropertySubclassForcesIdentity) {
  const Module pad = toggler("pad0");
  const OpaqueProperty opaque;
  const analysis::SliceResult sl = analysis::slice({&pad}, {&opaque});
  EXPECT_FALSE(sl.bailout.empty());
  EXPECT_TRUE(sl.identity);
  EXPECT_TRUE(has_note(sl, "bailout", ""));
}

TEST(SliceBailout, DanglingInvariantSignalForcesIdentity) {
  const Module sys = gallery::chain({{"x", d(1, 2)}});
  const InvariantProperty inv("ghost", {{"no_such_signal", true}});
  const analysis::SliceResult sl = analysis::slice({&sys}, {&inv});
  EXPECT_FALSE(sl.bailout.empty());
  EXPECT_TRUE(sl.identity);
}

TEST(SliceBailout, ChokeTrackingKeepsMultiModuleComponents) {
  // Two modules synchronising on `s` can refuse each other's outputs —
  // a reportable choke — so with track_chokes they are never droppable,
  // while without it the invariant cone excludes them.
  Module a = gallery::chain({{"s", d(1, 2)}});
  a.set_name("a");
  Module b = gallery::chain({{"s", d(1, 2)}});
  b.set_name("b");
  b.ts().set_event_kind(b.ts().event_by_label("s"), EventKind::kInput);
  const Module sys = gallery::chain({{"x", d(1, 2)}});
  const Module mon = gallery::order_monitor("x", "x", "fail");
  const InvariantProperty inv("order", {{"fail", true}});
  const std::vector<const Module*> mods = {&a, &b, &sys, &mon};
  const std::vector<const SafetyProperty*> props = {&inv};

  analysis::SliceOptions tracked;
  tracked.track_chokes = true;
  const analysis::SliceResult with = analysis::slice(mods, props, tracked);
  EXPECT_TRUE(with.bailout.empty());
  std::vector<std::string> names = kept_names(with);
  EXPECT_NE(std::find(names.begin(), names.end(), "a"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "b"), names.end());

  analysis::SliceOptions untracked;
  untracked.track_chokes = false;
  const analysis::SliceResult without = analysis::slice(mods, props, untracked);
  EXPECT_TRUE(without.bailout.empty());
  names = kept_names(without);
  EXPECT_EQ(std::find(names.begin(), names.end(), "a"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "b"), names.end());
}

// ---------------------------------------------------------------------------
// Pruning inside kept modules
// ---------------------------------------------------------------------------

TEST(SlicePrune, UnreachableStatesAndPrivateDeadEventsAreRemoved) {
  // A reachable one-step chain plus an unreachable island with its own
  // event: the island and the dead private event vanish, and the pruned
  // rebuild still composes (deadlock property keeps the module itself).
  TransitionSystem ts;
  const EventId live = ts.add_event("x", d(1, 2), EventKind::kOutput);
  const EventId dead_e = ts.add_event("ghost", d(1, 2), EventKind::kInternal);
  const StateId s0 = ts.add_state("s0");
  const StateId s1 = ts.add_state("s1");
  const StateId island = ts.add_state("island");
  const StateId island2 = ts.add_state("island2");
  ts.add_transition(s0, live, s1);
  ts.add_transition(island, dead_e, island2);
  ts.set_initial(s0);
  ts.add_transition(s1, live, s1);  // keep it live for the deadlock cone
  const Module m("leaky", std::move(ts));
  const DeadlockFreedom dead;

  const analysis::SliceResult sl = analysis::slice({&m}, {&dead});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_FALSE(sl.identity);
  EXPECT_EQ(sl.pruned_states, 2u);
  EXPECT_EQ(sl.dropped_events, 1u);
  ASSERT_EQ(sl.modules.size(), 1u);
  EXPECT_EQ(sl.modules[0]->ts().num_states(), 2u);
  EXPECT_EQ(sl.modules[0]->ts().num_events(), 1u);
  EXPECT_TRUE(has_note(sl, "states", "leaky"));
  EXPECT_TRUE(has_note(sl, "events", "leaky"));
}

TEST(SlicePrune, DeadSharedLabelsSurvive) {
  // `s` labels no reachable transition in `a` but `b` (kept) declares it
  // too: removing it would change the synchronization structure, so it
  // stays and the slice is the identity.
  TransitionSystem ta;
  const EventId ex = ta.add_event("x", d(1, 2), EventKind::kOutput);
  ta.add_event("s", d(1, 2), EventKind::kInput);  // declared, never fireable
  const StateId a0 = ta.add_state("a0");
  ta.add_transition(a0, ex, a0);
  ta.set_initial(a0);
  Module a("a", std::move(ta));
  Module b = gallery::ring({{"s", d(1, 2)}});
  b.set_name("b");
  const DeadlockFreedom dead;

  const analysis::SliceResult sl = analysis::slice({&a, &b}, {&dead});
  EXPECT_TRUE(sl.bailout.empty());
  EXPECT_TRUE(sl.identity);
}

// ---------------------------------------------------------------------------
// Canonical reduced form and serve cache keys
// ---------------------------------------------------------------------------

TEST(SliceCanonical, OrderIsInputOrderIndependent) {
  const Module a = gallery::chain({{"x", d(1, 2)}});
  const Module b = gallery::ring({{"y", d(1, 2)}});
  const Module c = toggler("pad0");
  const auto fwd = analysis::canonical_order({&a, &b, &c});
  const auto rev = analysis::canonical_order({&c, &b, &a});
  ASSERT_EQ(fwd.size(), rev.size());
  for (std::size_t i = 0; i < fwd.size(); ++i)
    EXPECT_EQ(fwd[i]->name(), rev[i]->name());
}

namespace {
serve::WireObligation wire_obligation(bool padded) {
  serve::WireObligation ob;
  ob.name = "ob";
  ob.modules.push_back(conflict("x", "y"));
  if (padded) ob.modules.push_back(toggler("pad0"));
  ob.properties.push_back(serve::PropertySpec::persistency());
  return ob;
}
}  // namespace

TEST(SliceCacheKey, PaddedAndUnpaddedObligationsShareAnEntry) {
  const serve::CacheKey plain = serve::obligation_cache_key(
      wire_obligation(false), SuiteMode::kBatch, {"refine"}, 1000, 0.0, 500);
  const serve::CacheKey padded = serve::obligation_cache_key(
      wire_obligation(true), SuiteMode::kBatch, {"refine"}, 1000, 0.0, 500);
  EXPECT_EQ(plain.hi, padded.hi);
  EXPECT_EQ(plain.lo, padded.lo);
}

TEST(SliceCacheKey, BudgetsStillSeparateEntries) {
  const serve::CacheKey small = serve::obligation_cache_key(
      wire_obligation(true), SuiteMode::kBatch, {"refine"}, 1000, 0.0, 500);
  const serve::CacheKey large = serve::obligation_cache_key(
      wire_obligation(true), SuiteMode::kBatch, {"refine"}, 2000, 0.0, 500);
  EXPECT_FALSE(small.hi == large.hi && small.lo == large.lo);
}

// ---------------------------------------------------------------------------
// Suite wiring
// ---------------------------------------------------------------------------

TEST(SliceSuite, EmptyConeAnswersVerifiedWithoutEngines) {
  Suite suite;
  const Module* pad = suite.own(toggler("pad0"));
  const SafetyProperty* pers =
      suite.own(std::make_unique<PersistencyProperty>());
  suite.add("padded", {pad}, {pers});

  SuiteOptions opts;
  opts.engines = {"refine"};
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  const SuiteRecord& rec = report.records[0];
  EXPECT_EQ(rec.result.verdict, Verdict::kVerified);
  EXPECT_TRUE(rec.winner);
  EXPECT_EQ(rec.result.states_explored, 0u);
  EXPECT_NE(rec.result.message.find("statically verified"), std::string::npos);
  EXPECT_EQ(rec.sliced_modules, 1u);

  // The sliced counts survive the JSON round-trip.
  const SuiteReport back = parse_suite_report(report.to_json());
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].sliced_modules, 1u);
  EXPECT_EQ(back.records[0].sliced_events, rec.sliced_events);
}

TEST(SliceSuite, OptOutRunsTheFullObligation) {
  Suite suite;
  const Module* pad = suite.own(toggler("pad0"));
  const SafetyProperty* pers =
      suite.own(std::make_unique<PersistencyProperty>());
  suite.add("padded", {pad}, {pers});

  SuiteOptions opts;
  opts.engines = {"refine"};
  opts.slice = false;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].result.verdict, Verdict::kVerified);
  EXPECT_EQ(report.records[0].sliced_modules, 0u);
  EXPECT_GT(report.records[0].result.states_explored, 0u);
}

TEST(SliceSuite, SlicedAndUnslicedVerdictsAgreeOnPaddedObligation) {
  const Module sys = gallery::chain({{"x", d(1, 2)}, {"y", d(1, 2)}});
  const Module mon = gallery::order_monitor("x", "y", "fail");
  const Module pad = toggler("pad0");
  const InvariantProperty inv("order", {{"fail", true}});

  const auto run = [&](bool slice_on) {
    Suite suite;
    suite.add("ob", {&sys, &mon, &pad}, {&inv});
    SuiteOptions opts;
    opts.engines = {"refine"};
    opts.slice = slice_on;
    return run_suite(suite, opts);
  };
  const SuiteReport sliced = run(true);
  const SuiteReport full = run(false);
  ASSERT_EQ(sliced.records.size(), 1u);
  ASSERT_EQ(full.records.size(), 1u);
  EXPECT_EQ(sliced.records[0].result.verdict, full.records[0].result.verdict);
  EXPECT_EQ(sliced.records[0].sliced_modules, 1u);
  // The reduced product skips the padding module's interleavings.
  EXPECT_LE(sliced.records[0].result.states_explored,
            full.records[0].result.states_explored);
}

TEST(SliceSuite, ReducedTraceReplaysThroughTheFullComposition) {
  // x fires before y ever can, so "y before x" is violated; the engine
  // sees the obligation *without* the padding toggler, yet its
  // counterexample must replay through the composition of everything the
  // caller handed in (padding coordinates simply stay at initial).
  const Module sys = gallery::chain({{"x", d(1, 2)}, {"y", d(1, 2)}});
  const Module mon = gallery::order_monitor("y", "x", "fail");
  const Module pad = toggler("pad0");
  const InvariantProperty inv("order", {{"fail", true}});

  Suite suite;
  suite.add("ob", {&sys, &mon, &pad}, {&inv});
  SuiteOptions opts;
  opts.engines = {"refine"};
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  const SuiteRecord& rec = report.records[0];
  ASSERT_EQ(rec.result.verdict, Verdict::kViolated);
  EXPECT_EQ(rec.sliced_modules, 1u);
  ASSERT_FALSE(rec.result.trace_labels.empty());

  ComposeOptions copt;
  copt.jobs = 1;
  const Composition comp = compose({&sys, &mon, &pad}, copt);
  StateId cur = comp.ts.initial();
  for (std::size_t i = 0; i < rec.result.trace_labels.size(); ++i) {
    const EventId e = comp.ts.event_by_label(rec.result.trace_labels[i]);
    ASSERT_TRUE(e.valid()) << "unknown label " << rec.result.trace_labels[i];
    const auto succ = comp.ts.successor(cur, e);
    if (!succ) {
      // Only the final label may be a refusal.
      EXPECT_EQ(i + 1, rec.result.trace_labels.size());
      break;
    }
    cur = *succ;
  }
}

TEST(SliceSuite, ConeNotesFollowTheObligationsChokeTracking) {
  // Without choke tracking, a conflict-free two-module component is
  // outside the persistency cone.  The suite drops both modules, and the
  // lint notes, cut from the same slice, name both.
  const Module sys = conflict("x", "y");
  Module out = gallery::ring({{"p_a", d(1, 2)}, {"p_b", d(1, 2)}});
  out.set_name("pad_out");
  Module in = out;
  in.set_name("pad_in");
  for (std::size_t ei = 0; ei < in.ts().num_events(); ++ei)
    in.ts().set_event_kind(EventId(static_cast<std::uint32_t>(ei)),
                           EventKind::kInput);
  const PersistencyProperty pers;

  Suite suite;
  Obligation& ob = suite.add("ob", {&sys, &out, &in}, {&pers});
  ob.track_chokes = false;
  SuiteOptions opts;
  opts.engines = {"refine"};
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  const SuiteRecord& rec = report.records[0];
  EXPECT_EQ(rec.sliced_modules, 2u);
  std::vector<std::string> noted;
  for (const lint::Diagnostic& diag : rec.lint)
    if (diag.code == lint::check::kOutsideCone) noted.push_back(diag.module);
  std::sort(noted.begin(), noted.end());
  EXPECT_EQ(noted, (std::vector<std::string>{"pad_in", "pad_out"}));

  // lint_obligation reads the same front end, so it reports the same.
  EXPECT_EQ(lint::lint_obligation(ob, opts).format(),
            lint::LintReport{rec.lint}.format());
}

TEST(SliceSuite, HandedInFrontEndIsNotRecomputed) {
  // A front end computed with slicing on drives the run even under
  // options that would not slice: run_suite reads it as given.
  const Module sys = gallery::chain({{"x", d(1, 2)}, {"y", d(1, 2)}});
  const Module mon = gallery::order_monitor("x", "y", "fail");
  const Module pad = toggler("pad0");
  const InvariantProperty inv("order", {{"fail", true}});

  Suite suite;
  Obligation& ob = suite.add("ob", {&sys, &mon, &pad}, {&inv});
  SuiteOptions opts;
  opts.engines = {"refine"};
  const FrontEnd fe = front_end(ob, opts);
  EXPECT_EQ(fe.slice.dropped_modules, 1u);
  ob.front_end = &fe;
  opts.slice = false;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].sliced_modules, 1u);
  EXPECT_EQ(report.records[0].result.verdict, Verdict::kVerified);
}

TEST(SliceSuite, PaddedTable1StagePaysOffAtLeastFiveFold) {
  // The slicer's payoff on the paper's own stage: the experiment-5 flat
  // pipeline under persistency and the stage's short-circuit invariants
  // (deadlock-freedom would pin every live module into the cone), padded
  // with four private-label togglers.  Sliced, the zone engine decides it;
  // unsliced, it cannot within five times the sliced run's states.
  const ipcmos::PipelineTiming timing;
  ipcmos::ModuleSet mods = ipcmos::flat_pipeline(1, timing);
  for (int k = 0; k < 4; ++k) mods.add(toggler("pad" + std::to_string(k)));
  std::vector<std::unique_ptr<SafetyProperty>> owned;
  owned.push_back(std::make_unique<PersistencyProperty>());
  for (auto& p : short_circuit_properties(ipcmos::make_stage_netlist(
           "I1", ipcmos::linear_channels(1), timing.stage)))
    owned.push_back(std::move(p));
  std::vector<const SafetyProperty*> props;
  for (const auto& p : owned) props.push_back(p.get());

  const auto run = [&](bool slice_on, std::size_t max_states) {
    Suite suite;
    suite.add("exp5-padded", mods.ptrs, props);
    SuiteOptions opts;
    opts.engines = {"zone"};
    opts.jobs = 1;
    opts.slice = slice_on;
    opts.budget.max_states = max_states;
    const SuiteReport report = run_suite(suite, opts);
    EXPECT_EQ(report.records.size(), 1u);
    return report.records.front();
  };
  const SuiteRecord sliced = run(true, 0);
  EXPECT_EQ(sliced.result.verdict, Verdict::kVerified);
  EXPECT_EQ(sliced.sliced_modules, 4u);
  ASSERT_GT(sliced.result.states_explored, 0u);

  const SuiteRecord full = run(false, 5 * sliced.result.states_explored);
  EXPECT_EQ(full.sliced_modules, 0u);
  EXPECT_EQ(full.result.verdict, Verdict::kInconclusive);
  EXPECT_FALSE(full.result.truncated_reason.empty());
}

// ---------------------------------------------------------------------------
// Lint notes
// ---------------------------------------------------------------------------

TEST(SliceLint, OutsideConeModuleIsL016) {
  const Module sys = gallery::chain({{"x", d(1, 2)}, {"y", d(1, 2)}});
  const Module mon = gallery::order_monitor("x", "y", "fail");
  const Module pad = toggler("pad0");
  const InvariantProperty inv("order", {{"fail", true}});

  const lint::LintReport r =
      lint::lint_modules({&sys, &mon, &pad}, {&inv}, {});
  bool found = false;
  for (const lint::Diagnostic& diag : r.diagnostics)
    if (diag.code == lint::check::kOutsideCone) {
      found = true;
      EXPECT_EQ(diag.module, pad.name());
      EXPECT_EQ(diag.severity, lint::Severity::kNote);
    }
  EXPECT_TRUE(found) << r.format();
}

TEST(SliceLint, StaticallyUnreachableStatesAreL017) {
  TransitionSystem ts;
  const EventId live = ts.add_event("x", d(1, 2), EventKind::kOutput);
  const EventId dead_e = ts.add_event("ghost", d(1, 2), EventKind::kInternal);
  const StateId s0 = ts.add_state("s0");
  const StateId island = ts.add_state("island");
  const StateId island2 = ts.add_state("island2");
  ts.add_transition(s0, live, s0);
  ts.add_transition(island, dead_e, island2);
  ts.set_initial(s0);
  const Module m("leaky", std::move(ts));
  const DeadlockFreedom dead;

  const lint::LintReport r = lint::lint_modules({&m}, {&dead}, {});
  bool found = false;
  for (const lint::Diagnostic& diag : r.diagnostics)
    if (diag.code == lint::check::kSliceUnreachable) {
      found = true;
      EXPECT_EQ(diag.module, "leaky");
      EXPECT_EQ(diag.severity, lint::Severity::kNote);
    }
  EXPECT_TRUE(found) << r.format();
}

TEST(SliceLint, NoPropertiesMeansNoConeNotes) {
  const Module pad = toggler("pad0");
  const lint::LintReport r = lint::lint_modules({&pad}, {}, {});
  for (const lint::Diagnostic& diag : r.diagnostics) {
    EXPECT_NE(diag.code, lint::check::kOutsideCone) << r.format();
    EXPECT_NE(diag.code, lint::check::kSliceUnreachable) << r.format();
  }
}

// ---------------------------------------------------------------------------
// Dependency graph
// ---------------------------------------------------------------------------

TEST(DepGraph, ComponentsFollowSharedLabels) {
  Module a = gallery::chain({{"s", d(1, 2)}});
  a.set_name("a");
  Module b = gallery::chain({{"s", d(1, 2)}, {"t", d(1, 2)}});
  b.set_name("b");
  Module c = toggler("pad0");
  const analysis::DepGraph g = analysis::build_depgraph({&a, &b, &c});
  ASSERT_EQ(g.component.size(), 3u);
  EXPECT_EQ(g.component[0], g.component[1]);
  EXPECT_NE(g.component[0], g.component[2]);
  EXPECT_EQ(g.num_components, 2u);
  EXPECT_TRUE(g.facts[2].has_reachable_transition);
  EXPECT_FALSE(g.facts[2].has_local_conflict);
}

TEST(DepGraph, LocalConflictDetection) {
  const Module confl = conflict("x", "y");
  const Module ring = gallery::ring({{"r", d(1, 2)}});
  const analysis::DepGraph g = analysis::build_depgraph({&confl, &ring});
  EXPECT_TRUE(g.facts[0].has_local_conflict);
  EXPECT_FALSE(g.facts[1].has_local_conflict);
}
