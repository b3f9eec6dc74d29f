// The static model analyzer (rtv/lint/lint.hpp): every check code has a
// positive and a negative case, the JSON report round-trips strictly, the
// exit-code convention holds, the compose()/lint RTV-L004 agreement is
// pinned on one model, the suite pre-flight and serve fast-reject paths
// are exercised end to end, and the shipped sample models plus the banked
// fuzz reproducers stay lint-error-free.
//
// RTV_EXAMPLE_DATA_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtv/fuzz/generator.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/serve/client.hpp"
#include "rtv/serve/server.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv {
namespace {

using lint::Diagnostic;
using lint::LintOptions;
using lint::LintReport;
using lint::Severity;

/// A minimal clean module: two states, one fireable output, initial set.
Module simple_module(const std::string& name = "m",
                     const std::string& label = "a") {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  ts.add_transition(
      s0, ts.add_event(label, DelayInterval::units(1, 2), EventKind::kOutput),
      s1);
  ts.set_initial(s0);
  return Module(name, std::move(ts));
}

/// One event whose constants digitize to 40000..80000 ticks — past the
/// digitization-cost threshold (kDigitizationCostTicks).
Module wrap_module() {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  ts.add_transition(s0,
                    ts.add_event("a", DelayInterval::units(10000, 20000),
                                 EventKind::kOutput),
                    s1);
  ts.set_initial(s0);
  return Module("wrap", std::move(ts));
}

LintReport lint_one(const Module& m,
                    const std::vector<const SafetyProperty*>& props = {},
                    const LintOptions& options = {}) {
  return lint::lint_modules({&m}, props, options);
}

const Diagnostic* find_code(const LintReport& r, const char* code) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.code == code) return &d;
  return nullptr;
}

std::size_t count_code(const LintReport& r, const char* code) {
  std::size_t n = 0;
  for (const Diagnostic& d : r.diagnostics)
    if (d.code == code) ++n;
  return n;
}

TEST(LintWellFormed, CleanModelHasNoFindings) {
  const Module m = simple_module();
  const LintReport r = lint_one(m);
  EXPECT_TRUE(r.clean()) << r.format();
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(LintWellFormed, MissingInitialStateIsL001) {
  TransitionSystem ts;
  ts.add_state();
  Module m("no-init", std::move(ts));
  const LintReport r = lint_one(m);
  const Diagnostic* d = find_code(r, lint::check::kNoInitialState);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->module, "no-init");
  EXPECT_EQ(r.exit_code(), 2);
}

TEST(LintWellFormed, EmptyObligationIsL001) {
  const LintReport r = lint::lint_modules({}, {}, {});
  ASSERT_NE(find_code(r, lint::check::kNoInitialState), nullptr);
  EXPECT_TRUE(r.has_errors());
}

TEST(LintWellFormed, InvalidDelayBoundsAreL002) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  // Raw-tick constructor: lo > hi violates the interval invariant.
  ts.add_transition(s0, ts.add_event("x", DelayInterval(8, 4)), s1);
  ts.set_initial(s0);
  Module m("bad-interval", std::move(ts));
  const LintReport r = lint_one(m);
  const Diagnostic* d = find_code(r, lint::check::kInvalidInterval);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->object, "x");
}

TEST(LintWellFormed, DuplicateLabelIsL003ReportedOnce) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const DelayInterval d12 = DelayInterval::units(1, 2);
  ts.add_transition(s0, ts.add_event("dup", d12), s1);
  ts.add_transition(s1, ts.add_event("dup", d12), s0);
  ts.set_initial(s0);
  Module m("twins", std::move(ts));
  const LintReport r = lint_one(m);
  EXPECT_EQ(count_code(r, lint::check::kDuplicateLabel), 1u) << r.format();
  EXPECT_EQ(find_code(r, lint::check::kDuplicateLabel)->severity,
            Severity::kError);
}

TEST(LintWellFormed, CrossModuleContradictionIsL004AndMatchesCompose) {
  // Satellite regression: lint's RTV-L004 and compose()'s
  // std::invalid_argument come from the same shared check
  // (rtv/ts/delay_bounds.hpp) — same model, byte-identical text.
  auto pulse = [](const std::string& name, Time lo, Time hi, EventKind kind) {
    TransitionSystem ts;
    const StateId s0 = ts.add_state();
    const StateId s1 = ts.add_state();
    ts.add_transition(s0, ts.add_event("x+", DelayInterval::units(lo, hi), kind),
                      s1);
    ts.set_initial(s0);
    return Module(name, std::move(ts));
  };
  const Module early = pulse("early", 1, 2, EventKind::kOutput);
  const Module late = pulse("late", 5, 9, EventKind::kInput);

  const LintReport r = lint::lint_modules({&early, &late}, {}, {});
  const Diagnostic* d = find_code(r, lint::check::kDelayContradiction);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->object, "x+");

  try {
    compose({&early, &late}, {});
    FAIL() << "compose accepted contradictory bounds";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(d->message, e.what());
  }
}

TEST(LintWellFormed, CompatibleSharedBoundsHaveNoL004) {
  const Module a = simple_module("a-side", "sync");
  const Module b = simple_module("b-side", "sync");
  const LintReport r = lint::lint_modules({&a, &b}, {}, {});
  EXPECT_EQ(find_code(r, lint::check::kDelayContradiction), nullptr)
      << r.format();
}

TEST(LintWellFormed, DanglingInvariantSignalIsL005) {
  const Module m = simple_module();
  const InvariantProperty bad(
      "ghost", std::vector<InvariantProperty::Literal>{{"no_such_signal", true}});
  const LintReport r = lint_one(m, {&bad});
  const Diagnostic* d = find_code(r, lint::check::kDanglingSignal);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("no_such_signal"), std::string::npos);
}

TEST(LintWellFormed, DeclaredInvariantSignalHasNoL005) {
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty ok(
      "ok", std::vector<InvariantProperty::Literal>{{"fail", true}});
  const LintReport r = lint_one(mon, {&ok});
  EXPECT_EQ(find_code(r, lint::check::kDanglingSignal), nullptr) << r.format();
}

TEST(LintWellFormed, DanglingPersistencyExemptIsL006) {
  const Module m = simple_module();
  const PersistencyProperty pers({"phantom+"});
  const LintReport r = lint_one(m, {&pers});
  const Diagnostic* d = find_code(r, lint::check::kDanglingExempt);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(r.exit_code(), 1);

  const PersistencyProperty declared({"a"});
  EXPECT_EQ(find_code(lint_one(m, {&declared}), lint::check::kDanglingExempt),
            nullptr);
}

TEST(LintReachability, UnfireableEventIsL007) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const DelayInterval d12 = DelayInterval::units(1, 2);
  ts.add_transition(s0, ts.add_event("live", d12), s1);
  ts.add_event("orphan", d12);  // declared, never on a transition
  ts.set_initial(s0);
  Module m("orphaned", std::move(ts));
  const LintReport r = lint_one(m);
  const Diagnostic* d = find_code(r, lint::check::kUnfireableEvent);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->object, "orphan");
  EXPECT_EQ(count_code(r, lint::check::kUnfireableEvent), 1u);
}

TEST(LintReachability, ConstantSignalIsL008) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  ts.add_transition(s0, ts.add_event("t", DelayInterval::units(1, 2)), s1);
  ts.set_initial(s0);
  ts.set_signal_names({"live", "stuck"});
  BitVec v0(2), v1(2);
  v1.set(0);        // "live" toggles 0 -> 1
  v0.set(1);        // "stuck" is 1 in both states
  v1.set(1);
  ts.set_state_valuation(s0, v0);
  ts.set_state_valuation(s1, v1);
  Module m("signals", std::move(ts));
  const LintReport r = lint_one(m);
  const Diagnostic* d = find_code(r, lint::check::kDeadSignal);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->object, "stuck");
  EXPECT_EQ(count_code(r, lint::check::kDeadSignal), 1u) << "'live' toggles";
}

TEST(LintWellFormed, EmptyInvariantConjunctionIsL009) {
  const Module m = simple_module();
  const InvariantProperty empty("empty", {});
  const LintReport r = lint_one(m, {&empty});
  const Diagnostic* d = find_code(r, lint::check::kEmptyInvariant);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(LintWellFormed, ContradictoryLiteralsAreTautologicalL010) {
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty taut(
      "taut",
      std::vector<InvariantProperty::Literal>{{"fail", true}, {"fail", false}});
  const LintReport r = lint_one(mon, {&taut});
  const Diagnostic* d = find_code(r, lint::check::kTautologicalInvariant);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LintEngineRange, InfinityAliasedBoundIsL011) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  ts.add_transition(
      s0, ts.add_event("inf", DelayInterval(kTimeInfinity, kTimeInfinity)), s1);
  ts.set_initial(s0);
  Module m("aliased", std::move(ts));
  // Engine-independent: fires even when only the zone engine is selected.
  LintOptions zone_only;
  zone_only.engines = {"zone"};
  const LintReport r = lint_one(m, {}, zone_only);
  const Diagnostic* d = find_code(r, lint::check::kInfinityAliasedBound);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(LintEngineRange, CertainTruncationIsL012ErrorWhenOnlyDiscrete) {
  // The acceptance model: 10000..20000 units digitize to 40000..80000
  // ticks; a 65536-config budget cannot age past 80000 ticks, so a
  // discrete-only run is doomed before it starts.
  const Module m = wrap_module();
  LintOptions lo;
  lo.engines = {"discrete"};
  lo.max_states = 65536;
  const LintReport r = lint_one(m, {}, lo);
  const Diagnostic* d = find_code(r, lint::check::kCertainTruncation);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->object, "a");
  EXPECT_NE(d->message.find("80000"), std::string::npos) << d->message;
  EXPECT_EQ(r.exit_code(), 2);
  // L013 would restate the same constant: suppressed when L012 fires.
  EXPECT_EQ(find_code(r, lint::check::kDigitizationCost), nullptr);
}

TEST(LintEngineRange, CertainTruncationDemotesToWarningWithAPeer) {
  // A non-digitizing peer can still decide the obligation — the doomed
  // discrete run wastes its budget but nothing more, so the finding must
  // not short-circuit a portfolio (the scaled_race regression).
  const Module m = wrap_module();
  LintOptions lo;
  lo.engines = {"discrete", "zone"};
  lo.max_states = 65536;
  const LintReport r = lint_one(m, {}, lo);
  const Diagnostic* d = find_code(r, lint::check::kCertainTruncation);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(r.has_errors());
}

TEST(LintEngineRange, DigitizationCostIsL013PastTheCostThreshold) {
  const Module m = wrap_module();
  LintOptions lo;
  lo.engines = {"discrete"};  // default budget: no certain truncation
  const LintReport r = lint_one(m, {}, lo);
  EXPECT_EQ(find_code(r, lint::check::kCertainTruncation), nullptr)
      << r.format();
  const Diagnostic* d = find_code(r, lint::check::kDigitizationCost);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("80000"), std::string::npos);
}

TEST(LintEngineRange, SmallConstantsAndNonDiscreteSelectionsAreSilent) {
  // Constants below the cost threshold: no engine-range findings at all.
  EXPECT_TRUE(lint_one(simple_module()).clean());
  // Large constants but no digitizing engine selected: checks disarm.
  const Module m = wrap_module();
  LintOptions zone_only;
  zone_only.engines = {"zone"};
  zone_only.max_states = 65536;
  const LintReport r = lint_one(m, {}, zone_only);
  EXPECT_EQ(find_code(r, lint::check::kCertainTruncation), nullptr);
  EXPECT_EQ(find_code(r, lint::check::kDigitizationCost), nullptr);
  // Unknown selection (empty) keeps the checks armed, conservatively as
  // warnings.
  LintOptions unknown;
  unknown.max_states = 65536;
  const LintReport u = lint_one(m, {}, unknown);
  const Diagnostic* d = find_code(u, lint::check::kCertainTruncation);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST(LintEngineRange, UnfireableEventsNeverChargeTheClock) {
  // A huge constant on an event no reachable state enables: L007 owns the
  // finding; L012/L013 stay silent (its constants never drive aging).
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  ts.add_transition(s0, ts.add_event("t", DelayInterval::units(1, 2)), s1);
  ts.add_event("huge", DelayInterval::units(10000, 20000));
  ts.set_initial(s0);
  Module m("idle-giant", std::move(ts));
  LintOptions lo;
  lo.engines = {"discrete"};
  lo.max_states = 65536;
  const LintReport r = lint_one(m, {}, lo);
  EXPECT_NE(find_code(r, lint::check::kUnfireableEvent), nullptr);
  EXPECT_EQ(find_code(r, lint::check::kCertainTruncation), nullptr)
      << r.format();
  EXPECT_EQ(find_code(r, lint::check::kDigitizationCost), nullptr);
}

TEST(LintShape, DisjointAlphabetIsL014) {
  const Module a = simple_module("loner-a", "a");
  const Module b = simple_module("loner-b", "b");
  const LintReport r = lint::lint_modules({&a, &b}, {}, {});
  EXPECT_EQ(count_code(r, lint::check::kDisjointAlphabet), 2u) << r.format();
  EXPECT_EQ(find_code(r, lint::check::kDisjointAlphabet)->severity,
            Severity::kWarning);
  // A single module composes with nothing: the check is meaningless.
  EXPECT_EQ(find_code(lint_one(a), lint::check::kDisjointAlphabet), nullptr);
  // Sharing one label silences it for both.
  const Module c = simple_module("sharer", "a");
  EXPECT_EQ(find_code(lint::lint_modules({&a, &c}, {}, {}),
                      lint::check::kDisjointAlphabet),
            nullptr);
}

TEST(LintShape, TrivialDeadlockIsL015) {
  // simple_module reaches a sink after one transition; with deadlock
  // freedom requested on the module alone, the violation is certain.
  const Module m = simple_module();
  const DeadlockFreedom dead;
  const LintReport r = lint_one(m, {&dead});
  const Diagnostic* d = find_code(r, lint::check::kTrivialDeadlock);
  ASSERT_NE(d, nullptr) << r.format();
  EXPECT_EQ(d->severity, Severity::kWarning);
  // Without the property, or with a second module (composition can change
  // the picture), the check stays silent.
  EXPECT_EQ(find_code(lint_one(m), lint::check::kTrivialDeadlock), nullptr);
  const Module peer = simple_module("peer", "a");
  EXPECT_EQ(find_code(lint::lint_modules({&m, &peer}, {&dead}, {}),
                      lint::check::kTrivialDeadlock),
            nullptr);
  // A cycle never deadlocks: silent even single-module.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const DelayInterval d12 = DelayInterval::units(1, 2);
  ts.add_transition(s0, ts.add_event("fwd", d12), s1);
  ts.add_transition(s1, ts.add_event("back", d12), s0);
  ts.set_initial(s0);
  Module ring("ring", std::move(ts));
  EXPECT_EQ(find_code(lint_one(ring, {&dead}), lint::check::kTrivialDeadlock),
            nullptr);
}

TEST(LintReport, SortsErrorsFirstAndFormatsSummary) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const DelayInterval d12 = DelayInterval::units(1, 2);
  ts.add_transition(s0, ts.add_event("live", d12), s1);
  ts.add_event("orphan", d12);               // L007 warning
  ts.add_transition(s1, ts.add_event("bad", DelayInterval(8, 4)), s0);  // L002
  ts.set_initial(s0);
  Module m("mixed", std::move(ts));
  const LintReport r = lint_one(m);
  ASSERT_GE(r.count(Severity::kError), 1u);
  ASSERT_GE(r.count(Severity::kWarning), 1u);
  EXPECT_EQ(r.diagnostics.front().severity, Severity::kError);
  const std::string text = r.format();
  EXPECT_NE(text.find("error RTV-L002"), std::string::npos) << text;
  EXPECT_NE(text.find("warning RTV-L007"), std::string::npos) << text;
  EXPECT_NE(text.find("lint:"), std::string::npos) << text;
}

TEST(LintReportJson, RoundTripsThroughParse) {
  TransitionSystem ts;
  ts.add_state();
  Module m("no-init", std::move(ts));
  const DeadlockFreedom dead;
  const PersistencyProperty pers({"ghost"});
  LintReport r = lint_one(m, {&dead, &pers});
  ASSERT_FALSE(r.clean());
  // A note exercises the third severity through the wire.
  r.diagnostics.push_back(
      Diagnostic{"RTV-L999", Severity::kNote, "no-init", "", "informational"});

  const LintReport parsed = lint::parse_lint_report(r.to_json());
  ASSERT_EQ(parsed.diagnostics.size(), r.diagnostics.size());
  for (std::size_t i = 0; i < parsed.diagnostics.size(); ++i) {
    EXPECT_EQ(parsed.diagnostics[i].code, r.diagnostics[i].code);
    EXPECT_EQ(parsed.diagnostics[i].severity, r.diagnostics[i].severity);
    EXPECT_EQ(parsed.diagnostics[i].module, r.diagnostics[i].module);
    EXPECT_EQ(parsed.diagnostics[i].object, r.diagnostics[i].object);
    EXPECT_EQ(parsed.diagnostics[i].message, r.diagnostics[i].message);
  }
  EXPECT_EQ(parsed.errors(), r.errors());
  EXPECT_EQ(parsed.exit_code(), r.exit_code());
}

TEST(LintReportJson, RejectsCorruptedDocuments) {
  const std::string json = LintReport{}.to_json();
  EXPECT_THROW(lint::parse_lint_report("not json"), std::runtime_error);
  EXPECT_THROW(lint::parse_lint_report("{}"), std::runtime_error);
  std::string wrong = json;
  wrong.replace(wrong.find("rtv-lint-report"), 15, "something-elsex");
  EXPECT_THROW(lint::parse_lint_report(wrong), std::runtime_error);
  std::string future = json;
  future.replace(future.find("\"schema_version\":1"), 18,
                 "\"schema_version\":99");
  EXPECT_THROW(lint::parse_lint_report(future), std::runtime_error);
  EXPECT_THROW(lint::parse_lint_report(std::string(2000000, '[')),
               std::runtime_error);
}

TEST(LintReport, ExitCodeConvention) {
  LintReport r;
  EXPECT_EQ(r.exit_code(), 0);
  r.diagnostics.push_back(Diagnostic{"RTV-L999", Severity::kNote, "", "", "n"});
  EXPECT_EQ(r.exit_code(), 0) << "notes do not dirty a model";
  r.diagnostics.push_back(
      Diagnostic{"RTV-L007", Severity::kWarning, "", "", "w"});
  EXPECT_EQ(r.exit_code(), 1);
  r.diagnostics.push_back(Diagnostic{"RTV-L001", Severity::kError, "", "", "e"});
  EXPECT_EQ(r.exit_code(), 2);
}

TEST(LintObligation, MirrorsSuiteEngineAndBudgetResolution) {
  Suite suite;
  const Module* wrap = suite.own(wrap_module());
  Obligation& ob = suite.add("wrap", {wrap}, {});
  ob.budget.max_states = 65536;

  // Batch default resolves to {"refine"}: engine-range checks disarm.
  EXPECT_FALSE(lint::lint_obligation(ob, {}).has_errors());

  // Per-obligation discrete override: the pre-flight sees the doomed run.
  ob.engine = "discrete";
  const LintReport r = lint::lint_obligation(ob, {});
  ASSERT_NE(find_code(r, lint::check::kCertainTruncation), nullptr)
      << r.format();
  EXPECT_TRUE(r.has_errors());

  // Suite-wide budget inherited when the obligation leaves it unset.
  ob.budget.max_states = 0;
  SuiteOptions wide;
  wide.budget.max_states = 65536;
  EXPECT_TRUE(lint::lint_obligation(ob, wide).has_errors());
  EXPECT_FALSE(lint::lint_obligation(ob, {}).has_errors())
      << "default 4M budget ages past 80000 ticks";
}

TEST(LintSuite, PreflightShortCircuitsDoomedDiscreteRuns) {
  // The acceptance scenario end to end: the wrap model on the discrete
  // engine under a 16-bit-era budget never reaches the engine.
  Suite suite;
  const Module* wrap = suite.own(wrap_module());
  Obligation& ob = suite.add("wrap", {wrap}, {});
  ob.budget.max_states = 65536;
  SuiteOptions opts;
  opts.engines = {"discrete"};
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  const SuiteRecord& rec = report.records[0];
  EXPECT_EQ(rec.result.verdict, Verdict::kInconclusive);
  EXPECT_EQ(rec.result.truncated_reason, stop_reason::kLintError);
  EXPECT_EQ(rec.result.states_explored, 0u) << "the engine ran anyway";
  ASSERT_FALSE(rec.lint.empty());
  EXPECT_EQ(rec.lint.front().code, lint::check::kCertainTruncation);
  EXPECT_NE(rec.result.message.find("80000"), std::string::npos)
      << rec.result.message;

  // Suite-report JSON carries the diagnostics through a round-trip.
  const SuiteReport parsed = parse_suite_report(report.to_json());
  ASSERT_EQ(parsed.records.size(), 1u);
  ASSERT_EQ(parsed.records[0].lint.size(), rec.lint.size());
  EXPECT_EQ(parsed.records[0].lint.front().code, rec.lint.front().code);
  EXPECT_EQ(parsed.records[0].lint.front().message, rec.lint.front().message);
}

TEST(LintSuite, WarningsAttachWithoutBlockingTheRun) {
  Suite suite;
  const Module* wrap = suite.own(wrap_module());
  suite.add("wrap", {wrap}, {});
  SuiteOptions opts;
  opts.engines = {"zone"};  // no digitization: clean of engine-range errors
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_NE(report.records[0].result.truncated_reason,
            stop_reason::kLintError);
  EXPECT_NE(report.records[0].result.verdict, Verdict::kInconclusive);
}

TEST(LintServe, FastRejectAnswersWithoutEngineOrCache) {
  const std::string socket = "/tmp/rtv-test-lint-" +
                             std::to_string(::getpid()) + ".sock";
  serve::ServerOptions sopts;
  sopts.socket_path = socket;
  sopts.jobs = 2;
  serve::Server server(std::move(sopts));
  server.start();

  serve::Client client;
  client.connect(socket);

  auto pulse = [](const std::string& name, double lo, double hi,
                  EventKind kind) {
    TransitionSystem ts;
    const StateId s0 = ts.add_state();
    const StateId s1 = ts.add_state();
    ts.add_transition(s0, ts.add_event("x+", DelayInterval::units(lo, hi), kind),
                      s1);
    ts.set_initial(s0);
    return Module(name, std::move(ts));
  };
  serve::WireObligation bad;
  bad.name = "contradictory";
  bad.modules.push_back(pulse("early", 1, 2, EventKind::kOutput));
  bad.modules.push_back(pulse("late", 5, 9, EventKind::kInput));
  bad.properties.push_back(serve::PropertySpec::deadlock());

  serve::ServeRequest req;
  req.kind = serve::RequestKind::kVerify;
  req.obligations.push_back(bad);
  for (int round = 0; round < 2; ++round) {
    const serve::ServeResponse resp = client.call(req);
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_EQ(resp.report.records.size(), 1u);
    const SuiteRecord& rec = resp.report.records[0];
    EXPECT_EQ(rec.result.verdict, Verdict::kInconclusive);
    EXPECT_EQ(rec.result.truncated_reason, stop_reason::kLintError);
    EXPECT_NE(rec.result.message.find("x+"), std::string::npos);
    ASSERT_FALSE(rec.lint.empty()) << "the findings ride on the record";
    EXPECT_EQ(rec.lint.front().format(), rec.result.message);
    EXPECT_FALSE(rec.cached) << "lint rejections must not enter the cache";
  }

  const serve::ServeStats stats = client.get_stats();
  EXPECT_EQ(stats.lint_rejected, 2u);
  EXPECT_EQ(stats.computed, 0u) << "no engine may run";
  EXPECT_EQ(stats.cache_hits, 0u);

  // A well-formed obligation on the same connection still verifies.
  serve::WireObligation good;
  good.name = "intro";
  good.modules.push_back(gallery::intro_example());
  good.modules.push_back(gallery::order_monitor("g", "d"));
  good.properties.push_back(
      serve::PropertySpec::invariant("g before d", {{"fail", true}}));
  serve::ServeRequest ok;
  ok.kind = serve::RequestKind::kVerify;
  ok.obligations.push_back(good);
  const serve::ServeResponse resp = client.call(ok);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.report.records[0].result.verdict, Verdict::kVerified);
  EXPECT_EQ(client.get_stats().computed, 1u);
  server.stop();
}

TEST(LintCorpus, ShippedSamplesAreLintClean) {
  const auto load = [](const std::string& name) {
    const std::string path = std::string(RTV_EXAMPLE_DATA_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    return elaborate(parse_astg(in));
  };
  const Module env = load("hs_env.g");
  const Module dev = load("hs_dev.g");
  const Module toggle = load("toggle.g");
  const DeadlockFreedom dead;
  const PersistencyProperty pers;

  const LintReport hs = lint::lint_modules({&env, &dev}, {&dead, &pers}, {});
  EXPECT_FALSE(hs.has_errors()) << hs.format();
  const LintReport tg = lint_one(toggle);
  EXPECT_FALSE(tg.has_errors()) << tg.format();
}

TEST(LintCorpus, BankedFuzzReproducersAreLintErrorFree) {
  // The three banked soundness findings (test_fuzz_campaign): all were
  // engine bugs, not model bugs — lint must not retroactively blame the
  // models, or the campaign's lint cross-check would misfire.
  struct Banked {
    std::uint64_t seed;
    const char* config_json;
  };
  static const Banked kFindings[] = {
      {15632277821397755268ULL,
       R"({"schema":"rtv-fuzz-config","modules":2,"events":1,"max_delay":16,)"
       R"("properties":0,"unbounded_p":0,"share_p":0.3,"point_delays":true,)"
       R"("gates":true,"deadlock_check":false,"persistency_check":false})"},
      {1454460304657522376ULL,
       R"({"schema":"rtv-fuzz-config","modules":3,"events":2,"max_delay":1,)"
       R"("properties":0,"unbounded_p":0.1,"share_p":0.3,"point_delays":false,)"
       R"("gates":true,"deadlock_check":false,"persistency_check":false})"},
      {3138098403129281633ULL,
       R"({"schema":"rtv-fuzz-config","modules":2,"events":4,"max_delay":16,)"
       R"("properties":0,"unbounded_p":0.1,"share_p":0.3,"point_delays":false,)"
       R"("gates":false,"deadlock_check":false,"persistency_check":false})"},
  };
  LintOptions lo;
  lo.engines = {"refine", "zone", "discrete"};  // campaign defaults
  lo.max_states = 200'000;
  for (const Banked& f : kFindings) {
    const fuzz::Scenario sc =
        fuzz::generate(f.seed, fuzz::GeneratorConfig::from_json(f.config_json));
    const LintReport r =
        lint::lint_modules(sc.module_ptrs(), sc.property_ptrs(), lo);
    EXPECT_FALSE(r.has_errors()) << "seed " << f.seed << ": " << r.format();
  }
}

}  // namespace
}  // namespace rtv
