// The batch-verification subsystem (rtv/verify/suite.hpp):
//
//   * Suite storage and obligation construction,
//   * batch runs produce verdicts identical to sequential single-engine
//     runs on the Fig. 1 gallery and an IPCMOS Table 1 obligation, at any
//     job count,
//   * portfolio runs: the first definitive engine wins and the losers are
//     observably cancelled (stop reason = "cancelled by caller"), both via
//     the pre-run skip (1 worker) and mid-run (racing workers); an
//     inconclusive engine never masks a definitive peer,
//   * each obligation is composed once, and every engine of it reads that
//     one composition; a truncated or failing composition answers every
//     record of the obligation without running an engine,
//   * the JSON suite report round-trips through parse_suite_report and
//     rejects corrupted documents,
//   * exit-code mapping for scripted callers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "engine_support.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/report.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv {
namespace {

/// The Fig. 1 gallery obligation ("g before d" holds in every timed run).
void add_intro_obligation(Suite& suite, const std::string& name) {
  const Module* sys = suite.own(gallery::intro_example());
  const Module* mon = suite.own(gallery::order_monitor("g", "d"));
  const SafetyProperty* bad = suite.own(std::make_unique<InvariantProperty>(
      "g before d", std::vector<InvariantProperty::Literal>{{"fail", true}}));
  suite.add(name, {sys, mon}, {bad});
}

/// The boundary-2 obligation of the 2-stage IPCMOS pipeline (experiment
/// 3's shape): IN || I1 || A_out(2) must stay within A_in(2).
void add_ipcmos_obligation(Suite& suite, const std::string& name) {
  const ipcmos::PipelineTiming t;
  const Module* in = suite.own(ipcmos::make_in_env(t));
  const Module* stage = suite.own(ipcmos::make_stage(1, t));
  const Module* aout = suite.own(ipcmos::make_aout(2));
  const Module ain = ipcmos::make_ain(2);
  const Module* mon = suite.own(ain.as_monitor("Ain2'"));
  const SafetyProperty* dead = suite.own(std::make_unique<DeadlockFreedom>());
  const SafetyProperty* pers =
      suite.own(std::make_unique<PersistencyProperty>());
  suite.add(name, {in, stage, aout, mon}, {dead, pers});
}

/// Sequential ground truth for one obligation on one engine.
EngineResult run_sequential(const Obligation& ob, const char* engine_name) {
  EngineRequest req;
  req.budget = ob.budget;
  req.max_refinements =
      ob.max_refinements ? ob.max_refinements : SuiteOptions{}.max_refinements;
  return test::decide(engine_name, ob.modules, ob.properties, req);
}

/// Two pulses declaring contradictory delay bounds on the shared "x+":
/// compose() throws on them.
void add_contradictory_obligation(Suite& suite, const std::string& name) {
  auto pulse = [](const std::string& module, Time lo, Time hi,
                  EventKind kind) {
    TransitionSystem ts;
    const StateId s0 = ts.add_state();
    const StateId s1 = ts.add_state();
    ts.add_transition(s0, ts.add_event("x+", DelayInterval::units(lo, hi), kind),
                      s1);
    ts.set_initial(s0);
    return Module(module, std::move(ts));
  };
  const Module* early = suite.own(pulse("early", 1, 2, EventKind::kOutput));
  const Module* late = suite.own(pulse("late", 5, 9, EventKind::kInput));
  const SafetyProperty* dead = suite.own(std::make_unique<DeadlockFreedom>());
  suite.add(name, {early, late}, {dead});
}

double composed_states_total() {
  const obs::MetricsSnapshot snap = obs::snapshot();
  const obs::MetricPoint* p = snap.find("rtv_compose_states_total", "");
  return p ? p->value : 0.0;
}

TEST(SuiteApi, StorageAndObligationConstruction) {
  Suite suite;
  EXPECT_TRUE(suite.empty());
  add_intro_obligation(suite, "intro");
  Obligation& ob = suite.add("second");
  ob.modules = suite.obligations().front().modules;
  ob.properties = suite.obligations().front().properties;
  EXPECT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite.obligations().front().name, "intro");
  EXPECT_EQ(suite.obligations().back().name, "second");
  EXPECT_EQ(suite.obligations().front().modules.size(), 2u);
}

TEST(SuiteApi, UnknownEngineThrows) {
  Suite suite;
  add_intro_obligation(suite, "intro");
  SuiteOptions opts;
  opts.engines = {"no-such-engine"};
  EXPECT_THROW(run_suite(suite, opts), std::invalid_argument);
  Suite per_ob;
  add_intro_obligation(per_ob, "intro");
  per_ob.obligations().front().engine = "bogus";
  EXPECT_THROW(run_suite(per_ob), std::invalid_argument);
}

TEST(SuiteBatch, ContradictoryDelaysShortCircuitOrThrow) {
  // Contradictory delay bounds on a shared label take one of two paths:
  // the default lint pre-flight rejects the obligation before any engine
  // runs (kLintError), and with the pre-flight disabled the engine's
  // compose() call throws std::invalid_argument on a pool thread, which
  // the suite must record against the one bad obligation (kEngineError)
  // without terminating the batch.  Either way the other obligation
  // finishes.
  Suite suite;
  add_intro_obligation(suite, "good");
  add_contradictory_obligation(suite, "contradictory");

  const auto bad_record = [](const SuiteReport& report) -> const SuiteRecord* {
    for (const SuiteRecord& rec : report.records)
      if (rec.obligation == "contradictory") return &rec;
    return nullptr;
  };

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SuiteOptions opts;
    opts.jobs = jobs;
    const SuiteReport report = run_suite(suite, opts);
    ASSERT_EQ(report.records.size(), 2u) << "jobs=" << jobs;
    EXPECT_EQ(report.verdict_of("good"), Verdict::kVerified);
    const SuiteRecord* bad = bad_record(report);
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->result.verdict, Verdict::kInconclusive);
    EXPECT_EQ(bad->result.truncated_reason, stop_reason::kLintError);
    EXPECT_NE(bad->result.message.find("x+"), std::string::npos)
        << bad->result.message;
    ASSERT_FALSE(bad->lint.empty());
    EXPECT_EQ(bad->lint.front().code, "RTV-L004");
    EXPECT_EQ(bad->result.states_explored, 0u) << "an engine ran anyway";
  }

  SuiteOptions raw;
  raw.preflight = false;
  const SuiteReport report = run_suite(suite, raw);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.verdict_of("good"), Verdict::kVerified);
  const SuiteRecord* bad = bad_record(report);
  ASSERT_NE(bad, nullptr);
  EXPECT_TRUE(bad->lint.empty());
  EXPECT_EQ(bad->result.verdict, Verdict::kInconclusive);
  EXPECT_EQ(bad->result.truncated_reason, stop_reason::kEngineError);
  EXPECT_NE(bad->result.message.find("x+"), std::string::npos)
      << bad->result.message;
}

TEST(SuiteCompose, ThreeEngineBatchComposesOnce) {
  // Refine, zone and discrete on one obligation all read one shared
  // composition: the composed-state counter grows by one composition's
  // states, not three times that.
  obs::set_metrics_enabled(true);
  Suite suite;
  add_ipcmos_obligation(suite, "ipcmos boundary 2");
  SuiteOptions opts;
  opts.engines = {"refine", "zone", "discrete"};
  opts.jobs = 4;
  const double before = composed_states_total();
  const SuiteReport report = run_suite(suite, opts);
  const double delta = composed_states_total() - before;

  ASSERT_EQ(report.records.size(), 3u);
  for (const SuiteRecord& rec : report.records)
    EXPECT_EQ(rec.result.verdict, Verdict::kVerified) << rec.engine;
  const std::size_t states =
      test::refine_stats(report.records[0].result).composed_states;
  EXPECT_GT(states, 0u);
  EXPECT_EQ(delta, static_cast<double>(states));
}

TEST(SuiteCompose, TruncatedCompositionAnswersEveryRecord) {
  // A 1-state budget truncates the one composition: no engine runs, and
  // every record carries the compose stop reason with nothing explored.
  Suite suite;
  add_intro_obligation(suite, "intro");
  suite.obligations().front().budget.max_states = 1;
  SuiteOptions opts;
  opts.engines = {"refine", "zone", "discrete"};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    opts.jobs = jobs;
    const SuiteReport report = run_suite(suite, opts);
    ASSERT_EQ(report.records.size(), 3u);
    for (const SuiteRecord& rec : report.records) {
      EXPECT_EQ(rec.result.verdict, Verdict::kInconclusive) << rec.engine;
      EXPECT_EQ(rec.result.truncated_reason, stop_reason::kComposeBudget)
          << rec.engine;
      EXPECT_EQ(rec.result.states_explored, 0u) << rec.engine;
    }
  }
}

TEST(SuiteCompose, ComposeThrowAnswersEveryRecordWithTheError) {
  // Contradictory delay bounds past a disabled pre-flight: compose()
  // throws once, and every engine's record carries the same message.
  Suite suite;
  add_contradictory_obligation(suite, "contradictory");
  SuiteOptions opts;
  opts.preflight = false;
  opts.engines = {"refine", "zone", "discrete"};
  opts.jobs = 3;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 3u);
  const std::string& message = report.records[0].result.message;
  EXPECT_NE(message.find("x+"), std::string::npos) << message;
  for (const SuiteRecord& rec : report.records) {
    EXPECT_EQ(rec.result.verdict, Verdict::kInconclusive) << rec.engine;
    EXPECT_EQ(rec.result.truncated_reason, stop_reason::kEngineError)
        << rec.engine;
    EXPECT_EQ(rec.result.message, message) << rec.engine;
  }
}

TEST(SuiteApi, EmptySuiteIsVacuouslyVerified) {
  const SuiteReport report = run_suite(Suite{});
  EXPECT_TRUE(report.records.empty());
  EXPECT_EQ(report.overall(), Verdict::kVerified);
  EXPECT_EQ(report.verdict_of("anything"), Verdict::kInconclusive);
}

TEST(SuiteBatch, MatchesSequentialSingleEngineRuns) {
  // Gallery + one IPCMOS Table 1 obligation, all three engines, in
  // parallel: every obligation×engine verdict must equal the sequential
  // single-engine run's.
  Suite suite;
  add_intro_obligation(suite, "fig1 gallery");
  add_ipcmos_obligation(suite, "ipcmos boundary 2");

  SuiteOptions opts;
  opts.engines = engine_registry().names();
  opts.jobs = 4;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), suite.size() * opts.engines.size());

  std::size_t i = 0;
  for (const Obligation& ob : suite.obligations()) {
    for (const std::string& name : opts.engines) {
      const SuiteRecord& rec = report.records[i++];
      EXPECT_EQ(rec.obligation, ob.name);
      EXPECT_EQ(rec.engine, name);
      const EngineResult seq = run_sequential(ob, name.c_str());
      EXPECT_EQ(rec.result.verdict, seq.verdict)
          << ob.name << " on " << name;
      EXPECT_EQ(rec.result.states_explored, seq.states_explored)
          << ob.name << " on " << name;
      EXPECT_TRUE(rec.winner);  // batch: every definitive record decides
    }
  }
  EXPECT_EQ(report.overall(), Verdict::kVerified);
  EXPECT_EQ(report.verdict_of("fig1 gallery"), Verdict::kVerified);
}

TEST(SuiteBatch, JobCountsProduceIdenticalVerdicts) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    Suite suite;
    add_intro_obligation(suite, "intro");
    add_ipcmos_obligation(suite, "ipcmos");
    SuiteOptions opts;
    opts.jobs = jobs;
    const SuiteReport report = run_suite(suite, opts);
    EXPECT_EQ(report.jobs, std::min<std::size_t>(jobs, suite.size()));
    EXPECT_EQ(report.overall(), Verdict::kVerified) << jobs << " jobs";
  }
}

TEST(SuiteBatch, PerObligationEngineOverride) {
  Suite suite;
  add_intro_obligation(suite, "on zone");
  add_intro_obligation(suite, "on discrete");
  suite.obligations()[0].engine = "zone";
  suite.obligations()[1].engine = "discrete";
  const SuiteReport report = run_suite(suite);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].engine, "zone");
  EXPECT_EQ(report.records[1].engine, "discrete");
  EXPECT_EQ(report.overall(), Verdict::kVerified);
}

TEST(SuiteFrontEnd, ResolvesEnginesAndBudgetLikeTheScheduler) {
  Suite suite;
  add_intro_obligation(suite, "intro");
  Obligation& ob = suite.obligations().front();
  SuiteOptions opts;
  opts.budget.max_states = 100;
  opts.budget.max_seconds = 2.0;
  opts.max_refinements = 7;

  // Batch default, then the suite-wide selection, then the per-obligation
  // override; portfolio ignores the override and runs every engine.
  EXPECT_EQ(front_end(ob, opts).engines,
            std::vector<std::string>{"refine"});
  opts.engines = {"zone", "discrete"};
  EXPECT_EQ(front_end(ob, opts).engines,
            (std::vector<std::string>{"zone", "discrete"}));
  ob.engine = "discrete";
  EXPECT_EQ(front_end(ob, opts).engines,
            std::vector<std::string>{"discrete"});
  opts.mode = SuiteMode::kPortfolio;
  opts.engines.clear();
  EXPECT_EQ(front_end(ob, opts).engines, engine_registry().names());

  // Nonzero per-obligation fields win; the rest inherit.
  FrontEnd fe = front_end(ob, opts);
  EXPECT_EQ(fe.budget.max_states, 100u);
  EXPECT_EQ(fe.budget.max_seconds, 2.0);
  EXPECT_EQ(fe.max_refinements, 7u);
  ob.budget.max_states = 5;
  ob.max_refinements = 9;
  fe = front_end(ob, opts);
  EXPECT_EQ(fe.budget.max_states, 5u);
  EXPECT_EQ(fe.budget.max_seconds, 2.0);
  EXPECT_EQ(fe.max_refinements, 9u);

  // With the pre-flight and the slicer off there is nothing to lint and
  // the slice is the identity.
  opts.preflight = false;
  opts.slice = false;
  fe = front_end(ob, opts);
  EXPECT_TRUE(fe.lint.clean());
  EXPECT_TRUE(fe.slice.identity);
  EXPECT_EQ(fe.slice.modules, ob.modules);
}

TEST(SuiteFrontEnd, AnExplicitCapOf500IsKeptUnderASmallerSuiteDefault) {
  // 500 is an ordinary cap, not "inherit": Table 1 obligation 2 needs 19
  // refinements, so the suite default of 1 would end it INCONCLUSIVE.
  const Suite table1 = ipcmos::table1_suite();
  Suite suite;
  suite.obligations().push_back(table1.obligations()[1]);
  suite.obligations().front().max_refinements = 500;
  SuiteOptions opts;
  opts.max_refinements = 1;
  EXPECT_EQ(front_end(suite.obligations().front(), opts).max_refinements,
            500u);
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].result.verdict, Verdict::kVerified)
      << report.records[0].result.message;
}

TEST(SuitePortfolio, WinnerMatchesSequentialAndLoserIsCancelled) {
  // Zones decide race3 in a handful of zones no matter how large the
  // constants; the digitized engine needs tens of thousands of configs at
  // k = 5000.  Racing both, zone must win and discrete must be observably
  // cancelled — either before it starts (pre-run skip) or mid-run.
  Suite suite;
  const Module* sys = suite.own(gallery::scaled_race(5000));
  const Module* mon = suite.own(gallery::order_monitor("a", "c"));
  const SafetyProperty* bad = suite.own(std::make_unique<InvariantProperty>(
      "a before c", std::vector<InvariantProperty::Literal>{{"fail", true}}));
  suite.add("race3", {sys, mon}, {bad});

  const EngineResult seq = run_sequential(suite.obligations().front(), "zone");
  ASSERT_NE(seq.verdict, Verdict::kInconclusive);

  SuiteOptions opts;
  opts.mode = SuiteMode::kPortfolio;
  opts.engines = {"zone", "discrete"};
  opts.jobs = 2;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 2u);
  const SuiteRecord& zone_rec = report.records[0];
  const SuiteRecord& discrete_rec = report.records[1];

  EXPECT_TRUE(zone_rec.winner);
  EXPECT_EQ(zone_rec.result.verdict, seq.verdict);
  EXPECT_EQ(report.verdict_of("race3"), seq.verdict);

  EXPECT_FALSE(discrete_rec.winner);
  EXPECT_EQ(discrete_rec.result.verdict, Verdict::kInconclusive);
  EXPECT_EQ(discrete_rec.result.truncated_reason, stop_reason::kCancelled);

  const auto summaries = report.summaries();
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].winner, "zone");
  EXPECT_EQ(summaries[0].verdict, seq.verdict);
}

TEST(SuitePortfolio, SingleWorkerSkipsLosersAfterDecision) {
  // With one worker the engines run in selection order: the first
  // definitive finish cancels the obligation, and the remaining tasks are
  // recorded as cancelled without exploring a single state.
  Suite suite;
  add_intro_obligation(suite, "intro");
  SuiteOptions opts;
  opts.mode = SuiteMode::kPortfolio;
  opts.engines = {"refine", "zone", "discrete"};
  opts.jobs = 1;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_TRUE(report.records[0].winner);
  EXPECT_EQ(report.records[0].result.verdict, Verdict::kVerified);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_FALSE(report.records[i].winner);
    EXPECT_EQ(report.records[i].result.truncated_reason,
              stop_reason::kCancelled);
    EXPECT_EQ(report.records[i].result.states_explored, 0u);
  }
  EXPECT_EQ(report.overall(), Verdict::kVerified);
}

TEST(SuitePortfolio, InconclusiveNeverMasksADefinitivePeer) {
  // A state budget that truncates the digitized engine (tens of thousands
  // of configs needed) but lets zones finish (seven zones): the
  // inconclusive finisher must not decide, cancel, or outrank the
  // definitive peer — even when it finishes first (jobs = 1, discrete
  // scheduled before zone).
  Suite suite;
  const Module* sys = suite.own(gallery::scaled_race(5000));
  const Module* mon = suite.own(gallery::order_monitor("a", "c"));
  const SafetyProperty* bad = suite.own(std::make_unique<InvariantProperty>(
      "a before c", std::vector<InvariantProperty::Literal>{{"fail", true}}));
  Obligation& ob = suite.add("race3", {sys, mon}, {bad});
  ob.budget.max_states = 500;

  const EngineResult seq = run_sequential(ob, "zone");
  ASSERT_NE(seq.verdict, Verdict::kInconclusive);

  SuiteOptions opts;
  opts.mode = SuiteMode::kPortfolio;
  opts.engines = {"discrete", "zone"};
  opts.jobs = 1;
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].engine, "discrete");
  EXPECT_EQ(report.records[0].result.verdict, Verdict::kInconclusive);
  EXPECT_EQ(report.records[0].result.truncated_reason,
            stop_reason::kStateBudget);
  EXPECT_FALSE(report.records[0].winner);
  EXPECT_TRUE(report.records[1].winner);
  EXPECT_EQ(report.records[1].result.verdict, seq.verdict);
  EXPECT_EQ(report.verdict_of("race3"), seq.verdict);
}

TEST(SuiteCancellation, SuiteWideTokenAbortsRemainingObligations) {
  CancelToken token;
  token.cancel();
  Suite suite;
  add_intro_obligation(suite, "a");
  add_intro_obligation(suite, "b");
  SuiteOptions opts;
  opts.budget.cancel = &token;
  const SuiteReport report = run_suite(suite, opts);
  for (const SuiteRecord& rec : report.records) {
    EXPECT_EQ(rec.result.verdict, Verdict::kInconclusive);
    EXPECT_EQ(rec.result.truncated_reason, stop_reason::kCancelled);
  }
  EXPECT_EQ(report.overall(), Verdict::kInconclusive);
}

TEST(SuiteReportJson, RoundTripsThroughParse) {
  Suite suite;
  add_intro_obligation(suite, "fig1 gallery");
  add_ipcmos_obligation(suite, "ipcmos boundary 2");
  SuiteOptions opts;
  opts.engines = {"refine", "zone"};
  opts.jobs = 2;
  const SuiteReport report = run_suite(suite, opts);

  const std::string json = report.to_json();
  const SuiteReport parsed = parse_suite_report(json);
  EXPECT_EQ(parsed.mode, report.mode);
  EXPECT_EQ(parsed.jobs, report.jobs);
  EXPECT_NEAR(parsed.wall_seconds, report.wall_seconds, 1e-9);
  ASSERT_EQ(parsed.records.size(), report.records.size());
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    const SuiteRecord& a = parsed.records[i];
    const SuiteRecord& b = report.records[i];
    EXPECT_EQ(a.obligation, b.obligation);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.result.verdict, b.result.verdict);
    EXPECT_EQ(a.result.truncated_reason, b.result.truncated_reason);
    EXPECT_EQ(a.result.states_explored, b.result.states_explored);
    EXPECT_EQ(a.result.message, b.result.message);
    EXPECT_EQ(a.result.trace_labels, b.result.trace_labels);
    EXPECT_EQ(a.winner, b.winner);
    EXPECT_NEAR(a.result.seconds, b.result.seconds, 1e-9);
    EXPECT_NEAR(a.cpu_seconds, b.cpu_seconds, 1e-9);
  }
  // The parsed report aggregates identically.
  EXPECT_EQ(parsed.overall(), report.overall());
  EXPECT_EQ(parsed.verdict_of("fig1 gallery"),
            report.verdict_of("fig1 gallery"));
}

TEST(SuiteReportJson, EscapesAndRestoresSpecialCharacters) {
  SuiteReport report;
  report.mode = SuiteMode::kPortfolio;
  report.jobs = 7;
  report.wall_seconds = 1.25;
  SuiteRecord rec;
  rec.obligation = "quote \" backslash \\ newline \n tab \t done";
  rec.engine = "zone";
  rec.result.verdict = Verdict::kViolated;
  rec.result.message = "control \x01 char";
  rec.result.trace_labels = {"a+", "b-", "weird \"label\""};
  rec.result.states_explored = 42;
  rec.winner = true;
  report.records.push_back(rec);

  const SuiteReport parsed = parse_suite_report(report.to_json());
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].obligation, rec.obligation);
  EXPECT_EQ(parsed.records[0].result.message, rec.result.message);
  EXPECT_EQ(parsed.records[0].result.trace_labels, rec.result.trace_labels);
  EXPECT_EQ(parsed.mode, SuiteMode::kPortfolio);
}

TEST(SuiteReportJson, RejectsCorruptedDocuments) {
  Suite suite;
  add_intro_obligation(suite, "intro");
  const std::string json = run_suite(suite).to_json();

  EXPECT_THROW(parse_suite_report("not json"), std::runtime_error);
  EXPECT_THROW(parse_suite_report("{}"), std::runtime_error);
  EXPECT_THROW(parse_suite_report(json.substr(0, json.size() / 2)),
               std::runtime_error);
  // Wrong schema tag.
  std::string wrong = json;
  wrong.replace(wrong.find("rtv-suite-report"), 16, "something-else-x");
  EXPECT_THROW(parse_suite_report(wrong), std::runtime_error);
  // Future schema version.
  std::string future = json;
  future.replace(future.find("\"schema_version\": 1"), 19,
                 "\"schema_version\": 99");
  EXPECT_THROW(parse_suite_report(future), std::runtime_error);
  // Deep nesting fails like any malformed input, not by overflowing the
  // stack.
  EXPECT_THROW(parse_suite_report(std::string(2000000, '[')),
               std::runtime_error);
}

TEST(SuiteReportJson, EnvelopeErrorsAreExact) {
  const auto error = [](const std::string& doc) {
    try {
      parse_suite_report(doc);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(error("[]"), "suite report JSON: root is not an object");
  EXPECT_EQ(error(R"({"schema":"x","schema_version":1})"),
            "suite report JSON: wrong schema tag");
  EXPECT_EQ(error(R"({"schema":"rtv-suite-report","schema_version":99})"),
            "suite report JSON: schema version 99 is newer than this "
            "library supports (max 1)");
  EXPECT_EQ(error(R"({"schema":"rtv-suite-report","schema_version":0})"),
            "suite report JSON: invalid schema version 0");
}

TEST(SuiteReportJson, NewerSchemaVersionErrorNamesBothVersions) {
  Suite suite;
  add_intro_obligation(suite, "intro");
  std::string future = run_suite(suite).to_json();
  future.replace(future.find("\"schema_version\": 1"), 19,
                 "\"schema_version\": 99");
  try {
    parse_suite_report(future);
    FAIL() << "expected a schema-version rejection";
  } catch (const std::runtime_error& e) {
    // The wire/cache layer depends on skew being diagnosable from the
    // message alone: it must name the document's version AND the max
    // supported one.
    const std::string what = e.what();
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(SuiteReport::kSchemaVersion)),
              std::string::npos)
        << what;
  }
}

TEST(SuiteReportJson, CachedFlagRoundTripsAndDefaultsFalse) {
  SuiteReport report;
  SuiteRecord rec;
  rec.obligation = "ob";
  rec.engine = "refine";
  rec.result.verdict = Verdict::kVerified;
  rec.winner = true;
  rec.cached = true;
  report.records.push_back(rec);
  rec.cached = false;
  report.records.push_back(rec);

  const std::string json = report.to_json();
  const SuiteReport parsed = parse_suite_report(json);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_TRUE(parsed.records[0].cached);
  EXPECT_FALSE(parsed.records[1].cached);

  // Reports written before the marker existed parse with cached == false.
  std::string old = json;
  std::size_t pos;
  while ((pos = old.find(",\n      \"cached\": true")) != std::string::npos)
    old.erase(pos, std::string(",\n      \"cached\": true").size());
  while ((pos = old.find(",\n      \"cached\": false")) != std::string::npos)
    old.erase(pos, std::string(",\n      \"cached\": false").size());
  ASSERT_EQ(old.find("cached"), std::string::npos) << old;
  const SuiteReport legacy = parse_suite_report(old);
  ASSERT_EQ(legacy.records.size(), 2u);
  EXPECT_FALSE(legacy.records[0].cached);
  EXPECT_FALSE(legacy.records[1].cached);
}

TEST(SuiteReportApi, ExitCodeMapping) {
  EXPECT_EQ(exit_code(Verdict::kVerified), 0);
  EXPECT_EQ(exit_code(Verdict::kViolated), 1);
  EXPECT_EQ(exit_code(Verdict::kInconclusive), 2);
}

TEST(SuiteReportApi, TableRendersRecordsAndRollup) {
  Suite suite;
  add_intro_obligation(suite, "fig1 gallery obligation");
  SuiteOptions opts;
  opts.engines = {"refine", "zone"};
  const SuiteReport report = run_suite(suite, opts);
  const std::string table = format_table(report);
  EXPECT_NE(table.find("fig1 gallery obligation"), std::string::npos);
  EXPECT_NE(table.find("refine"), std::string::npos);
  EXPECT_NE(table.find("zone"), std::string::npos);
  EXPECT_NE(table.find("VERIFIED"), std::string::npos);
  EXPECT_NE(table.find("overall: VERIFIED"), std::string::npos);
  // One line per obligation x engine record, each naming its engine.
  std::istringstream lines(table);
  std::string header, rule, first, second;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, first);
  std::getline(lines, second);
  EXPECT_EQ(first.rfind("fig1 gallery obligation  refine", 0), 0u) << table;
  EXPECT_EQ(second.rfind("fig1 gallery obligation  zone", 0), 0u) << table;
}

TEST(SuiteIpcmos, Table1SuiteMatchesRunAllExperiments) {
  // The declarative Table 1 suite reproduces the classic sequential
  // driver's verdicts record for record (the full five run in
  // test_ipcmos; one obligation keeps this suite fast).
  const Suite suite = ipcmos::table1_suite();
  ASSERT_EQ(suite.size(), 5u);
  const std::vector<ipcmos::NamedResult> classic = {
      {"1. Ain || Aout |= S", ipcmos::experiment(1)}};
  SuiteOptions opts;
  opts.jobs = 1;
  // Run only the cheap first obligation here by building a 1-obligation
  // view: same modules/properties, same name.
  Suite one;
  Obligation& ob = one.add(suite.obligations().front().name);
  ob.modules = suite.obligations().front().modules;
  ob.properties = suite.obligations().front().properties;
  const SuiteReport report = run_suite(one, opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].obligation, classic[0].name);
  EXPECT_EQ(report.records[0].result.verdict, classic[0].result.verdict);
}

}  // namespace
}  // namespace rtv
