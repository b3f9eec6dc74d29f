#include "rtv/verify/suite.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "rtv/analysis/slice.hpp"
#include "rtv/base/json.hpp"
#include "rtv/base/parallel.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"

namespace rtv {

// ---------------------------------------------------------------------------
// Suite storage
// ---------------------------------------------------------------------------

const Module* Suite::own(Module m) {
  owned_modules_.push_back(std::move(m));
  return &owned_modules_.back();
}

const SafetyProperty* Suite::own(std::unique_ptr<SafetyProperty> p) {
  owned_properties_.push_back(std::move(p));
  return owned_properties_.back().get();
}

Obligation& Suite::add(std::string name) {
  obligations_.emplace_back();
  obligations_.back().name = std::move(name);
  return obligations_.back();
}

Obligation& Suite::add(std::string name, std::vector<const Module*> modules,
                       std::vector<const SafetyProperty*> properties) {
  Obligation& ob = add(std::move(name));
  ob.modules = std::move(modules);
  ob.properties = std::move(properties);
  return ob;
}

const char* to_string(SuiteMode mode) {
  return mode == SuiteMode::kPortfolio ? "portfolio" : "batch";
}

SuiteMode suite_mode_from_string(std::string_view s,
                                 std::string_view context) {
  for (const SuiteMode m : {SuiteMode::kBatch, SuiteMode::kPortfolio})
    if (s == to_string(m)) return m;
  throw std::runtime_error(std::string(context) + ": unknown mode '" +
                           std::string(s) + "'");
}

int exit_code(Verdict v) {
  switch (v) {
    case Verdict::kVerified:
      return 0;
    case Verdict::kViolated:
      return 1;
    case Verdict::kInconclusive:
      return 2;
  }
  return 2;
}

namespace {

bool definitive(Verdict v) { return v != Verdict::kInconclusive; }

/// Per-thread CPU clock; 0 when the platform has no per-thread clock.
double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
  return 0.0;
}

/// Shared state of one obligation's tasks: its front end, the portfolio
/// race and the one composition every engine of the obligation reads.
struct ObligationControl {
  const FrontEnd* front_end = nullptr;
  /// Handed to every run of the obligation; cancelled when a peer decides
  /// (portfolio) or when a suite-wide cancellation is observed.
  CancelToken token;
  /// Set once by the first definitive finisher (compare-exchange).
  std::atomic<bool> decided{false};
  /// Monotonic stamp of the winner's cancel() (0 = never fired), so losers
  /// can report how long the cancellation took to land.
  std::atomic<std::uint64_t> cancel_ns{0};

  /// The first task to need the composition builds it; its peers block in
  /// call_once meanwhile.  The fields below are written once, inside it.
  std::once_flag compose_once;
  /// Null when compose() threw (compose_error) or once released.
  std::unique_ptr<const Composition> composition;
  std::optional<std::string> compose_error;  ///< compose() threw: what()
  double compose_seconds = 0.0;
  /// Tasks of the obligation still to finish; the last one frees the
  /// composition, so at most the running obligations' products are live.
  std::atomic<std::size_t> pending{0};
};

struct Task {
  const Obligation* obligation = nullptr;
  ObligationControl* control = nullptr;
  const Engine* engine = nullptr;
};

const Engine* find_engine_or_throw(std::string_view name) {
  const Engine* e = engine_registry().find(name);
  if (!e)
    throw std::invalid_argument("unknown engine '" + std::string(name) + "'");
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// The front end
// ---------------------------------------------------------------------------

void FrontEnd::annotate(SuiteRecord& rec) const {
  rec.lint = lint.diagnostics;
  if (rejected()) return;  // no engine sees the slice
  rec.sliced_modules = slice.dropped_modules;
  rec.sliced_events = slice.dropped_events;
}

FrontEnd front_end(const Obligation& ob, const SuiteOptions& options) {
  FrontEnd fe;
  if (options.mode == SuiteMode::kBatch && !ob.engine.empty())
    fe.engines = {ob.engine};
  else if (!options.engines.empty())
    fe.engines = options.engines;
  else if (options.mode == SuiteMode::kBatch)
    fe.engines = {"refine"};
  else
    fe.engines = engine_registry().names();
  for (const std::string& name : fe.engines) find_engine_or_throw(name);
  fe.budget.max_states =
      ob.budget.max_states ? ob.budget.max_states : options.budget.max_states;
  fe.budget.max_seconds = ob.budget.max_seconds > 0.0
                              ? ob.budget.max_seconds
                              : options.budget.max_seconds;
  fe.max_refinements =
      ob.max_refinements ? ob.max_refinements : options.max_refinements;

  // One dependency graph feeds the slicer and the lint pass, and lint's
  // cone notes read this slice rather than slicing again.
  if (options.preflight || options.slice) {
    const analysis::DepGraph graph = analysis::build_depgraph(ob.modules);
    analysis::SliceOptions so;
    so.track_chokes = ob.track_chokes;
    fe.slice = analysis::slice(ob.modules, ob.properties, so, &graph);
    if (options.preflight) {
      lint::LintOptions lo;
      lo.engines = fe.engines;
      lo.max_states = fe.budget.max_states;
      fe.lint = lint::lint_modules(ob.modules, ob.properties, lo, &graph,
                                   &fe.slice);
    }
  }
  if (!options.slice) fe.slice = analysis::identity_slice(ob.modules);
  return fe;
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

SuiteReport run_suite(const Suite& suite, const SuiteOptions& options) {
  // Every obligation's front end before any thread spawns: an unknown
  // engine fails fast, and the slices own the pruned module rebuilds the
  // engines compose, so they must outlive the pool.  One control block per
  // obligation, one task per obligation×engine, in deterministic
  // obligation-major order (records mirror this order no matter which
  // worker finishes first).
  std::deque<FrontEnd> computed;
  std::deque<ObligationControl> controls;
  std::vector<Task> tasks;
  for (const Obligation& ob : suite.obligations()) {
    const FrontEnd& fe = ob.front_end
                             ? *ob.front_end
                             : computed.emplace_back(front_end(ob, options));
    ObligationControl& ctl = controls.emplace_back();
    ctl.front_end = &fe;
    ctl.pending = fe.engines.size();
    for (const std::string& name : fe.engines)
      tasks.push_back({&ob, &ctl, find_engine_or_throw(name)});
  }

  SuiteReport report;
  report.mode = options.mode;
  report.records.resize(tasks.size());

  // One global worker budget: obligation-level workers and the workers
  // sharding a single obligation's frontier share options.jobs, so
  // `--jobs N` is a true cap on concurrency.  With fewer tasks than
  // workers, the surplus goes to intra-obligation sharding.
  const std::size_t requested = resolve_jobs(options.jobs);
  const std::size_t jobs =
      std::min(requested, std::max<std::size_t>(tasks.size(), 1));
  const std::size_t intra_jobs = std::max<std::size_t>(1, requested / jobs);
  report.jobs = jobs;

  const CancelToken* suite_cancel = options.budget.cancel;
  const auto suite_aborted = [suite_cancel] {
    return suite_cancel && suite_cancel->cancelled();
  };

  std::mutex progress_mutex;

  // A definitive record decides its obligation: every one in batch mode,
  // only the first in portfolio mode, which then stops its peers.
  const auto decide = [&options](ObligationControl& ctl, SuiteRecord& rec,
                                 bool metered) {
    if (options.mode == SuiteMode::kPortfolio) {
      bool expected = false;
      if (!ctl.decided.compare_exchange_strong(expected, true)) return;
      ctl.cancel_ns.store(obs::monotonic_ns(), std::memory_order_relaxed);
      ctl.token.cancel();
      obs::trace_instant("winner: " + rec.obligation + " [" + rec.engine +
                         "]", "suite");
    }
    rec.winner = true;
    if (metered)
      obs::Registry::global()
          .counter("rtv_suite_winner_total",
                   "engine=\"" + rec.engine + '"',
                   "Definitive verdicts per engine")
          .inc();
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto run_task = [&](const Task& task, SuiteRecord& rec) {
    const Obligation& ob = *task.obligation;
    ObligationControl& ctl = *task.control;
    const FrontEnd& fe = *ctl.front_end;
    rec.obligation = ob.name;
    rec.engine = std::string(task.engine->name());
    // Warnings and slice counts ride along on every record; lint errors
    // short-circuit below without invoking the engine.
    fe.annotate(rec);
    // However the task ends, the obligation's last one frees the shared
    // composition.
    struct Release {
      ObligationControl& ctl;
      ~Release() {
        if (ctl.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
          ctl.composition.reset();
      }
    } release{ctl};

    const bool metered = obs::metrics_enabled();
    if (metered) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("rtv_suite_tasks_total", "", "Scheduled suite tasks").inc();
      reg.histogram("rtv_suite_queue_wait_seconds",
                    obs::Histogram::time_buckets(), "",
                    "Suite start to task pickup")
          .observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    }
    const obs::Span span(obs::tracing_active()
                             ? "ob:" + ob.name + " [" + rec.engine + "]"
                             : std::string(),
                         "suite");

    // A decided portfolio obligation (or an aborted suite) skips the run
    // outright: the loser is recorded as cancelled without exploring a
    // single state, so cancellation is observable even with one worker.
    if (suite_aborted() || ctl.token.cancelled()) {
      rec.result.verdict = Verdict::kInconclusive;
      rec.result.truncated_reason = stop_reason::kCancelled;
      return;
    }

    if (fe.rejected()) {
      rec.result.verdict = Verdict::kInconclusive;
      rec.result.truncated_reason = stop_reason::kLintError;
      rec.result.message = fe.lint.diagnostics.front().format();
      if (metered)
        obs::Registry::global()
            .counter("rtv_suite_lint_rejected_total", "",
                     "Suite tasks short-circuited by the lint pre-flight")
            .inc();
      return;
    }

    // Engines verify the sliced obligation.  An empty cone means no
    // property can be violated (and, all dropped components being
    // choke-free, no output refused), so the record is answered kVerified
    // without running any engine.
    if (!fe.slice.identity && fe.slice.modules.empty()) {
      rec.result.verdict = Verdict::kVerified;
      rec.result.message =
          "statically verified: every module is outside the cone of "
          "influence of every property";
      if (metered)
        obs::Registry::global()
            .counter("rtv_suite_sliced_verified_total", "",
                     "Suite tasks answered by an empty property cone")
            .inc();
      decide(ctl, rec, metered);
      return;
    }

    RunBudget budget = fe.budget;
    budget.cancel = &ctl.token;
    // The wrapper piggybacks suite-wide cancellation on the progress hook:
    // composition and engines poll ctl.token every tick, so cancelling it
    // here stops the run within one progress interval of the external
    // token firing.
    const auto report_progress = [&](const EngineProgress& p) {
      if (suite_aborted()) ctl.token.cancel();
      if (options.progress) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        options.progress(p);
      }
    };

    // An exception (compose() rejects contradictory delay bounds, a worker
    // ran out of memory, ...) must not escape a pool thread — that would
    // std::terminate the whole batch.  Record it against this obligation
    // and let the rest of the suite finish.
    const auto record_error = [&rec](const char* what) {
      rec.result = EngineResult{};
      rec.result.verdict = Verdict::kInconclusive;
      rec.result.truncated_reason = stop_reason::kEngineError;
      rec.result.message = what;
    };

    const double cpu0 = thread_cpu_seconds();
    // The first task to get here composes, under its engine's name and on
    // its clock: composition ticks its progress and counts against the
    // obligation's deadline and cancel token.
    std::call_once(ctl.compose_once, [&] {
      RunClock clock(task.engine->name(), budget, report_progress,
                     options.progress_interval);
      ComposeOptions co;
      co.track_chokes = ob.track_chokes;
      if (budget.max_states) co.max_states = budget.max_states;
      co.jobs = intra_jobs;
      co.stop = [&clock](std::size_t states) { return clock.tick(states); };
      try {
        ctl.composition =
            std::make_unique<const Composition>(compose(fe.slice.modules, co));
      } catch (const std::exception& e) {
        ctl.compose_error = e.what();
      }
      ctl.compose_seconds = clock.seconds();
    });
    const Composition* comp = ctl.composition.get();
    if (ctl.compose_error) {
      record_error(ctl.compose_error->c_str());
    } else if (comp->truncated) {
      // Frontier states of a truncated product have no outgoing
      // transitions; exploring it would fabricate deadlocks, so no engine
      // runs and no verdict can be trusted.
      rec.result.verdict = Verdict::kInconclusive;
      rec.result.truncated_reason = comp->truncated_reason
                                        ? comp->truncated_reason
                                        : stop_reason::kComposeBudget;
      rec.result.seconds = ctl.compose_seconds;
    } else {
      // Each record's time and deadline include the composition, and its
      // progress seconds count from the composition's start.
      const double offset = ctl.compose_seconds;
      EngineRequest req;
      req.composition = comp;
      req.properties = ob.properties;
      req.budget = budget;
      if (budget.max_seconds > 0.0)
        req.budget.max_seconds =
            std::max(budget.max_seconds - offset,
                     std::numeric_limits<double>::min());
      req.max_refinements = fe.max_refinements;
      req.jobs = intra_jobs;
      req.progress_interval = options.progress_interval;
      req.progress = [&report_progress, offset](const EngineProgress& p) {
        EngineProgress shifted = p;
        shifted.seconds += offset;
        report_progress(shifted);
      };
      try {
        rec.result = task.engine->run(req);
        rec.result.seconds += offset;
      } catch (const std::exception& e) {
        record_error(e.what());
      }
    }
    rec.cpu_seconds = thread_cpu_seconds() - cpu0;

    // Portfolio cancel latency: how long after the winner's cancel() this
    // loser actually stopped.
    if (metered && rec.result.truncated_reason == stop_reason::kCancelled) {
      const std::uint64_t fired = ctl.cancel_ns.load(std::memory_order_relaxed);
      if (fired) {
        obs::Registry::global()
            .histogram("rtv_suite_cancel_latency_seconds",
                       obs::Histogram::time_buckets(), "",
                       "Portfolio winner cancel() to loser stop")
            .observe(static_cast<double>(obs::monotonic_ns() - fired) * 1e-9);
      }
    }

    if (definitive(rec.result.verdict)) decide(ctl, rec, metered);
  };

  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      run_task(tasks[i], report.records[i]);
    }
  };
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i)
      pool.emplace_back([&worker, i] {
        if (obs::tracing_active())
          obs::set_thread_name("suite worker " + std::to_string(i + 1));
        worker();
      });
    for (std::thread& t : pool) t.join();
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

// ---------------------------------------------------------------------------
// Roll-ups
// ---------------------------------------------------------------------------

std::vector<ObligationSummary> SuiteReport::summaries() const {
  std::vector<ObligationSummary> out;
  for (const SuiteRecord& rec : records) {
    ObligationSummary* s = nullptr;
    for (ObligationSummary& existing : out)
      if (existing.obligation == rec.obligation) {
        s = &existing;
        break;
      }
    if (!s) {
      out.emplace_back();
      s = &out.back();
      s->obligation = rec.obligation;
    }
    s->wall_seconds = std::max(s->wall_seconds, rec.result.seconds);
    // In batch mode several records of one obligation can be definitive;
    // a violation is concrete evidence and outranks a verified peer (the
    // two disagreeing at all is a cross-validation failure worth surfacing).
    if (rec.winner &&
        (s->winner.empty() || rec.result.verdict == Verdict::kViolated)) {
      if (s->verdict != Verdict::kViolated) {
        s->verdict = rec.result.verdict;
        s->winner = rec.engine;
      }
    }
  }
  return out;
}

Verdict SuiteReport::verdict_of(std::string_view obligation) const {
  for (const ObligationSummary& s : summaries())
    if (s.obligation == obligation) return s.verdict;
  return Verdict::kInconclusive;
}

Verdict SuiteReport::overall() const {
  Verdict out = Verdict::kVerified;
  for (const ObligationSummary& s : summaries()) {
    if (s.verdict == Verdict::kViolated) return Verdict::kViolated;
    if (s.verdict == Verdict::kInconclusive) out = Verdict::kInconclusive;
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON writer (emission helpers shared via rtv/base/json.hpp)
// ---------------------------------------------------------------------------

namespace {

using json::append_double;
using json::append_string;
using json::append_uint;

}  // namespace

std::string SuiteReport::to_json() const {
  std::string out;
  append_json(out);
  return out;
}

void SuiteReport::append_json(std::string& out) const {
  out += "{\n  \"schema\": ";
  append_string(out, kSchemaName);
  out += ",\n  \"schema_version\": ";
  json::append_int(out, kSchemaVersion);
  out += ",\n  \"mode\": ";
  append_string(out, to_string(mode));
  out += ",\n  \"jobs\": ";
  append_uint(out, jobs);
  out += ",\n  \"wall_seconds\": ";
  append_double(out, wall_seconds);
  out += ",\n  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SuiteRecord& r = records[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\n      \"obligation\": ";
    append_string(out, r.obligation);
    out += ",\n      \"engine\": ";
    append_string(out, r.engine);
    out += ",\n      \"verdict\": ";
    append_string(out, to_string(r.result.verdict));
    out += ",\n      \"stop_reason\": ";
    append_string(out, r.result.truncated_reason);
    out += ",\n      \"states\": ";
    append_uint(out, r.result.states_explored);
    out += ",\n      \"wall_seconds\": ";
    append_double(out, r.result.seconds);
    out += ",\n      \"cpu_seconds\": ";
    append_double(out, r.cpu_seconds);
    out += ",\n      \"winner\": ";
    out += r.winner ? "true" : "false";
    out += ",\n      \"cached\": ";
    out += r.cached ? "true" : "false";
    // Optional (like "cached" on the way in): only present when the lint
    // pre-flight had findings, so reports from lint-clean runs are
    // byte-identical to pre-lint ones.
    if (!r.lint.empty()) {
      out += ",\n      \"lint\": [";
      for (std::size_t j = 0; j < r.lint.size(); ++j) {
        if (j) out += ", ";
        lint::append_diagnostic(out, r.lint[j]);
      }
      out += "]";
    }
    // Optional likewise: only present when the slicer actually removed
    // something, so reports from identity slices stay byte-identical.
    if (r.sliced_modules || r.sliced_events) {
      out += ",\n      \"sliced_modules\": ";
      append_uint(out, r.sliced_modules);
      out += ",\n      \"sliced_events\": ";
      append_uint(out, r.sliced_events);
    }
    out += ",\n      \"message\": ";
    append_string(out, r.result.message);
    out += ",\n      \"trace\": [";
    for (std::size_t j = 0; j < r.result.trace_labels.size(); ++j) {
      if (j) out += ", ";
      append_string(out, r.result.trace_labels[j]);
    }
    out += "]\n    }";
  }
  out += records.empty() ? "]\n}\n" : "\n  ]\n}\n";
}

// ---------------------------------------------------------------------------
// JSON parser — shared grammar support lives in rtv/base/json.hpp; this
// file only maps the parsed document back onto a SuiteReport, staying
// strict about structure so a corrupted report fails loudly.
// ---------------------------------------------------------------------------

namespace {

constexpr std::string_view kJsonContext = "suite report JSON";

const json::Value& require(const json::Value& obj, std::string_view key,
                           json::Value::Kind kind, const char* what) {
  return json::require(obj, key, kind, what, kJsonContext);
}

std::size_t require_size(const json::Value& obj, std::string_view key,
                         const char* what) {
  return static_cast<std::size_t>(
      json::require_whole(obj, key, what, kJsonContext));
}

}  // namespace

SuiteReport parse_suite_report(const std::string& json) {
  return parse_suite_report(json::parse(json, kJsonContext));
}

SuiteReport parse_suite_report(const json::Value& root) {
  json::check_schema(root, SuiteReport::kSchemaName,
                     SuiteReport::kSchemaVersion, kJsonContext);

  using Kind = json::Value::Kind;
  SuiteReport report;
  report.mode = suite_mode_from_string(
      require(root, "mode", Kind::kString, "mode").string, kJsonContext);
  report.jobs = require_size(root, "jobs", "jobs");
  report.wall_seconds =
      require(root, "wall_seconds", Kind::kNumber, "wall seconds").number;

  for (const json::Value& rec :
       require(root, "records", Kind::kArray, "records").array) {
    if (rec.kind != Kind::kObject)
      throw std::runtime_error("suite report JSON: record is not an object");
    SuiteRecord out;
    out.obligation =
        require(rec, "obligation", Kind::kString, "obligation name").string;
    out.engine = require(rec, "engine", Kind::kString, "engine name").string;
    out.result.verdict = verdict_from_string(
        require(rec, "verdict", Kind::kString, "verdict").string,
        kJsonContext);
    out.result.truncated_reason =
        require(rec, "stop_reason", Kind::kString, "stop reason").string;
    out.result.states_explored = require_size(rec, "states", "states");
    out.result.seconds =
        require(rec, "wall_seconds", Kind::kNumber, "wall seconds").number;
    out.cpu_seconds =
        require(rec, "cpu_seconds", Kind::kNumber, "cpu seconds").number;
    out.winner = require(rec, "winner", Kind::kBool, "winner flag").boolean;
    // Absent in reports written before the serve layer existed; those
    // records were always computed, so the default false is exact.
    if (const json::Value* cached = rec.find("cached")) {
      if (cached->kind != Kind::kBool)
        throw std::runtime_error(
            "suite report JSON: cached flag is not a boolean");
      out.cached = cached->boolean;
    }
    // Absent when the pre-flight was disabled or clean (and in reports
    // written before lint existed).
    if (const json::Value* lint_v = rec.find("lint")) {
      if (lint_v->kind != Kind::kArray)
        throw std::runtime_error(
            "suite report JSON: lint field is not an array");
      for (const json::Value& d : lint_v->array)
        out.lint.push_back(lint::diagnostic_from_json(d, kJsonContext));
    }
    // Absent when the slicer was off, bailed out, or removed nothing.
    if (rec.find("sliced_modules"))
      out.sliced_modules =
          require_size(rec, "sliced_modules", "sliced module count");
    if (rec.find("sliced_events"))
      out.sliced_events =
          require_size(rec, "sliced_events", "sliced event count");
    out.result.message =
        require(rec, "message", Kind::kString, "message").string;
    for (const json::Value& label :
         require(rec, "trace", Kind::kArray, "trace labels").array) {
      if (label.kind != Kind::kString)
        throw std::runtime_error(
            "suite report JSON: trace label is not a string");
      out.result.trace_labels.push_back(label.string);
    }
    report.records.push_back(std::move(out));
  }
  return report;
}

}  // namespace rtv
