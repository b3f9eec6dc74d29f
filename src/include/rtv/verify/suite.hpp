// Batch verification: many obligations, many engines, one scheduler.
//
// The paper's core experiment (Table 1) is a *batch* of obligations checked
// by *competing* decision procedures.  This header turns that shape into an
// API:
//
//   * a declarative Suite of named Obligations (modules + properties +
//     per-obligation budget overrides), with storage helpers so monitors
//     and properties built on the fly outlive the run;
//   * front_end(), everything derived from an obligation before it is
//     composed, computed once for the scheduler, lint and serve layers;
//   * run_suite(), a scheduler executing the suite on an internal thread
//     pool (SuiteOptions::jobs) in two modes —
//       - kBatch: every (obligation, selected engine) pair runs to
//         completion, obligations in parallel;
//       - kPortfolio: the selected engines *race* on each obligation; the
//         first definitive kVerified/kViolated verdict wins and cancels the
//         engine's peers through their CancelToken.  kInconclusive finishes
//         never decide and never mask a definitive peer.
//   * a SuiteReport with one SuiteRecord per obligation×engine (verdict,
//     stop reason, states, wall/CPU time, winner flag) and a stable,
//     schema-versioned JSON serialization for scripted/CI consumers,
//     round-trippable through parse_suite_report().
//
// Engines run concurrently, which is safe by the Engine::run contract
// (engine.hpp): run() is const and shares no mutable state between calls.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rtv/analysis/slice.hpp"
#include "rtv/base/json.hpp"
#include "rtv/lint/diagnostic.hpp"
#include "rtv/ts/module.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {

// ---------------------------------------------------------------------------
// Obligations and suites.
// ---------------------------------------------------------------------------

struct FrontEnd;

/// One named verification obligation.  Modules and properties are
/// non-owning views; anything built on the fly (monitors, property
/// bundles) can be parked in the Suite with Suite::own().
struct Obligation {
  std::string name;
  /// Modules composed CSP-style over shared labels (monitors included).
  std::vector<const Module*> modules;
  std::vector<const SafetyProperty*> properties;
  /// Per-obligation budget; fields left at their zero value inherit
  /// SuiteOptions::budget.  Its cancel token is ignored: cancellation is
  /// suite-wide (SuiteOptions::budget.cancel).
  RunBudget budget;
  /// Batch mode only: run this registry engine instead of the suite-wide
  /// selection.  Empty = use SuiteOptions::engines.
  std::string engine;
  /// Refinement-engine iteration cap; exact engines ignore it.  0 inherits
  /// SuiteOptions::max_refinements.
  std::size_t max_refinements = 0;
  bool track_chokes = true;
  /// Precomputed front_end(*this, options) for the SuiteOptions the suite
  /// runs under (not owned; must outlive run_suite), so nothing is redone.
  /// Null = run_suite computes it.
  const FrontEnd* front_end = nullptr;
};

/// A declarative batch of obligations plus the storage keeping their
/// modules and properties alive.  Obligation references returned by add()
/// stay valid for the suite's lifetime (deque storage, no relocation).
class Suite {
 public:
  /// Park a module in the suite; the returned pointer is stable.
  const Module* own(Module m);
  /// Park a property in the suite; the returned pointer is stable.
  const SafetyProperty* own(std::unique_ptr<SafetyProperty> p);

  /// Append an empty obligation to configure in place.
  Obligation& add(std::string name);
  /// Append a fully-formed obligation.
  Obligation& add(std::string name, std::vector<const Module*> modules,
                  std::vector<const SafetyProperty*> properties);

  const std::deque<Obligation>& obligations() const { return obligations_; }
  /// Mutable view for post-construction tweaks (per-obligation engine or
  /// budget overrides).
  std::deque<Obligation>& obligations() { return obligations_; }
  std::size_t size() const { return obligations_.size(); }
  bool empty() const { return obligations_.empty(); }

 private:
  std::deque<Module> owned_modules_;
  std::vector<std::unique_ptr<SafetyProperty>> owned_properties_;
  std::deque<Obligation> obligations_;
};

// ---------------------------------------------------------------------------
// Scheduler options.
// ---------------------------------------------------------------------------

enum class SuiteMode {
  kBatch,      ///< every (obligation, engine) pair runs to completion
  kPortfolio,  ///< engines race per obligation; first definitive verdict wins
};

const char* to_string(SuiteMode mode);
/// Inverse of to_string(SuiteMode); throws std::runtime_error prefixed
/// with `context` on any other string.
SuiteMode suite_mode_from_string(std::string_view s, std::string_view context);

struct SuiteOptions {
  SuiteMode mode = SuiteMode::kBatch;
  /// Global worker budget; 0 = std::thread::hardware_concurrency().  The
  /// scheduler first parallelizes across obligation×engine tasks (clamped
  /// to the task count, at least 1); when fewer tasks than workers remain,
  /// the surplus is handed to the engines as intra-obligation workers
  /// (EngineRequest::jobs), so `jobs` caps total concurrency either way.
  std::size_t jobs = 0;
  /// Registry names of the engines to run.  Empty selects the default:
  /// {"refine"} in batch mode, every registered engine in portfolio mode.
  /// An unknown name makes run_suite throw std::invalid_argument.
  std::vector<std::string> engines;
  /// Suite-wide default budget.  Nonzero per-obligation fields override
  /// max_states / max_seconds; budget.cancel aborts the whole suite
  /// (checked before each task starts and, while an engine runs, every
  /// progress_interval explored states).
  RunBudget budget;
  /// Refinement cap for obligations that leave theirs at 0.
  std::size_t max_refinements = 500;
  /// Optional progress stream, serialized across workers (called under a
  /// lock, from worker threads).
  ProgressFn progress;
  std::size_t progress_interval = kDefaultProgressInterval;
  /// Run the lint pre-flight (rtv/lint/lint.hpp) over every obligation
  /// before scheduling.  Obligations with error-severity diagnostics are
  /// answered kInconclusive with stop_reason::kLintError without invoking
  /// any engine; warnings attach to the obligation's SuiteRecords.
  bool preflight = true;
  /// Run the cone-of-influence slicer (rtv/analysis/slice.hpp) over every
  /// obligation after the pre-flight: engines then verify the reduced
  /// obligation (out-of-cone modules dropped, unreachable states pruned)
  /// — verdict-preserving by construction, identity whenever a construct
  /// is not provably irrelevant.  An obligation whose cone is *empty* is
  /// answered kVerified without invoking any engine.
  bool slice = true;
};

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

/// One obligation×engine outcome.
struct SuiteRecord {
  std::string obligation;
  std::string engine;
  EngineResult result;
  /// Thread CPU time of the run in seconds (0 when the platform cannot
  /// measure per-thread CPU time, or when the task never ran).
  double cpu_seconds = 0.0;
  /// True iff this record decided the obligation's verdict: the first
  /// definitive finish in portfolio mode, any definitive verdict in batch.
  bool winner = false;
  /// True iff the record was answered from a verdict cache instead of
  /// being computed for this request (the `rtv serve` daemon sets it;
  /// run_suite always computes, so it leaves the flag false).  seconds /
  /// cpu_seconds then report the *original* computation, not this
  /// request's O(1) lookup.
  bool cached = false;
  /// Lint diagnostics of the obligation's pre-flight (empty when the
  /// pre-flight is disabled or found nothing).  With errors present the
  /// record is a short-circuit: verdict kInconclusive, truncated_reason
  /// stop_reason::kLintError, no engine ran.
  std::vector<lint::Diagnostic> lint;
  /// Modules dropped by the cone-of-influence slicer before the engine
  /// ran (0 when slicing is off or the slice was the identity).
  std::size_t sliced_modules = 0;
  /// Events removed by the slicer: whole alphabets of dropped modules
  /// plus dead events pruned inside kept modules.
  std::size_t sliced_events = 0;
};

/// Per-obligation roll-up of a report's records.
struct ObligationSummary {
  std::string obligation;
  /// The winning record's verdict; kInconclusive when no engine decided.
  Verdict verdict = Verdict::kInconclusive;
  /// Engine of the winning record ("" when no engine decided).
  std::string winner;
  /// Max wall-clock seconds over the obligation's records.
  double wall_seconds = 0.0;
};

struct SuiteReport {
  /// Bumped whenever the JSON layout changes incompatibly.
  static constexpr int kSchemaVersion = 1;
  /// The "schema" tag emitted in the JSON.
  static constexpr const char* kSchemaName = "rtv-suite-report";

  SuiteMode mode = SuiteMode::kBatch;
  std::size_t jobs = 1;
  /// Whole-suite wall-clock seconds.
  double wall_seconds = 0.0;
  /// One record per obligation×engine, in deterministic obligation-major
  /// order (independent of completion order).
  std::vector<SuiteRecord> records;

  /// Roll-ups in first-appearance obligation order.
  std::vector<ObligationSummary> summaries() const;
  /// Verdict of one obligation (kInconclusive if absent or undecided).
  Verdict verdict_of(std::string_view obligation) const;
  /// kViolated if any obligation is violated, else kInconclusive if any is
  /// undecided, else kVerified (an empty report is vacuously verified).
  Verdict overall() const;

  /// Stable machine-readable serialization (see docs/API.md for the
  /// schema).  Always emits the current kSchemaVersion.
  std::string to_json() const;
  /// The same document, appended to `out`.
  void append_json(std::string& out) const;
};

/// Parse a to_json() document back into a SuiteReport; throws
/// std::runtime_error on malformed JSON, a wrong schema tag, or a schema
/// version newer than this library understands (the error names both the
/// document's version and the newest supported one — the wire/cache layer
/// depends on version mismatches failing loudly in both directions).
SuiteReport parse_suite_report(const std::string& json);

/// Same, from an already-parsed JSON value (e.g. a report object embedded
/// in a larger wire message, see rtv/serve/wire.hpp).
SuiteReport parse_suite_report(const json::Value& root);

/// Map a verdict to the CLI/CI exit-code convention: 0 = verified,
/// 1 = violated, 2 = inconclusive (64 is reserved for usage errors).
int exit_code(Verdict v);

// ---------------------------------------------------------------------------
// The per-obligation front end.
// ---------------------------------------------------------------------------

/// Everything derived from one obligation before it is composed.
struct FrontEnd {
  /// Registry names: its own engine in batch mode, else
  /// SuiteOptions::engines, else the mode default ({"refine"} in batch,
  /// every registered engine).
  std::vector<std::string> engines;
  /// Nonzero per-obligation fields, else SuiteOptions' (no cancel token).
  RunBudget budget;
  std::size_t max_refinements = 500;
  /// The lint pre-flight; empty when SuiteOptions::preflight is off.
  lint::LintReport lint;
  /// The slice under the obligation's track_chokes: the modules the
  /// engines compose.  The identity when SuiteOptions::slice is off.
  analysis::SliceResult slice;

  /// Error-severity lint findings: no engine may run.
  bool rejected() const { return lint.has_errors(); }
  /// Copy the obligation's lint findings and, unless rejected, its slice
  /// counts onto one of its records.
  void annotate(SuiteRecord& rec) const;
};

/// Compute an obligation's front end under `options`.  Resolves the
/// engines (throws std::invalid_argument on an unregistered name) and the
/// budget; when the pre-flight or the slicer is on, builds the one
/// dependency graph (rtv/analysis/depgraph.hpp), slices on it and lints
/// with that graph and slice, so the lint's cone notes (RTV-L016/L017)
/// describe exactly the slice the engines get.
FrontEnd front_end(const Obligation& ob, const SuiteOptions& options = {});

// ---------------------------------------------------------------------------
// The scheduler.
// ---------------------------------------------------------------------------

/// Execute every obligation of the suite per SuiteOptions on an internal
/// thread pool and collect one record per obligation×engine.  Throws
/// std::invalid_argument when an engine name (per-obligation or in
/// options.engines) is not registered.
SuiteReport run_suite(const Suite& suite, const SuiteOptions& options = {});

}  // namespace rtv
