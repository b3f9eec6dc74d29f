// The unified verification-engine seam.
//
// The paper's contribution is a *comparison of engines* — relative-timing
// refinement (transyt, [13]) against exact dense-time zones and
// digitization [8] — so the library exposes every decision procedure
// behind one polymorphic interface:
//
//   Engine::run(EngineRequest) -> EngineResult
//
// A request carries the obligation's Composition (built once by the caller
// and shared read-only by every engine that decides the obligation), its
// properties, a shared RunBudget (state cap, wall-clock deadline,
// cooperative cancellation) and an optional progress callback; a result
// carries a common three-valued Verdict plus engine-specific statistics.
// Engines never compose.  They register in engine_registry() under stable
// names ("refine", "zone", "discrete"), so callers — the CLI, benches,
// parity tests, future sharded backends — enumerate and swap them
// generically.
//
// Adding a backend is a one-file drop-in: subclass Engine, explore the
// request's composition, fill an EngineResult, and register an instance
// (see docs/API.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "rtv/timing/trace_timing.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/trace.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {

namespace obs {
struct MetricsSnapshot;
}  // namespace obs

// ---------------------------------------------------------------------------
// Verdict — the one three-valued answer every engine must give.
// ---------------------------------------------------------------------------

/// Truncation (state budget, deadline, cancellation) may only surface as
/// kInconclusive: an exhausted run is never "verified".
enum class Verdict {
  kVerified,
  kViolated,
  kInconclusive,
};

const char* to_string(Verdict v);
/// Inverse of to_string(Verdict); throws std::runtime_error prefixed with
/// `context` (e.g. "suite report JSON") on any other string.
Verdict verdict_from_string(std::string_view s, std::string_view context);

// ---------------------------------------------------------------------------
// Budgets, cancellation, progress.
// ---------------------------------------------------------------------------

/// Cooperative cancellation: hand a token to a run, call cancel() from any
/// thread; the engine observes it in its exploration loop and stops with
/// Verdict::kInconclusive.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> flag_{false};
};

/// Native exploration budgets, used when RunBudget::max_states is 0.
inline constexpr std::size_t kDefaultRefineStates = 2'000'000;
inline constexpr std::size_t kDefaultZones = 2'000'000;
inline constexpr std::size_t kDefaultDiscreteConfigs = 4'000'000;

/// Resource limits shared by every engine.  Exceeding any limit stops the
/// run early with Verdict::kInconclusive and a stop_reason.
///
/// run_suite() applies one obligation's budget to its composition and to
/// each engine run on it: max_states also caps the composed states (2M,
/// ComposeOptions' default, when 0), and max_seconds and cancel cover
/// composition plus exploration.
struct RunBudget {
  /// Cap on explored states in the engine's own unit (refined states per
  /// failure search / zones / digitized configs).  0 keeps the engine's
  /// native default (kDefaultRefineStates, kDefaultZones,
  /// kDefaultDiscreteConfigs).
  std::size_t max_states = 0;
  /// Wall-clock deadline in seconds; 0 means no deadline.
  double max_seconds = 0.0;
  /// Optional cancellation token (not owned; may be null).
  const CancelToken* cancel = nullptr;
};

/// Progress snapshot handed to the callback every progress_interval
/// explored states.
struct EngineProgress {
  std::string_view engine;        ///< registry name of the running engine
  std::size_t states_explored = 0;
  double seconds = 0.0;           ///< elapsed wall-clock time
  /// Point-in-time view of the global metrics registry, or null when
  /// metrics are disabled.  Valid only for the duration of the callback.
  const obs::MetricsSnapshot* metrics = nullptr;
};

using ProgressFn = std::function<void(const EngineProgress&)>;

inline constexpr std::size_t kDefaultProgressInterval = 8192;

/// Stable stop reasons reported via EngineResult::truncated_reason.
namespace stop_reason {
inline constexpr const char* kStateBudget = "state budget exhausted";
inline constexpr const char* kDeadline = "wall-clock deadline exceeded";
inline constexpr const char* kCancelled = "cancelled by caller";
inline constexpr const char* kComposeBudget =
    "state budget exhausted during composition";
/// Refinement engine only: the iteration cap was reached.
inline constexpr const char* kRefinementBudget =
    "refinement budget exhausted";
/// compose() or the engine threw instead of returning a result (e.g.
/// contradictory delay bounds); the what() string goes in
/// EngineResult::message.
inline constexpr const char* kEngineError = "engine raised an error";
/// The obligation never reached an engine: the run_suite() / serve lint
/// pre-flight (rtv/lint/lint.hpp) found error-severity diagnostics.  The
/// first error's formatted text goes in EngineResult::message.
inline constexpr const char* kLintError = "rejected by lint pre-flight";
}  // namespace stop_reason

/// Hot-loop guard threading one RunBudget's deadline + cancellation (and
/// the progress callback) through an exploration loop.  Engines call
/// tick(n) once per explored state; a non-null return is the stop reason.
/// The deadline is polled every 64th tick (the very first tick included),
/// keeping the steady_clock cost out of the per-state path.
class RunClock {
 public:
  RunClock(std::string_view engine, const RunBudget& budget,
           ProgressFn progress = nullptr,
           std::size_t progress_interval = kDefaultProgressInterval);

  /// Null if the run may continue, else a stable stop_reason string.
  const char* tick(std::size_t states_explored);

  double seconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
  /// Deadline kept in double seconds and compared against seconds() —
  /// converting huge budgets (1e300, inf) to a clock duration would
  /// overflow the integer representation (UB).
  double deadline_seconds_ = 0.0;
  bool has_deadline_ = false;
  const CancelToken* cancel_ = nullptr;
  ProgressFn progress_;
  std::size_t progress_interval_ = kDefaultProgressInterval;
  std::size_t ticks_ = 0;
  std::string_view engine_;
};

// ---------------------------------------------------------------------------
// Request / result.
// ---------------------------------------------------------------------------

/// One verification obligation, engine-agnostic.
struct EngineRequest {
  /// The obligation's modules composed CSP-style over shared labels
  /// (monitors included), with chokes tracked when containment is checked.
  /// Not owned, never modified: one complete (untruncated) composition is
  /// shared by every engine run on the obligation, concurrently.
  const Composition* composition = nullptr;
  std::vector<const SafetyProperty*> properties;
  RunBudget budget;
  /// Invoked every progress_interval explored states when set.
  ProgressFn progress;
  std::size_t progress_interval = kDefaultProgressInterval;
  /// Refinement-engine knob (iteration cap); exact engines ignore it.
  std::size_t max_refinements = 500;
  /// Worker threads *inside* this one obligation (0 = one per hardware
  /// thread, 1 = sequential).  Parallel engines shard their frontier
  /// across the workers (the digitized BFS for "discrete"; run_suite()
  /// also composes with them); verdicts never depend on the worker count.
  std::size_t jobs = 1;
};

/// One refinement iteration: the failure that was found and the relative
/// timing information that removed it.
struct RefinementRecord {
  int iteration = 0;
  std::string failure;                       ///< description of the violation
  std::vector<std::string> window_labels;    ///< banned window (event labels)
  bool from_start = false;
  bool used_window = false;                  ///< window ban vs ordering pairs
  std::string anchor;                        ///< anchor description
  std::vector<DerivedOrdering> orderings;    ///< back-annotated constraints
};

/// The refinement engine's detail, carried alongside the common fields;
/// the exact engines need none beyond them.
struct RefineEngineStats {
  int refinements = 0;
  std::size_t composed_states = 0;
  /// Queue heads the failure searches expanded, summed over iterations
  /// (FailureSearchStats::heads_expanded): the run's work, where
  /// EngineResult::states_explored is the last search's kept states.
  std::size_t heads_expanded = 0;
  /// Per-iteration detail of the refinement loop.
  std::vector<RefinementRecord> records;
  /// The timing-consistent failure trace of a violation, valid against
  /// the request's composition (EngineResult::trace_labels spells it out).
  std::optional<Trace> counterexample;

  /// Back-annotated relative timing constraints, the paper's Fig. 13
  /// deliverable: every record's orderings, sorted and deduplicated.
  std::vector<DerivedOrdering> constraints() const;
};

using EngineStats = std::variant<std::monostate, RefineEngineStats>;

struct EngineResult {
  Verdict verdict = Verdict::kInconclusive;
  /// Human-readable note: the violation description, or an engine-specific
  /// remark (may be empty; truncation causes go in truncated_reason).
  std::string message;
  /// Event labels leading to the violation (empty when none or unknown).
  std::vector<std::string> trace_labels;
  /// Explored states in the engine's own unit (see RunBudget::max_states).
  std::size_t states_explored = 0;
  /// Distinct composed states the exploration reached in time (zone and
  /// discrete; refine leaves it 0).
  std::size_t discrete_states = 0;
  double seconds = 0.0;
  /// Non-empty iff the run stopped early (see stop_reason); implies
  /// verdict != kVerified.
  std::string truncated_reason;
  EngineStats stats;

  bool verified() const { return verdict == Verdict::kVerified; }
  bool violated() const { return verdict == Verdict::kViolated; }
  bool inconclusive() const { return verdict == Verdict::kInconclusive; }
};

// ---------------------------------------------------------------------------
// Engine interface + registry.
// ---------------------------------------------------------------------------

class Engine {
 public:
  virtual ~Engine() = default;
  /// Stable registry key ("refine", "zone", "discrete", ...).
  virtual std::string_view name() const = 0;
  /// One-line description for listings.
  virtual std::string_view description() const = 0;
  /// Decide one obligation.  Throws std::invalid_argument when the
  /// request carries no composition or a truncated one (exploring a
  /// truncated product would fabricate deadlocks at its frontier).
  ///
  /// Thread-safety contract: run() must be safe to call concurrently from
  /// multiple threads on the same Engine instance — implementations keep
  /// all run state local to the call and never mutate members (the method
  /// is const for exactly this reason).  The three built-in engines are
  /// stateless and honour this; the batch scheduler (rtv/verify/suite.hpp)
  /// relies on it to race engines and to run obligations in parallel.
  /// Requests are shared by value-ish views: the composition, properties
  /// and cancel token behind a request must stay alive and unmodified for
  /// the duration of the call (CancelToken::cancel() is the one exception
  /// — it may be fired from any thread at any time).
  virtual EngineResult run(const EngineRequest& request) const = 0;
};

class EngineRegistry {
 public:
  /// Registers (or replaces, matching by name) an engine.
  void add(std::unique_ptr<Engine> engine);
  /// Null when no engine has that name.
  const Engine* find(std::string_view name) const;
  /// All engines in registration order.
  std::vector<const Engine*> engines() const;
  std::vector<std::string> names() const;

 private:
  std::vector<std::unique_ptr<Engine>> engines_;
};

/// The request's composition, checked against the Engine::run contract.
const Composition& checked_composition(const EngineRequest& request);

/// Flush one finished run into the global metrics registry (runs, states,
/// verdicts, seconds; refinement iterations for refine).  The built-in
/// engines call it at the end of every run; custom backends may too.
void record_engine_run(std::string_view engine, const EngineResult& result);

/// The process-wide registry, pre-seeded with the three built-in engines:
/// "refine" (relative-timing refinement), "zone" (dense-time DBM zones)
/// and "discrete" (digitized integer ages).
///
/// Construction is thread-safe (magic static, built exactly once on first
/// use) and the returned reference is const: concurrent find()/engines()
/// lookups are safe without synchronization.  Extra backends register
/// through register_engine().
const EngineRegistry& engine_registry();

/// Register (or replace, matching by name) an engine in the process-wide
/// registry.  Registration itself is serialized by an internal mutex, but
/// it is NOT safe to register concurrently with lookups or running suites:
/// register custom backends during single-threaded startup, before the
/// first verification runs.
void register_engine(std::unique_ptr<Engine> engine);

}  // namespace rtv
