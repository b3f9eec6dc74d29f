#include "rtv/verify/engine.hpp"

#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "rtv/obs/metrics.hpp"
#include "rtv/verify/refinement.hpp"
#include "rtv/zone/discrete.hpp"
#include "rtv/zone/zone_graph.hpp"

namespace rtv {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kVerified:
      return "VERIFIED";
    case Verdict::kViolated:
      return "VIOLATED";
    case Verdict::kInconclusive:
      return "INCONCLUSIVE";
  }
  return "?";
}

Verdict verdict_from_string(std::string_view s, std::string_view context) {
  for (const Verdict v :
       {Verdict::kVerified, Verdict::kViolated, Verdict::kInconclusive})
    if (s == to_string(v)) return v;
  throw std::runtime_error(std::string(context) + ": unknown verdict '" +
                           std::string(s) + "'");
}

// ---------------------------------------------------------------------------
// RunClock
// ---------------------------------------------------------------------------

RunClock::RunClock(std::string_view engine, const RunBudget& budget,
                   ProgressFn progress, std::size_t progress_interval)
    : start_(std::chrono::steady_clock::now()),
      cancel_(budget.cancel),
      progress_(std::move(progress)),
      progress_interval_(progress_interval == 0 ? kDefaultProgressInterval
                                                : progress_interval),
      engine_(engine) {
  if (budget.max_seconds > 0.0) {
    has_deadline_ = true;
    deadline_seconds_ = budget.max_seconds;
  }
}

double RunClock::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

const char* RunClock::tick(std::size_t states_explored) {
  if (cancel_ && cancel_->cancelled()) return stop_reason::kCancelled;
  if (has_deadline_ && (ticks_ % 64) == 0 && seconds() > deadline_seconds_)
    return stop_reason::kDeadline;
  ++ticks_;
  if (progress_ && (ticks_ % progress_interval_) == 0) {
    EngineProgress p{engine_, states_explored, seconds(), nullptr};
    if (obs::metrics_enabled()) {
      // Snapshot cost is amortized over progress_interval explored states
      // (default 8192), so attaching it here stays off the per-state path.
      const obs::MetricsSnapshot snap = obs::snapshot();
      p.metrics = &snap;
      progress_(p);
    } else {
      progress_(p);
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Shared engine plumbing
// ---------------------------------------------------------------------------

const Composition& checked_composition(const EngineRequest& request) {
  if (!request.composition)
    throw std::invalid_argument("engine request carries no composition");
  if (request.composition->truncated)
    throw std::invalid_argument(
        "engine request carries a truncated composition");
  return *request.composition;
}

/// One flush per finished run: cheap enough to do unconditionally, so every
/// caller (CLI, suite, serve, fuzz) gets the per-engine counters without
/// opting in.
void record_engine_run(std::string_view engine, const EngineResult& r) {
  if (!obs::metrics_enabled()) return;
  obs::Registry& reg = obs::Registry::global();
  const std::string label = "engine=\"" + std::string(engine) + '"';
  reg.counter("rtv_engine_runs_total", label, "Finished engine runs").inc();
  reg.counter("rtv_engine_states_explored_total", label,
              "Explored states in the engine's own unit")
      .add(r.states_explored);
  reg.counter("rtv_engine_verdicts_total",
              label + ",verdict=\"" + to_string(r.verdict) + '"',
              "Run verdict tally")
      .inc();
  reg.histogram("rtv_engine_run_seconds", obs::Histogram::time_buckets(),
                label, "Wall-clock seconds per run")
      .observe(r.seconds);
  if (const auto* st = std::get_if<RefineEngineStats>(&r.stats)) {
    reg.counter("rtv_engine_refinement_iterations_total", "",
                "Refinement loop iterations across runs")
        .add(static_cast<std::uint64_t>(
            st->refinements < 0 ? 0 : st->refinements));
    reg.counter("rtv_refine_heads_expanded_total", "",
                "Failure-search queue heads expanded across refine runs")
        .add(st->heads_expanded);
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void EngineRegistry::add(std::unique_ptr<Engine> engine) {
  for (auto& existing : engines_) {
    if (existing->name() == engine->name()) {
      existing = std::move(engine);
      return;
    }
  }
  engines_.push_back(std::move(engine));
}

const Engine* EngineRegistry::find(std::string_view name) const {
  for (const auto& e : engines_)
    if (e->name() == name) return e.get();
  return nullptr;
}

std::vector<const Engine*> EngineRegistry::engines() const {
  std::vector<const Engine*> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.push_back(e.get());
  return out;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.emplace_back(e->name());
  return out;
}

namespace {

/// The one mutable handle on the process-wide registry.  Construction is a
/// C++11 magic static (thread-safe, exactly once); mutation afterwards
/// only happens through register_engine() under the registration mutex.
EngineRegistry& mutable_registry() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry;
    r->add(std::make_unique<RefineEngine>());
    r->add(std::make_unique<ZoneEngine>());
    r->add(std::make_unique<DiscreteEngine>());
    return r;
  }();
  return *registry;
}

}  // namespace

const EngineRegistry& engine_registry() { return mutable_registry(); }

void register_engine(std::unique_ptr<Engine> engine) {
  static std::mutex registration_mutex;
  std::lock_guard<std::mutex> lock(registration_mutex);
  mutable_registry().add(std::move(engine));
}

}  // namespace rtv
