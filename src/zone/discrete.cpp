#include "rtv/zone/discrete.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <utility>

#include "rtv/base/log.hpp"
#include "rtv/base/open_table.hpp"
#include "rtv/base/parallel.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"

namespace rtv {

namespace {

/// A config is one packed record [state, ages...]: the location, then one
/// integer clock age per pseudo-enabled event of it, in event order.  Ages
/// use the full 64-bit Time range: every representable delay bound (up to
/// kTimeInfinity) digitizes without wrapping, so large mixed-magnitude
/// constants are limited only by the state budget.
using ConfigTable = RecordTable<Time>;

/// The first violation a chunk met, in expansion order.
struct Violation {
  std::string description;
  std::int32_t leaf;  ///< config whose path leads to the violation
  std::string extra;  ///< label appended after the path ("" when none)
};

/// Per-chunk expansion output; merged in chunk-ordinal order, which is
/// the sequential BFS order, so the interned configs, their parents and
/// the violation reported are identical for every job count.  Padded to a
/// cache line, so workers filling adjacent buckets do not share one.
struct alignas(64) ChunkOut {
  /// The configs not interned before the layer, their records back to
  /// back, and per config its hash, parent and firing event (invalid for a
  /// delay tick).
  std::vector<Time> records;
  std::vector<std::size_t> hashes;
  std::vector<std::int32_t> parents;
  std::vector<EventId> via;
  std::optional<Violation> violation;
};

}  // namespace

EngineResult DiscreteEngine::run(const EngineRequest& request) const {
  obs::Span span("engine:discrete", "engine");
  const Composition& comp = checked_composition(request);
  const TransitionSystem& ts = comp.ts;
  // One table for every worker: the checks are const and thread-safe.
  const SafetyChecks checks(comp, request.properties);
  RunClock clock(name(), request.budget, request.progress,
                 request.progress_interval);
  EngineResult result;

  // Ages are kept for pseudo-enabled events: composed-enabled ones plus
  // choked (refused) outputs.
  const ChokeIndex& index = comp.index();
  const auto record_size = [&](const Time* record) {
    return 1 + index.pseudo_enabled(StateId(
                   static_cast<StateId::underlying_type>(record[0]))).size();
  };

  // Ages saturate: beyond the upper bound (or the lower bound for
  // unbounded events) more age is indistinguishable.
  auto saturation = [&](EventId e) -> Time {
    const DelayInterval d = ts.delay(e);
    return d.upper_bounded() ? d.hi() : d.lo();
  };

  // ---- layer-synchronous parallel BFS -------------------------------------
  //
  // Configs are numbered in BFS order, so each layer is a range of ids.
  // Workers expand disjoint chunks of the current layer into per-chunk
  // buckets, probing the config table read-only (it is written only
  // between layers); the merge then interns the buckets in
  // chunk order, which is the sequential discovery order, with the state
  // budget as an insertion-time ceiling.  The first bucket holding a
  // violation holds the earliest one in BFS order.
  const std::size_t jobs = resolve_jobs(request.jobs);
  const std::size_t cap = request.budget.max_states ? request.budget.max_states
                                                    : kDefaultDiscreteConfigs;
  // Config k is table.record(k), reached from config parent[k] (-1 for the
  // initial config) by firing via[k] (invalid for a delay tick).
  ConfigTable table;
  std::vector<std::int32_t> parent;
  std::vector<EventId> via;
  std::size_t layer_begin = 0, layer_end = 0;
  bool budget_hit = false;

  std::vector<bool> discrete_seen(ts.num_states(), false);
  std::size_t discrete_count = 0;

  const auto intern = [&](const Time* record, std::size_t n, std::size_t h,
                          std::int32_t from, EventId e) {
    const ConfigTable::Probe p = table.probe(record, n, h);
    if (p.id >= 0) return;
    if (table.size() >= cap) {
      budget_hit = true;
      return;
    }
    table.insert(p, record, n, h);
    parent.push_back(from);
    via.push_back(e);
    const auto s = static_cast<std::size_t>(record[0]);
    if (!discrete_seen[s]) {
      discrete_seen[s] = true;
      ++discrete_count;
    }
  };

  LayeredRunner runner(jobs);
  std::vector<ChunkOut> buckets;
  // One scratch record per worker: the successor being built.
  std::vector<std::vector<Time>> scratch(jobs);
  std::atomic<const char*> stop_flag{nullptr};

  const auto expand = [&](std::int32_t id, ChunkOut& bucket,
                          std::vector<Time>& next) {
    const Time* cfg = table.record(id).data();
    const Time* ages = cfg + 1;
    const StateId state(static_cast<StateId::underlying_type>(cfg[0]));
    const std::span<const EventId> clocked = index.pseudo_enabled(state);

    const auto report = [&](std::string description, std::string extra) {
      if (!bucket.violation)
        bucket.violation = Violation{std::move(description), id,
                                     std::move(extra)};
    };
    const auto offer = [&](EventId e) {
      const std::size_t h = ConfigTable::hash(next.data(), next.size());
      if (table.find(next.data(), next.size(), h) >= 0)
        return;  // interned in an earlier layer
      bucket.records.insert(bucket.records.end(), next.begin(), next.end());
      bucket.hashes.push_back(h);
      bucket.parents.push_back(id);
      bucket.via.push_back(e);
    };
    auto age_of = [&](EventId e) -> Time {
      const auto it = std::lower_bound(clocked.begin(), clocked.end(), e);
      return ages[static_cast<std::size_t>(it - clocked.begin())];
    };

    if (auto v = checks.state_violation(state)) report(std::move(*v), {});

    // Chokes firable now?
    for (const ChokeRecord& c : checks.chokes_at(state))
      if (age_of(c.event) >= ts.delay(c.event).lo())
        report(checks.refusal(c), ts.label(c.event));

    // Delay step: one tick, if no bounded deadline is overrun.
    {
      bool can_delay = !clocked.empty();
      for (std::size_t i = 0; i < clocked.size(); ++i) {
        const DelayInterval d = ts.delay(clocked[i]);
        if (d.upper_bounded() && ages[i] + 1 > d.hi()) {
          can_delay = false;
          break;
        }
      }
      if (can_delay) {
        next.assign(cfg, cfg + 1 + clocked.size());
        for (std::size_t i = 0; i < clocked.size(); ++i)
          if (next[i + 1] < saturation(clocked[i])) ++next[i + 1];
        offer(EventId::invalid());
      }
    }

    // Firing steps.
    const std::span<const Transition> transitions = ts.transitions_from(state);
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      const Transition& t = transitions[k];
      if (age_of(t.event) < ts.delay(t.event).lo()) continue;
      if (auto v = checks.event_violation(state, k))
        report(std::move(*v), ts.label(t.event));
      const std::span<const EventId> succ_clocked =
          index.pseudo_enabled(t.target);
      next.assign(1 + succ_clocked.size(), 0);
      next[0] = static_cast<Time>(t.target.value());
      for (std::size_t i = 0; i < succ_clocked.size(); ++i) {
        const EventId e = succ_clocked[i];
        if (e == t.event) continue;  // refired: fresh age
        const auto it = std::lower_bound(clocked.begin(), clocked.end(), e);
        if (it != clocked.end() && *it == e)
          next[i + 1] = ages[static_cast<std::size_t>(it - clocked.begin())];
      }
      offer(t.event);
    }
  };

  std::vector<std::uint64_t> expanded(jobs, 0);
  const auto process = [&](std::size_t worker, LayeredRunner::Chunk chunk) {
    if (stop_flag.load(std::memory_order_relaxed)) return;
    ChunkOut& bucket = buckets[chunk.ordinal];
    for (std::size_t i = chunk.begin; i != chunk.end; ++i) {
      if (worker == 0) {
        // Deadline, cancellation and progress all live in the RunClock,
        // which is not thread-safe: only worker 0 polls it, the others
        // observe the stop flag at chunk boundaries.
        if (const char* reason = clock.tick(table.size())) {
          stop_flag.store(reason, std::memory_order_relaxed);
          return;
        }
      }
      expand(static_cast<std::int32_t>(layer_begin + i), bucket,
             scratch[worker]);
    }
    expanded[worker] += chunk.end - chunk.begin;
  };

  /// Unwind the parent chain into the firing-label trace (delay ticks have
  /// no label and are skipped, matching the zone engine's traces).
  const auto unwind_labels = [&](std::int32_t leaf) {
    std::vector<std::string> out;
    for (std::int32_t cur = leaf; cur >= 0;
         cur = parent[static_cast<std::size_t>(cur)]) {
      const EventId e = via[static_cast<std::size_t>(cur)];
      if (e.valid()) out.push_back(ts.label(e));
    }
    std::reverse(out.begin(), out.end());
    return out;
  };

  const auto finish = [&](EngineResult r) {
    r.states_explored = table.size();
    r.discrete_states = discrete_count;
    r.seconds = clock.seconds();
    if (obs::metrics_enabled()) {
      // One flush per run: worker balance.
      obs::Registry& reg = obs::Registry::global();
      for (std::size_t w = 0; w < expanded.size(); ++w)
        reg.counter("rtv_parallel_worker_expanded_total",
                    "worker=\"" + std::to_string(w) + '"',
                    "Frontier items expanded per worker slot")
            .add(expanded[w]);
    }
    record_engine_run(name(), r);
    return r;
  };

  // Returns the next layer's width, 0 when the exploration ends.
  const auto merge = [&]() -> std::size_t {
    // The whole layer is interned even when it holds a violation: a run
    // reports the configs of every layer it expanded, up to the budget.
    const Violation* first = nullptr;
    for (const ChunkOut& bucket : buckets) {
      const Time* record = bucket.records.data();
      for (std::size_t k = 0; k < bucket.hashes.size() && !budget_hit; ++k) {
        const std::size_t n = record_size(record);
        intern(record, n, bucket.hashes[k], bucket.parents[k], bucket.via[k]);
        record += n;
      }
      if (!first && bucket.violation) first = &*bucket.violation;
    }

    if (first) {
      result.verdict = Verdict::kViolated;
      result.message = first->description;
      result.trace_labels = unwind_labels(first->leaf);
      if (!first->extra.empty()) result.trace_labels.push_back(first->extra);
      return 0;
    }
    if (const char* reason = stop_flag.load(std::memory_order_relaxed)) {
      result.truncated_reason = reason;
      RTV_WARN << "discrete exploration stopped: " << reason;
      return 0;
    }
    if (budget_hit) {
      result.truncated_reason = stop_reason::kStateBudget;
      RTV_WARN << "discrete exploration truncated at " << table.size();
      return 0;
    }

    layer_begin = layer_end;
    layer_end = table.size();
    const std::size_t width = layer_end - layer_begin;
    if (obs::metrics_enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.gauge("rtv_engine_frontier_size", "engine=\"discrete\"",
                "Current BFS frontier size")
          .set(static_cast<std::int64_t>(width));
      reg.counter("rtv_engine_frontier_layers_total", "engine=\"discrete\"",
                  "Completed BFS layers")
          .inc();
    }
    if (width == 0) result.verdict = Verdict::kVerified;
    buckets.clear();
    buckets.resize(runner.num_chunks(width));
    return width;
  };

  // Seed layer 0 with the initial config, all its ages zero.
  {
    std::vector<Time> init(1 + index.pseudo_enabled(ts.initial()).size(), 0);
    init[0] = static_cast<Time>(ts.initial().value());
    intern(init.data(), init.size(), ConfigTable::hash(init.data(), init.size()),
           -1, EventId::invalid());
    layer_end = 1;
    buckets.resize(runner.num_chunks(1));
  }
  runner.run(1, process, merge);
  return finish(result);
}

}  // namespace rtv
