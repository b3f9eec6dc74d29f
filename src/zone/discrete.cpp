#include "rtv/zone/discrete.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "rtv/base/hash.hpp"
#include "rtv/base/log.hpp"
#include "rtv/base/parallel.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"

namespace rtv {

namespace {

struct Config {
  StateId state;
  /// Integer clock ages, parallel to the clocked-event list.  Full 64-bit
  /// Time range: every representable delay bound (up to kTimeInfinity)
  /// digitizes without wrapping, so large mixed-magnitude constants are
  /// limited only by the state budget, not by the age representation.
  std::vector<Time> ages;

  friend bool operator==(const Config& a, const Config& b) {
    return a.state == b.state && a.ages == b.ages;
  }
};

struct ConfigHash {
  std::size_t operator()(const Config& c) const noexcept {
    std::size_t h = std::hash<StateId>()(c.state);
    for (const Time a : c.ages) h = hash_mix(h, std::hash<Time>()(a));
    return h;
  }
};

/// Discovery metadata of one interned config: the parent pointer and firing
/// label for counterexample unwinding, plus the BFS-order key that keeps
/// discovery deterministic across job counts.  When several workers reach
/// the same config in the same layer, the smallest key (and its parent)
/// wins — the exact discovery the sequential exploration would record.
struct ConfigMeta {
  ShardHandle parent;              ///< invalid for the initial config
  EventId via = EventId::invalid();  ///< fired event; invalid = delay tick
  std::uint64_t order_key = 0;     ///< (frontier index << 16) | step ordinal
  std::uint32_t layer = 0;         ///< BFS depth at discovery
};

struct FrontierItem {
  ShardHandle handle;
  Config cfg;
};

/// First violation in BFS order this layer (guarded by a mutex; violations
/// are rare, contention is not a concern).
struct Violation {
  std::uint64_t key = 0;
  std::string description;
  ShardHandle leaf;   ///< config whose path leads to the violation
  std::string extra;  ///< label appended after the path ("" when none)
};

}  // namespace

EngineResult DiscreteEngine::run(const EngineRequest& request) const {
  obs::Span span("engine:discrete", "engine");
  const Composition& comp = checked_composition(request);
  const TransitionSystem& ts = comp.ts;
  const std::vector<const SafetyProperty*>& properties = request.properties;
  RunClock clock(name(), request.budget, request.progress,
                 request.progress_interval);
  EngineResult result;

  std::unordered_map<StateId::underlying_type, std::vector<const ChokeRecord*>>
      chokes_at;
  chokes_at.reserve(64);
  for (const ChokeRecord& c : comp.chokes) chokes_at[c.state.value()].push_back(&c);

  auto pseudo_enabled = [&](StateId s) {
    std::vector<EventId> out = ts.enabled_events(s);
    const auto it = chokes_at.find(s.value());
    if (it != chokes_at.end()) {
      for (const ChokeRecord* c : it->second) out.push_back(c->event);
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    return out;
  };

  // Ages saturate: beyond the upper bound (or the lower bound for
  // unbounded events) more age is indistinguishable.
  auto saturation = [&](EventId e) -> Time {
    const DelayInterval d = ts.delay(e);
    return d.upper_bounded() ? d.hi() : d.lo();
  };

  // ---- layer-synchronous parallel BFS -------------------------------------
  //
  // The `seen` set is a sharded concurrent interner (rtv/base/parallel.hpp):
  // N workers expand disjoint chunks of the current frontier, interning
  // successors under per-shard locks with the state budget enforced as an
  // insertion-time ceiling.  Each discovery carries a BFS-order key; the
  // merge phase sorts the layer's discoveries by key, so the next frontier
  // — and with it verdicts, the chosen violation and its counterexample
  // trace — is identical for every job count.
  const std::size_t jobs = resolve_jobs(request.jobs);
  const std::size_t cap = request.budget.max_states ? request.budget.max_states
                                                    : kDefaultDiscreteConfigs;
  ShardedInterner<Config, ConfigMeta, ConfigHash> interner(
      cap, jobs == 1 ? 1 : 64);
  // Digitized exploration routinely visits 10^5-10^6 configs; a generous
  // initial bucket count avoids a cascade of rehashes on the hot path.
  interner.reserve(std::min<std::size_t>(cap, 1u << 16));

  std::vector<bool> discrete_seen(ts.num_states(), false);
  std::size_t discrete_count = 0;

  std::vector<FrontierItem> frontier;
  std::vector<std::vector<std::pair<ShardHandle, Config>>> discovered(jobs);
  std::uint32_t current_layer = 0;

  std::mutex violation_mutex;
  std::optional<Violation> best;
  const auto report_violation = [&](std::uint64_t key, std::string description,
                                    ShardHandle leaf, std::string extra) {
    std::lock_guard<std::mutex> lock(violation_mutex);
    if (!best || key < best->key)
      best = Violation{key, std::move(description), leaf, std::move(extra)};
  };

  std::atomic<const char*> stop_flag{nullptr};

  const auto try_push = [&](Config&& c, ShardHandle parent, EventId via,
                            std::uint64_t key, std::size_t worker) {
    const std::uint32_t next_layer = current_layer + 1;
    const auto res = interner.insert(
        c, [&] { return ConfigMeta{parent, via, key, next_layer}; },
        [&](ConfigMeta& meta) {
          if (meta.layer == next_layer && key < meta.order_key) {
            meta.order_key = key;
            meta.parent = parent;
            meta.via = via;
          }
        });
    if (res.inserted)
      discovered[worker].emplace_back(res.handle, std::move(c));
  };

  const auto process_state = [&](std::size_t idx, const FrontierItem& item,
                                 std::size_t worker) {
    const Config& cfg = item.cfg;
    const std::uint64_t base = static_cast<std::uint64_t>(idx) << 16;
    std::uint32_t ord = 0;
    const auto next_key = [&] {
      return base | std::min<std::uint32_t>(ord++, 0xffffu);
    };

    const std::vector<EventId> clocked = pseudo_enabled(cfg.state);
    const std::vector<EventId> raw_enabled = ts.enabled_events(cfg.state);
    const PropertyContext ctx{ts, cfg.state, raw_enabled};

    for (const SafetyProperty* p : properties) {
      const std::uint64_t key = next_key();
      if (auto v = p->check_state(ctx))
        report_violation(key, *v, item.handle, {});
    }

    auto age_of = [&](EventId e) -> Time {
      const auto it = std::lower_bound(clocked.begin(), clocked.end(), e);
      return cfg.ages[static_cast<std::size_t>(it - clocked.begin())];
    };

    // Chokes firable now?
    if (auto it = chokes_at.find(cfg.state.value()); it != chokes_at.end()) {
      for (const ChokeRecord* c : it->second) {
        const std::uint64_t key = next_key();
        if (age_of(c->event) >= ts.delay(c->event).lo()) {
          report_violation(key,
                           "refusal: output '" + ts.label(c->event) +
                               "' not accepted (containment violation)",
                           item.handle, ts.label(c->event));
        }
      }
    }

    // Delay step: one tick, if no bounded deadline is overrun.
    {
      bool can_delay = true;
      for (std::size_t i = 0; i < clocked.size(); ++i) {
        const DelayInterval d = ts.delay(clocked[i]);
        if (d.upper_bounded() && cfg.ages[i] + 1 > d.hi()) {
          can_delay = false;
          break;
        }
      }
      if (can_delay && !clocked.empty()) {
        Config next = cfg;
        for (std::size_t i = 0; i < clocked.size(); ++i) {
          const Time cap_i = saturation(clocked[i]);
          if (next.ages[i] < cap_i) ++next.ages[i];
        }
        try_push(std::move(next), item.handle, EventId::invalid(), next_key(),
                 worker);
      }
    }

    // Firing steps.
    for (const Transition& t : ts.transitions_from(cfg.state)) {
      if (age_of(t.event) < ts.delay(t.event).lo()) continue;
      const std::vector<EventId> succ_enabled = ts.enabled_events(t.target);
      for (const SafetyProperty* p : properties) {
        const std::uint64_t key = next_key();
        if (auto v = p->check_event(ctx, t.event, t.target, succ_enabled))
          report_violation(key, *v, item.handle, ts.label(t.event));
      }
      const std::vector<EventId> succ_clocked = pseudo_enabled(t.target);
      Config next;
      next.state = t.target;
      next.ages.assign(succ_clocked.size(), 0);
      for (std::size_t i = 0; i < succ_clocked.size(); ++i) {
        const EventId e = succ_clocked[i];
        if (e == t.event) continue;  // refired: fresh age
        const auto it = std::lower_bound(clocked.begin(), clocked.end(), e);
        if (it != clocked.end() && *it == e) {
          next.ages[i] =
              cfg.ages[static_cast<std::size_t>(it - clocked.begin())];
        }
      }
      try_push(std::move(next), item.handle, t.event, next_key(), worker);
    }
  };

  WorkStealingRanges ranges;
  std::vector<std::uint64_t> expanded(jobs, 0);
  const auto process = [&](std::size_t worker) {
    while (const auto chunk = ranges.next(worker)) {
      if (stop_flag.load(std::memory_order_relaxed)) return;
      for (std::size_t i = chunk->begin; i != chunk->end; ++i) {
        if (worker == 0) {
          // Deadline, cancellation and progress all live in the RunClock,
          // which is not thread-safe: only worker 0 polls it, the others
          // observe the stop flag at chunk boundaries.
          if (const char* reason = clock.tick(interner.size())) {
            stop_flag.store(reason, std::memory_order_relaxed);
            return;
          }
        }
        process_state(i, frontier[i], worker);
      }
      expanded[worker] += chunk->end - chunk->begin;
    }
  };

  /// Unwind the parent chain into the firing-label trace (delay ticks have
  /// no label and are skipped, matching the zone engine's traces).
  const auto unwind_labels = [&](ShardHandle leaf) {
    std::vector<std::string> out;
    for (ShardHandle cur = leaf; cur.valid();) {
      const ConfigMeta& meta = interner.value(cur);
      if (meta.via.valid()) out.push_back(ts.label(meta.via));
      cur = meta.parent;
    }
    std::reverse(out.begin(), out.end());
    return out;
  };

  const auto finish = [&](EngineResult r) {
    r.states_explored = interner.size();
    r.stats = DiscreteEngineStats{discrete_count};
    r.seconds = clock.seconds();
    if (obs::metrics_enabled()) {
      // One flush per run: worker balance, steal activity, interner shape.
      obs::Registry& reg = obs::Registry::global();
      for (std::size_t w = 0; w < expanded.size(); ++w)
        reg.counter("rtv_parallel_worker_expanded_total",
                    "worker=\"" + std::to_string(w) + '"',
                    "Frontier items expanded per worker slot")
            .add(expanded[w]);
      reg.counter("rtv_parallel_steal_attempts_total", "",
                  "Entries into the work-stealing path")
          .add(ranges.steal_attempts());
      reg.counter("rtv_parallel_steals_total", "",
                  "Successful chunk-range steals")
          .add(ranges.steals());
      const auto shards = interner.shard_stats();
      reg.gauge("rtv_interner_shards_used", "",
                "Interner shards holding at least one config")
          .set(static_cast<std::int64_t>(shards.nonempty));
      reg.gauge("rtv_interner_shard_occupancy_max", "",
                "Largest interner shard's config count")
          .set(static_cast<std::int64_t>(shards.max_size));
    }
    record_engine_run(name(), r);
    return r;
  };

  const auto merge = [&]() -> bool {
    // Gather this layer's discoveries; their order keys are final now, so
    // sorting yields the sequential BFS queue order.
    std::vector<std::pair<std::uint64_t, FrontierItem>> gathered;
    for (auto& per_worker : discovered) {
      for (auto& [handle, cfg] : per_worker) {
        gathered.emplace_back(interner.value(handle).order_key,
                              FrontierItem{handle, std::move(cfg)});
      }
      per_worker.clear();
    }
    std::sort(gathered.begin(), gathered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, item] : gathered) {
      if (!discrete_seen[item.cfg.state.value()]) {
        discrete_seen[item.cfg.state.value()] = true;
        ++discrete_count;
      }
    }

    if (best) {
      result.verdict = Verdict::kViolated;
      result.message = best->description;
      result.trace_labels = unwind_labels(best->leaf);
      if (!best->extra.empty()) result.trace_labels.push_back(best->extra);
      return false;
    }
    if (const char* reason = stop_flag.load(std::memory_order_relaxed)) {
      result.truncated_reason = reason;
      RTV_WARN << "discrete exploration stopped: " << reason;
      return false;
    }
    if (interner.budget_hit()) {
      result.truncated_reason = stop_reason::kStateBudget;
      RTV_WARN << "discrete exploration truncated at " << interner.size();
      return false;
    }

    frontier.clear();
    frontier.reserve(gathered.size());
    for (auto& [key, item] : gathered) frontier.push_back(std::move(item));
    ++current_layer;
    if (obs::metrics_enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.gauge("rtv_engine_frontier_size", "engine=\"discrete\"",
                "Current BFS frontier size")
          .set(static_cast<std::int64_t>(frontier.size()));
      reg.counter("rtv_engine_frontier_layers_total", "engine=\"discrete\"",
                  "Completed BFS layers")
          .inc();
    }
    if (frontier.empty()) {
      result.verdict = Verdict::kVerified;
      return false;
    }
    ranges.reset(frontier.size(), frontier_chunk_size(frontier.size(), jobs),
                 jobs);
    return true;
  };

  // Seed layer 0 with the initial config.
  {
    Config init;
    init.state = ts.initial();
    init.ages.assign(pseudo_enabled(init.state).size(), 0);
    const auto res = interner.insert(
        init, [&] { return ConfigMeta{ShardHandle{}, EventId::invalid(), 0, 0}; },
        [](ConfigMeta&) {});
    discrete_seen[init.state.value()] = true;
    ++discrete_count;
    frontier.push_back(FrontierItem{res.handle, std::move(init)});
    ranges.reset(frontier.size(), frontier_chunk_size(frontier.size(), jobs),
                 jobs);
  }

  LayeredRunner(jobs).run(process, merge);
  return finish(result);
}

}  // namespace rtv
