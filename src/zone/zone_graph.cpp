#include "rtv/zone/zone_graph.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>

#include "rtv/base/log.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/zone/dbm.hpp"

namespace rtv {

namespace {

struct ZoneNode {
  StateId state;
  /// The state's pseudo-enabled events; clock k+1 tracks clocks[k].
  std::span<const EventId> clocks;
  Dbm zone{0};
  std::ptrdiff_t parent = -1;
  EventId via = EventId::invalid();
};

/// Key: discrete state (clock list is determined by the state itself).
using WaitIndex = std::unordered_map<StateId::underlying_type, std::vector<std::size_t>>;

}  // namespace

EngineResult ZoneEngine::run(const EngineRequest& request) const {
  obs::Span span("engine:zone", "engine");
  const Composition& comp = checked_composition(request);
  const TransitionSystem& ts = comp.ts;
  const SafetyChecks checks(comp, request.properties);
  const std::size_t max_zones =
      request.budget.max_states ? request.budget.max_states : kDefaultZones;
  RunClock clock(name(), request.budget, request.progress,
                 request.progress_interval);
  EngineResult result;

  // Clocks are tracked for pseudo-enabled events: composed-enabled ones
  // plus choked (refused) outputs.
  const ChokeIndex& index = comp.index();

  // Per-event extrapolation constant.
  std::vector<Time> event_const(ts.num_events());
  for (std::size_t i = 0; i < ts.num_events(); ++i) {
    const DelayInterval d =
        ts.delay(EventId(static_cast<EventId::underlying_type>(i)));
    event_const[i] = d.upper_bounded() ? d.hi() : d.lo();
  }

  std::vector<ZoneNode> nodes;
  WaitIndex stored;
  std::deque<std::size_t> queue;
  std::vector<bool> discrete_seen(ts.num_states(), false);
  std::size_t discrete_count = 0;
  // Exploration typically visits thousands of zones; pre-sizing the node
  // arena and the per-state index avoids the early rehash/realloc churn.
  nodes.reserve(std::min<std::size_t>(max_zones, 4096));
  stored.reserve(std::min<std::size_t>(ts.num_states(), 4096));

  auto unwind_labels = [&](std::ptrdiff_t leaf) {
    std::vector<std::string> out;
    std::ptrdiff_t cur = leaf;
    while (cur >= 0 && nodes[static_cast<std::size_t>(cur)].parent >= 0) {
      out.push_back(ts.label(nodes[static_cast<std::size_t>(cur)].via));
      cur = nodes[static_cast<std::size_t>(cur)].parent;
    }
    std::reverse(out.begin(), out.end());
    return out;
  };

  bool budget_hit = false;
  std::uint64_t subsumption_checks = 0, subsumed = 0;
  auto add_node = [&](ZoneNode node) -> std::optional<std::size_t> {
    // Subsumption against stored zones of the same discrete state.
    auto& bucket = stored[node.state.value()];
    subsumption_checks += bucket.size();
    for (std::size_t idx : bucket) {
      const ZoneNode& other = nodes[idx];
      if (node.zone.subset_of(other.zone)) {
        ++subsumed;
        return std::nullopt;
      }
    }
    // The zone budget is an insertion-time ceiling: a zone beyond the cap
    // is rejected outright (the initial zone is always admitted), so the
    // store never overshoots max_zones by a frontier layer.
    if (!nodes.empty() && nodes.size() >= max_zones) {
      budget_hit = true;
      return std::nullopt;
    }
    nodes.push_back(std::move(node));
    const std::size_t id = nodes.size() - 1;
    bucket.push_back(id);
    queue.push_back(id);
    if (!discrete_seen[nodes[id].state.value()]) {
      discrete_seen[nodes[id].state.value()] = true;
      ++discrete_count;
    }
    return id;
  };

  // Initial node: all initially enabled events at clock 0.
  {
    ZoneNode init;
    init.state = ts.initial();
    init.clocks = index.pseudo_enabled(init.state);
    init.zone = Dbm::zero(init.clocks.size());
    init.zone.canonicalize();
    add_node(std::move(init));
  }

  auto finish = [&](EngineResult r) {
    r.states_explored = nodes.size();
    r.discrete_states = discrete_count;
    r.seconds = clock.seconds();
    if (obs::metrics_enabled()) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("rtv_zone_subsumption_checks_total", "",
                  "Zone-vs-stored-zone subsumption comparisons")
          .add(subsumption_checks);
      reg.counter("rtv_zone_subsumed_total", "",
                  "Zones dropped as subsumed by a stored zone")
          .add(subsumed);
      reg.gauge("rtv_engine_frontier_size", "engine=\"zone\"",
                "Zone waiting-queue size at the end of the run")
          .set(static_cast<std::int64_t>(queue.size()));
    }
    record_engine_run(name(), r);
    return r;
  };
  // A violation at node `leaf`, optionally by firing `last` from it.
  auto violated = [&](std::string message, std::size_t leaf,
                      EventId last = EventId::invalid()) {
    result.verdict = Verdict::kViolated;
    result.message = std::move(message);
    result.trace_labels = unwind_labels(static_cast<std::ptrdiff_t>(leaf));
    if (last.valid()) result.trace_labels.push_back(ts.label(last));
    return finish(result);
  };

  // A rejected insertion truncates the run even when it emptied the queue:
  // the rejected zone was never explored.
  while (budget_hit || !queue.empty()) {
    if (budget_hit) {
      result.truncated_reason = stop_reason::kStateBudget;
      RTV_WARN << "zone exploration truncated at " << nodes.size();
      break;
    }
    if (const char* reason = clock.tick(nodes.size())) {
      result.truncated_reason = reason;
      RTV_WARN << "zone exploration stopped: " << reason;
      break;
    }
    const std::size_t id = queue.front();
    queue.pop_front();
    // Copy: nodes may reallocate during expansion.
    const ZoneNode node = nodes[id];
    if (auto v = checks.state_violation(node.state))
      return violated(std::move(*v), id);

    auto clock_of = [&](EventId e) -> std::size_t {
      const auto it = std::lower_bound(node.clocks.begin(), node.clocks.end(), e);
      return static_cast<std::size_t>(it - node.clocks.begin()) + 1;
    };

    // Delay closure under the location invariant (maximal progress).
    Dbm delayed = node.zone;
    delayed.up();
    for (std::size_t c = 0; c < node.clocks.size(); ++c) {
      const DelayInterval d = ts.delay(node.clocks[c]);
      if (d.upper_bounded()) delayed.constrain(c + 1, 0, d.hi());
    }
    delayed.canonicalize();

    auto fireable_zone = [&](EventId e) -> std::optional<Dbm> {
      Dbm fire = delayed;
      if (fire.empty()) return std::nullopt;
      const DelayInterval d = ts.delay(e);
      // x_e >= lo:  0 - x_e <= -lo.
      fire.constrain(0, clock_of(e), -d.lo());
      if (!fire.canonicalize()) return std::nullopt;
      return fire;
    };

    // Chokes: refused outputs that are timed-fireable are true violations.
    for (const ChokeRecord& c : checks.chokes_at(node.state))
      if (fireable_zone(c.event))
        return violated(checks.refusal(c), id, c.event);

    const std::span<const Transition> transitions =
        ts.transitions_from(node.state);
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      const Transition& t = transitions[k];
      const auto fire = fireable_zone(t.event);
      if (!fire) continue;
      if (auto v = checks.event_violation(node.state, k))
        return violated(std::move(*v), id, t.event);

      const std::span<const EventId> succ_clocked =
          index.pseudo_enabled(t.target);

      // Build the successor zone: persistent events keep clocks, the fired
      // event and newly enabled events restart at 0.
      std::vector<std::size_t> source(succ_clocked.size(), 0);
      for (std::size_t c = 0; c < succ_clocked.size(); ++c) {
        const EventId e = succ_clocked[c];
        if (e == t.event) continue;  // fired: fresh clock
        const auto it =
            std::lower_bound(node.clocks.begin(), node.clocks.end(), e);
        if (it != node.clocks.end() && *it == e) {
          source[c] = static_cast<std::size_t>(it - node.clocks.begin()) + 1;
        }
      }
      ZoneNode succ;
      succ.state = t.target;
      succ.clocks = succ_clocked;
      succ.zone = fire->remap(source);
      // Extrapolate for termination with unbounded delays.
      std::vector<Time> consts(succ.clocks.size() + 1, 0);
      for (std::size_t c = 0; c < succ.clocks.size(); ++c)
        consts[c + 1] = event_const[succ.clocks[c].value()];
      succ.zone.extrapolate(consts);
      succ.zone.canonicalize();
      if (succ.zone.empty()) continue;
      succ.parent = static_cast<std::ptrdiff_t>(id);
      succ.via = t.event;
      add_node(std::move(succ));
    }
  }

  if (result.truncated_reason.empty()) result.verdict = Verdict::kVerified;
  return finish(result);
}

}  // namespace rtv
