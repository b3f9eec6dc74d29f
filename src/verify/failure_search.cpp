#include "rtv/verify/failure_search.hpp"

#include <algorithm>
#include <functional>

#include "rtv/base/log.hpp"

namespace rtv {

namespace {

// find_failure's marks for graph ids it has not kept.
constexpr std::int32_t kUnseen = -1;
constexpr std::int32_t kSubsumed = -2;

/// A trace carries its enabled sets by value.
std::vector<EventId> to_vector(std::span<const EventId> events) {
  return {events.begin(), events.end()};
}

/// Rebuild a trace (over base states, with raw enabling sets) from the
/// search's parent pointers, indexed by discovery order.
Trace unwind(const RefinedGraph& graph, const SafetyChecks& checks,
             const std::vector<std::int32_t>& found,
             const std::vector<std::int32_t>& parent,
             const std::vector<EventId>& via, std::size_t leaf) {
  std::vector<std::pair<StateId, EventId>> rev;
  std::size_t cur = leaf;
  while (parent[cur] >= 0) {
    const auto par = static_cast<std::size_t>(parent[cur]);
    rev.emplace_back(graph.base_state(found[par]), via[cur]);
    cur = par;
  }
  Trace t;
  for (auto it = rev.rbegin(); it != rev.rend(); ++it) {
    TraceStep step;
    step.state = it->first;
    step.event = it->second;
    step.enabled = to_vector(checks.enabled(it->first));
    t.steps.push_back(std::move(step));
  }
  t.final_state = graph.base_state(found[leaf]);
  t.final_enabled = to_vector(checks.enabled(t.final_state));
  return t;
}

}  // namespace

std::optional<Failure> find_failure(RefinedGraph& graph,
                                    const SafetyChecks& checks,
                                    std::size_t max_states,
                                    FailureSearchStats* stats,
                                    RunClock* clock) {
  const TransitionSystem& base = graph.base();
  graph.sync();
  const std::size_t known = graph.size();

  // This search's discoveries, in BFS order: graph id, parent discovery
  // index and the event fired from it.  `seen` maps graph ids back
  // (kUnseen, kSubsumed or a discovery index).
  std::vector<std::int32_t> found;
  std::vector<std::int32_t> parent;
  std::vector<EventId> via;
  std::vector<std::int32_t> seen(graph.size(), kUnseen);
  // Subsumption index of this call only: per key id the newest kept
  // discovery with that key, chained through `same_key`.
  std::vector<std::int32_t> newest(graph.num_keys(), -1);
  std::vector<std::int32_t> same_key;
  std::size_t subsumed = 0;
  bool budget_hit = false;

  auto discover = [&](std::int32_t id, std::int32_t par, EventId e) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= seen.size()) seen.resize(graph.size(), kUnseen);
    if (seen[i] != kUnseen) return;
    // Subsumption: skip a state when a kept discovery of this call has the
    // same (base, codes, order) and entry-wise >= gaps.  Sound because
    //   * blocked() is antitone in the gaps: a larger entry is a weaker
    //     upper bound, which justifies fewer age blockings, and observer
    //     blocking reads only the codes;
    //   * advance() is monotone in the gaps: decoding, the min with the
    //     firing's constants, the shortest-path closure (min and +), the
    //     max-join wave merge and encode_gap's clamp are all monotone, and
    //     the successor's base, codes and order do not read the gaps.
    // So by induction every firing sequence of the skipped state is one of
    // its dominator's, through states that dominate it step by step, and
    // the property and choke checks (which read the base state and the
    // unblocked firings) fail on the dominator's side whenever they fail
    // on the skipped one.  The dominator was discovered first, so in BFS
    // its depth is <= the skipped state's: the failure found is still a
    // shallowest one.  Only this call's discoveries may dominate — a state
    // interned in an earlier iteration may be unreachable now.
    const auto key = static_cast<std::size_t>(graph.key(id));
    if (key >= newest.size()) newest.resize(graph.num_keys(), -1);
    const std::span<const std::uint16_t> gaps = graph.state(id).gaps;
    for (std::int32_t d = newest[key]; d >= 0;
         d = same_key[static_cast<std::size_t>(d)]) {
      const std::span<const std::uint16_t> cover =
          graph.state(found[static_cast<std::size_t>(d)]).gaps;
      if (std::equal(gaps.begin(), gaps.end(), cover.begin(),
                     std::less_equal<>())) {
        seen[i] = kSubsumed;
        ++subsumed;
        return;
      }
    }
    // The budget is an insertion-time ceiling, as in the zone and discrete
    // engines: a discovery beyond it is refused (the initial state is
    // always kept) and truncates the search once the current head is done.
    if (!found.empty() && found.size() >= max_states) {
      budget_hit = true;
      return;
    }
    const auto index = static_cast<std::int32_t>(found.size());
    seen[i] = index;
    same_key.push_back(newest[key]);
    newest[key] = index;
    found.push_back(id);
    parent.push_back(par);
    via.push_back(e);
  };
  auto finish = [&](std::optional<Failure> f) {
    if (stats) {
      stats->states_explored = found.size();
      stats->states_subsumed = subsumed;
      stats->states_interned = graph.size() - known;
    }
    return f;
  };

  discover(graph.initial(), -1, EventId::invalid());

  // A refused discovery truncates the search even when it emptied the
  // queue: the refused state was never explored.
  for (std::size_t head = 0; budget_hit || head < found.size(); ++head) {
    if (budget_hit) {
      if (stats) {
        stats->truncated = true;
        stats->stop_reason = stop_reason::kStateBudget;
      }
      RTV_WARN << "failure search truncated at " << found.size() << " states";
      break;
    }
    if (clock) {
      if (const char* reason = clock->tick(found.size())) {
        if (stats) {
          stats->truncated = true;
          stats->stop_reason = reason;
        }
        RTV_WARN << "failure search stopped: " << reason;
        break;
      }
    }
    const std::int32_t id = found[head];
    const StateId b = graph.base_state(id);

    // 1. State violations.
    if (auto v = checks.state_violation(b)) {
      Failure f;
      f.trace = unwind(graph, checks, found, parent, via, head);
      f.description = std::move(*v);
      return finish(std::move(f));
    }

    // 2. Chokes at this base state (virtual firings refused by a monitor).
    for (const ChokeRecord& c : checks.chokes_at(b)) {
      if (graph.blocked(id, c.event)) continue;  // timing-pruned
      Failure f;
      f.trace = unwind(graph, checks, found, parent, via, head);
      f.virtual_event = c.event;
      f.description = checks.refusal(c);
      return finish(std::move(f));
    }

    // 3. Firings: event checks, then expansion.
    const std::span<const Transition> transitions = base.transitions_from(b);
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      const Transition& t = transitions[k];
      if (graph.blocked_edge(id, k)) continue;
      if (auto v = checks.event_violation(b, k)) {
        Failure f;
        f.trace = unwind(graph, checks, found, parent, via, head);
        // The violating firing becomes the last step of the trace.
        TraceStep step;
        step.state = b;
        step.event = t.event;
        step.enabled = to_vector(checks.enabled(b));
        f.trace.steps.push_back(std::move(step));
        f.trace.final_state = t.target;
        f.trace.final_enabled = to_vector(checks.enabled(t.target));
        f.description = std::move(*v);
        return finish(std::move(f));
      }
      discover(graph.successor(id, k).first, static_cast<std::int32_t>(head),
               t.event);
    }
  }

  return finish(std::nullopt);
}

}  // namespace rtv
