#include "rtv/verify/failure_search.hpp"

#include <algorithm>
#include <functional>

#include "rtv/base/log.hpp"

namespace rtv {

namespace {

// FailureSearch's marks for graph ids it has not kept.
constexpr std::int32_t kUnseen = -1;
constexpr std::int32_t kSubsumed = -2;

/// An event's bit in FailureSearch's per-head event masks.
std::uint64_t event_bit(EventId e) {
  return std::uint64_t{1} << (e.value() % 64);
}

/// A trace carries its enabled sets by value.
std::vector<EventId> to_vector(std::span<const EventId> events) {
  return {events.begin(), events.end()};
}

/// Rebuild a trace (over base states, with raw enabling sets) from the
/// search's parent pointers, indexed by discovery order.
Trace unwind(const RefinedGraph& graph, const SafetyChecks& checks,
             std::span<const std::int32_t> found,
             std::span<const std::int32_t> parent,
             std::span<const EventId> via, std::size_t leaf) {
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

void FailureSearch::discover(const RefinedGraph& graph, std::int32_t id,
                             std::int32_t par, EventId e) {
  const auto i = static_cast<std::size_t>(id);
  if (i >= seen_.size()) seen_.resize(graph.size(), kUnseen);
  if (seen_[i] != kUnseen) return;
  // Subsumption: skip a state when a kept discovery of this search has the
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
  // shallowest one.  Only this search's discoveries may dominate — a
  // state interned in an earlier iteration may be unreachable now.
  const auto key = static_cast<std::size_t>(graph.key(id));
  if (key >= newest_.size()) newest_.resize(graph.num_keys(), -1);
  const std::uint32_t sum = graph.gap_sum(id);
  const std::span<const std::uint16_t> gaps = graph.state(id).gaps;
  for (std::int32_t d = newest_[key]; d >= 0;
       d = same_key_[static_cast<std::size_t>(d)]) {
    const std::int32_t cover = found_[static_cast<std::size_t>(d)];
    // Entry-wise <= implies sum <=, so a larger sum rules the cover out
    // without touching its gaps.
    if (sum > graph.gap_sum(cover)) continue;
    const std::span<const std::uint16_t> cover_gaps = graph.state(cover).gaps;
    if (std::equal(gaps.begin(), gaps.end(), cover_gaps.begin(),
                   std::less_equal<>())) {
      seen_[i] = kSubsumed;
      marks_.emplace_back(par, id);
      return;
    }
  }
  // The budget is an insertion-time ceiling, as in the zone and discrete
  // engines: a discovery beyond it is refused (the initial state is
  // always kept) and truncates the search once the current head is done.
  if (!found_.empty() && found_.size() >= max_states_) {
    budget_hit_ = true;
    return;
  }
  const auto index = static_cast<std::int32_t>(found_.size());
  seen_[i] = index;
  same_key_.push_back(newest_[key]);
  newest_[key] = index;
  found_.push_back(id);
  parent_.push_back(par);
  via_.push_back(e);
}

std::size_t FailureSearch::rollback_point(RefinedGraph& graph) {
  // Every head before the returned one behaves exactly as in a fresh
  // search: its state checks read only the base state; a blocked choke or
  // edge stays blocked (blocking only grows between graph drops); an
  // unblocked choke or a violating edge ends the search, so only the stop
  // head can hold one; and every unblocked edge it expanded is either of
  // an event whose pair count did not move (blocked(s, e) reads only the
  // pairs (x before e)) or re-decided unblocked below.  So its successors,
  // subsumption marks and discoveries are a fresh search's too.  The
  // graph has not changed since the last call, so its blocking memo still
  // tells the edges that call expanded (not known blocked) from the rest.
  const RefinedSystem& sys = graph.system();
  const auto moved = [&](EventId e) {
    return sys.num_pairs_before(e) != pairs_before_[e.value()];
  };
  std::uint64_t changed = 0;
  for (std::size_t e = 0; e < pairs_before_.size(); ++e) {
    const EventId ev(static_cast<EventId::underlying_type>(e));
    if (moved(ev)) changed |= event_bit(ev);
  }
  if (!changed) return stop_head_;
  const TransitionSystem& base = graph.base();
  for (std::size_t head = 0; head < stop_head_; ++head) {
    if (!(head_events_[head] & changed)) continue;
    const std::int32_t id = found_[head];
    const auto transitions = base.transitions_from(graph.base_state(id));
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      // An edge the last search found blocked was never expanded.
      if (!moved(transitions[k].event) || graph.known_blocked(id, k)) continue;
      if (graph.blocked_edge(id, k)) return head;
    }
  }
  return stop_head_;
}

void FailureSearch::roll_back(const RefinedGraph& graph, std::size_t head) {
  // Parents, marks and head masks are in BFS order, so everything made
  // at or after `head` sits at the back.
  const auto h = static_cast<std::int32_t>(head);
  while (!parent_.empty() && parent_.back() >= h) {
    const std::int32_t id = found_.back();
    newest_[static_cast<std::size_t>(graph.key(id))] = same_key_.back();
    seen_[static_cast<std::size_t>(id)] = kUnseen;
    found_.pop_back();
    parent_.pop_back();
    via_.pop_back();
    same_key_.pop_back();
  }
  while (!marks_.empty() && marks_.back().first >= h) {
    seen_[static_cast<std::size_t>(marks_.back().second)] = kUnseen;
    marks_.pop_back();
  }
  if (head_events_.size() > head) head_events_.resize(head);
}

std::optional<Failure> FailureSearch::run(RefinedGraph& graph,
                                          const SafetyChecks& checks,
                                          std::size_t max_states,
                                          FailureSearchStats* stats,
                                          RunClock* clock) {
  const TransitionSystem& base = graph.base();
  graph.sync();
  const std::size_t known = graph.size();

  // Resume where the kept BFS first differs, or start afresh.
  std::size_t resume = 0;
  if (kept_ && graph_ == &graph && checks_ == &checks &&
      changes_ == graph.changes() && max_states_ == max_states) {
    resume = rollback_point(graph);
    roll_back(graph, resume);
  } else {
    found_.clear();
    parent_.clear();
    via_.clear();
    same_key_.clear();
    marks_.clear();
    head_events_.clear();
    seen_.assign(graph.size(), kUnseen);
    newest_.assign(graph.num_keys(), -1);
  }
  kept_ = false;
  graph_ = &graph;
  checks_ = &checks;
  max_states_ = max_states;
  budget_hit_ = false;
  std::size_t expanded = 0;

  auto report = [&] {
    if (!stats) return;
    stats->states_explored = found_.size();
    stats->states_subsumed = marks_.size();
    stats->states_interned = graph.size() - known;
    stats->heads_expanded = expanded;
  };
  // The kept BFS stays resumable when the search ends on a failure or
  // exhausts its queue at `stop_head`; a truncated one starts afresh.
  auto finish = [&](std::optional<Failure> f, std::size_t stop_head) {
    report();
    const RefinedSystem& sys = graph.system();
    pairs_before_.resize(base.num_events());
    for (std::size_t e = 0; e < pairs_before_.size(); ++e)
      pairs_before_[e] = sys.num_pairs_before(
          EventId(static_cast<EventId::underlying_type>(e)));
    stop_head_ = stop_head;
    changes_ = graph.changes();
    kept_ = true;
    return f;
  };
  auto stopped = [&](const char* reason) {
    report();
    if (stats) {
      stats->truncated = true;
      stats->stop_reason = reason;
    }
    return std::optional<Failure>();
  };

  if (found_.empty()) discover(graph, graph.initial(), -1, EventId::invalid());

  // A fresh search ticks once per head, with the discoveries made before
  // it: replay that for the kept heads.  A stop here leaves what a fresh
  // search stopped at that head would have.
  if (clock) {
    std::size_t before = 0;
    for (std::size_t head = 0; head < resume; ++head) {
      while (before < found_.size() &&
             parent_[before] < static_cast<std::int32_t>(head))
        ++before;
      if (const char* reason = clock->tick(before)) {
        roll_back(graph, head);
        RTV_WARN << "failure search stopped: " << reason;
        return stopped(reason);
      }
    }
  }

  // A refused discovery truncates the search even when it emptied the
  // queue: the refused state was never explored.
  for (std::size_t head = resume; budget_hit_ || head < found_.size();
       ++head) {
    if (budget_hit_) {
      RTV_WARN << "failure search truncated at " << found_.size()
               << " states";
      return stopped(stop_reason::kStateBudget);
    }
    if (clock) {
      if (const char* reason = clock->tick(found_.size())) {
        RTV_WARN << "failure search stopped: " << reason;
        return stopped(reason);
      }
    }
    ++expanded;
    head_events_.push_back(0);
    const std::int32_t id = found_[head];
    const StateId b = graph.base_state(id);

    // 1. State violations.
    if (auto v = checks.state_violation(b)) {
      Failure f;
      f.trace = unwind(graph, checks, found_, parent_, via_, head);
      f.description = std::move(*v);
      return finish(std::move(f), head);
    }

    // 2. Chokes at this base state (virtual firings refused by a monitor).
    for (const ChokeRecord& c : checks.chokes_at(b)) {
      if (graph.blocked(id, c.event)) continue;  // timing-pruned
      Failure f;
      f.trace = unwind(graph, checks, found_, parent_, via_, head);
      f.virtual_event = c.event;
      f.description = checks.refusal(c);
      return finish(std::move(f), head);
    }

    // 3. Firings: event checks, then expansion.
    const std::span<const Transition> transitions = base.transitions_from(b);
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      const Transition& t = transitions[k];
      if (graph.blocked_edge(id, k)) continue;
      head_events_.back() |= event_bit(t.event);
      if (auto v = checks.event_violation(b, k)) {
        Failure f;
        f.trace = unwind(graph, checks, found_, parent_, via_, head);
        // The violating firing becomes the last step of the trace.
        TraceStep step;
        step.state = b;
        step.event = t.event;
        step.enabled = to_vector(checks.enabled(b));
        f.trace.steps.push_back(std::move(step));
        f.trace.final_state = t.target;
        f.trace.final_enabled = to_vector(checks.enabled(t.target));
        f.description = std::move(*v);
        return finish(std::move(f), head);
      }
      discover(graph, graph.successor(id, k).first,
               static_cast<std::int32_t>(head), t.event);
    }
  }

  return finish(std::nullopt, found_.size());
}

}  // namespace rtv
