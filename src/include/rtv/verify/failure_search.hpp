// Breadth-first failure search over a refined system.
//
// Finds the shallowest violation of any property — a bad state, a bad
// firing (persistency), or a choke (an output refused by a monitor during a
// containment check).  The returned trace carries base states and raw
// enabled sets, ready for timing analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rtv/lazy/refined_graph.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/trace.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/property.hpp"

namespace rtv {

struct Failure {
  Trace trace;
  /// Set when the failing firing has no transition in the composed graph
  /// (a choke); the event is then appended as a virtual final point.
  EventId virtual_event = EventId::invalid();
  std::string description;
};

struct FailureSearchStats {
  /// States this search discovered and kept — every discovery but the
  /// subsumed ones; the per-iteration unit of max_states and
  /// RunClock::tick.
  std::size_t states_explored = 0;
  /// Discoveries skipped because a kept state of this search covers them
  /// (same base, codes and order, entry-wise >= gaps): never queued or
  /// expanded.
  std::size_t states_subsumed = 0;
  /// States the graph interned during this search, kept or subsumed.
  std::size_t states_interned = 0;
  bool truncated = false;
  /// Why the search stopped early (a rtv::stop_reason string, static
  /// storage); null when not truncated.
  const char* stop_reason = nullptr;
};

/// The checks of a failure search over one composition: safety properties
/// and refusals, read off the composition's event index.  Property
/// verdicts depend only on the base graph, so the first violating property
/// of each base state and base transition is computed once and kept for
/// the checks' lifetime; a violation's message is built only when a check
/// hits.  `base`, `index` and `properties` are referenced, not copied, and
/// must outlive the checks.
class FailureChecks {
 public:
  FailureChecks(const TransitionSystem& base, const ChokeIndex& index,
                std::span<const SafetyProperty* const> properties);

  /// Sorted base-enabled events of `s`.
  std::span<const EventId> enabled(StateId s) const {
    return index_->enabled(s);
  }
  /// Chokes at base state `s`.
  std::span<const ChokeRecord> chokes_at(StateId s) const {
    return index_->chokes_at(s);
  }
  /// Message of the first property `s` violates.
  std::optional<std::string> state_violation(StateId s);
  /// Message of the first property base transition `k` of `s` violates.
  std::optional<std::string> event_violation(StateId s, std::size_t k);

 private:
  const TransitionSystem* base_;
  const ChokeIndex* index_;
  std::span<const SafetyProperty* const> properties_;
  /// First violating property index, or "clean" / "unchecked" (negative):
  /// per base state, and per base transition (CSR over transition_offset_).
  std::vector<std::int32_t> state_verdict_;
  std::vector<std::size_t> transition_offset_;
  std::vector<std::int32_t> event_verdict_;
};

/// Shallowest failure in the refined system `graph` explores: BFS from its
/// initial state over unblocked firings, in the same order as a search
/// that rebuilt the graph from scratch.  The graph and `checks` persist
/// across calls (one of each per refinement run): states and successors
/// stay interned while the system only gains activated pairs, and the
/// graph drops them itself when the encoding changes.  Property and choke
/// checks skip firings blocked by the refinement — blocked firings are
/// timing-impossible.  A discovered state is skipped (subsumed) when a
/// state kept earlier in the same call has the same base, codes and order
/// and entry-wise >= gaps: it has no behaviour its dominator lacks.
/// `max_states` and `clock` (optional: a shared wall-clock deadline /
/// cancellation / progress guard) count the states this call keeps.
std::optional<Failure> find_failure(RefinedGraph& graph, FailureChecks& checks,
                                    std::size_t max_states,
                                    FailureSearchStats* stats,
                                    RunClock* clock = nullptr);

}  // namespace rtv
