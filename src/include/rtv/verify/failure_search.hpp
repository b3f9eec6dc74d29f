// Breadth-first failure search over a refined system.
//
// Finds the shallowest violation of any property — a bad state, a bad
// firing (persistency), or a choke (an output refused by a monitor during a
// containment check).  The returned trace carries base states and raw
// enabled sets, ready for timing analysis.
#pragma once

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
/// cancellation / progress guard) count the states this call keeps;
/// `max_states` is a ceiling: a discovery beyond it is refused, and the
/// search stops truncated once the state being expanded is checked.
std::optional<Failure> find_failure(RefinedGraph& graph,
                                    const SafetyChecks& checks,
                                    std::size_t max_states,
                                    FailureSearchStats* stats,
                                    RunClock* clock = nullptr);

}  // namespace rtv
