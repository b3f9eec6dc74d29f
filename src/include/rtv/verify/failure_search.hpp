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
#include <utility>
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
  /// Queue heads this call checked and expanded itself; a resumed search
  /// takes the heads before its rollback point over from the previous
  /// call (see FailureSearch).  The search's unit of work.
  std::size_t heads_expanded = 0;
  bool truncated = false;
  /// Why the search stopped early (a rtv::stop_reason string, static
  /// storage); null when not truncated.
  const char* stop_reason = nullptr;
};

/// Shallowest failure in the refined system a RefinedGraph explores: BFS
/// from its initial state over unblocked firings, in the same order as a
/// search that rebuilt the graph from scratch.  The graph and the checks
/// persist across calls (one of each per refinement run): states and
/// successors stay interned while the system only gains activated pairs,
/// and the graph drops them itself when the encoding changes.  Property
/// and choke checks skip firings blocked by the refinement — blocked
/// firings are timing-impossible.  A discovered state is skipped
/// (subsumed) when a state kept earlier in the same search has the same
/// base, codes and order and entry-wise >= gaps: it has no behaviour its
/// dominator lacks.  `max_states` and `clock` (optional: a shared
/// wall-clock deadline / cancellation / progress guard) count the states
/// the search keeps; `max_states` is a ceiling: a discovery beyond it is
/// refused, and the search stops truncated once the state being expanded
/// is checked.
///
/// The object keeps its BFS between calls and resumes it.  Activating a
/// pair (x before e) only blocks more edges of `e`, so the next call rolls
/// back to the first queue head with an expanded edge that is blocked now
/// (at the latest the head the previous call stopped at) and searches on
/// from there; every head before it behaves exactly as in a fresh search.
/// Before resuming it replays the fresh search's RunClock::tick calls for
/// the kept heads, so counts, progress and stops are those of a fresh
/// search.  A new object searches from the initial state, and so does one
/// whose last call was truncated or whose graph changed since
/// (RefinedGraph::changes(): a drop, or an edge decided blocked for
/// another caller): that is the same code with nothing kept.
class FailureSearch {
 public:
  std::optional<Failure> run(RefinedGraph& graph, const SafetyChecks& checks,
                             std::size_t max_states, FailureSearchStats* stats,
                             RunClock* clock = nullptr);

  /// The last call's discoveries in BFS order (graph ids), each one's
  /// parent discovery index (-1 for the initial state) and the event fired
  /// from it.
  std::span<const std::int32_t> found() const { return found_; }
  std::span<const std::int32_t> parent() const { return parent_; }
  std::span<const EventId> via() const { return via_; }

 private:
  std::size_t rollback_point(RefinedGraph& graph);
  void roll_back(const RefinedGraph& graph, std::size_t head);
  void discover(const RefinedGraph& graph, std::int32_t id, std::int32_t par,
                EventId e);

  // What the kept BFS is valid for: the graph as this search left it.
  const RefinedGraph* graph_ = nullptr;
  const SafetyChecks* checks_ = nullptr;
  std::uint64_t changes_ = 0;
  std::size_t max_states_ = 0;
  bool kept_ = false;
  /// Head the last call stopped at (found_.size() when it exhausted the
  /// queue), and per event its count of activated pairs at that moment.
  std::size_t stop_head_ = 0;
  std::vector<std::uint32_t> pairs_before_;

  std::vector<std::int32_t> found_;
  std::vector<std::int32_t> parent_;
  std::vector<EventId> via_;
  /// Per graph id: kUnseen, kSubsumed or its discovery index.
  std::vector<std::int32_t> seen_;
  /// Subsumption index: per key id the newest kept discovery with that
  /// key, chained through same_key_ (a stack, so popping restores it).
  std::vector<std::int32_t> newest_;
  std::vector<std::int32_t> same_key_;
  /// Subsumed discoveries as (head, graph id), in BFS order.
  std::vector<std::pair<std::int32_t, std::int32_t>> marks_;
  /// Per expanded head, the events of its unblocked edges as a 64-bit
  /// mask of (event id mod 64): a filter that skips the heads none of
  /// whose edges a new pair can block.
  std::vector<std::uint64_t> head_events_;
  bool budget_hit_ = false;
};

}  // namespace rtv
