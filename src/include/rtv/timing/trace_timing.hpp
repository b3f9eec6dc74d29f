// Exact timing analysis of a failure trace.
//
// A trace fixes a total firing order and, at every step, the set of
// still-pending enabled events.  Timing consistency is then a system of
// difference constraints over firing times:
//
//   * monotonicity of firing times,
//   * for each fired occurrence: its delay bounds anchored at its enabling
//     point,
//   * for each pending occurrence at a firing step: the firing cannot
//     happen later than the pending event's deadline (enabling + upper
//     bound) — the inertial-delay urgency that makes traces like
//     Fig. 13(a) infeasible.  Events whose firing self-loops on the
//     current state are exempt when their upper bound is positive: they can
//     fire (and re-arm) any number of times without perturbing the trace,
//     pushing the deadline forward indefinitely — an untimed search that
//     skips revisited states can't spell those firings out, and charging
//     their urgency against longer traces would (unsoundly) ban reachable
//     failures.  A zero-deadline self-loop is NOT exempt: re-arming never
//     advances its deadline, so it pins time at its enabling instant and
//     genuinely blocks any later firing.
//
// When a trace is infeasible, the negative cycle of the system localises a
// *ban window* [anchor..last]: a contiguous slice of the trace that is
// timing-impossible on its own.  Two validity flavours exist:
//
//   * from_start: the window starts at the initial point of the run; lower
//     bounds of initially-enabled events hold exactly (time 0 anchoring);
//   * anchored: the window may be entered at *any* visit of the anchor
//     state; boundary-crossing enabling is clamped conservatively (lower
//     bounds dropped, deadlines anchored at the window entry, which can
//     only weaken the system), so infeasibility of the clamped system
//     proves the pattern impossible regardless of history.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rtv/timing/difference_constraints.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/trace.hpp"

namespace rtv {

/// Provenance of one difference constraint of a trace system.
struct TraceConstraintInfo {
  enum class Kind { kMonotonic, kFiringLower, kFiringUpper, kPendingDeadline };
  Kind kind = Kind::kMonotonic;
  int point = 0;       ///< firing point the constraint talks about
  int anchor = 0;      ///< enabling point it is anchored at
  EventId event = EventId::invalid();  ///< event involved (fired or pending)
};

struct BuiltTraceSystem {
  DiffSystem system;
  std::vector<TraceConstraintInfo> info;  ///< indexed by constraint tag
  BuiltTraceSystem() : system(0) {}
};

/// A window of the trace proven timing-impossible.
struct BanWindow {
  bool from_start = false;  ///< anchored at the run's start vs at a state visit
  int anchor_point = 0;     ///< first point of the window
  int last_point = 0;       ///< point whose firing is blocked

  friend bool operator==(const BanWindow&, const BanWindow&) = default;
};

/// Back-annotated ordering: `before` must fire before `after` (a relative
/// timing constraint in the sense of [16]).
struct DerivedOrdering {
  std::string before;
  std::string after;

  friend bool operator==(const DerivedOrdering& a, const DerivedOrdering& b) {
    return a.before == b.before && a.after == b.after;
  }
  friend bool operator<(const DerivedOrdering& a, const DerivedOrdering& b) {
    return a.before != b.before ? a.before < b.before : a.after < b.after;
  }
};

/// Reverse adjacency of a transition system: the (source, event) of every
/// transition into each state, as one CSR.  It depends only on the graph,
/// so a refinement run builds it once and shares it with the timing model
/// of every failure trace.
class PredecessorIndex {
 public:
  explicit PredecessorIndex(const TransitionSystem& ts);

  /// Transitions into `s`, by ascending source state.
  std::span<const std::pair<StateId, EventId>> into(StateId s) const;

 private:
  std::vector<std::size_t> offset_;  ///< state s owns [offset_[s], offset_[s + 1])
  std::vector<std::pair<StateId, EventId>> preds_;
};

class TraceTimingModel {
 public:
  /// `virtual_final`: an event treated as fired from the trace's final
  /// state as an extra last point (used for refused/choked events that have
  /// no transition in the composed graph).
  ///
  /// `chokes`: the composition's refusal records.  A choked output has no
  /// composed transition, so it is invisible in the trace's enabled sets —
  /// but the producer's clock is still running.  The model treats choked
  /// events as enabled at their choke states, anchoring a refused firing
  /// at its true enabling point instead of at the refusal itself (without
  /// this, exact delay bounds start too late and feasible refusals are
  /// judged impossible — an unsound "verified").
  ///
  /// `ts`, `preds` (the PredecessorIndex of `ts`) and `trace` are
  /// referenced, not copied.
  TraceTimingModel(const TransitionSystem& ts, const PredecessorIndex& preds,
                   const Trace& trace,
                   EventId virtual_final = EventId::invalid(),
                   std::span<const ChokeRecord> chokes = {});

  int num_points() const { return n_points_; }
  EventId fired(int point) const;
  StateId state_at(int point) const;
  const std::vector<EventId>& enabled_at(int point) const;

  /// Enabling point of the occurrence of `event` pending/firing at `point`.
  int enabling_point(EventId event, int point) const;

  /// True iff every arrival into `state` freshly enables `event`: no
  /// predecessor state has it enabled (except via the event's own firing).
  /// Fresh events may keep exact bounds at a window boundary, since any
  /// run entering the anchor state enables them exactly on arrival.
  bool freshly_enabled_at(StateId state, EventId event) const;

  /// Build the system for points [win_start..win_last].  When `clamped`,
  /// enabling crossing the window start is weakened so the system is valid
  /// for any entry into the window's anchor state.
  BuiltTraceSystem build_system(int win_start, int win_last, bool clamped) const;

  /// Exact feasibility of the whole trace (run-start anchoring).
  bool consistent() const;

  /// Localise a ban window; nullopt if the trace is consistent.
  std::optional<BanWindow> find_ban_window() const;

  /// Human-meaningful orderings explaining why the window is infeasible:
  /// pending or earlier-fired events whose deadline constraints are
  /// responsible for banning the window's last firing.
  std::vector<DerivedOrdering> explain(const BanWindow& win) const;

 private:
  /// True iff `event` is enabled at `state` in the producer sense: a
  /// composed transition exists, or the event is choked there.
  bool enabled_or_choked(StateId state, EventId event) const;

  const TransitionSystem& ts_;
  const PredecessorIndex& preds_;
  const Trace& trace_;
  EventId virtual_final_;
  int n_points_;
  /// (state, event) choke pairs, sorted for binary search.
  std::vector<std::pair<StateId::underlying_type, EventId::underlying_type>>
      choked_;
  /// Per-point enabled sets augmented with the state's choked events
  /// (sorted); empty when no augmentation was needed at that point.
  std::vector<std::vector<EventId>> augmented_;
};

}  // namespace rtv
