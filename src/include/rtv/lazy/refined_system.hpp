// Lazy refinement of a transition system by ban observers.
//
// Each refinement iteration of the verification flow (Fig. 3) proves that a
// window of a failure trace is timing-impossible and registers it as a
// *ban observer*: a linear pattern (anchor, e_1 ... e_k) whose completion is
// blocked.  The refined system is the enabling-compatible product of the
// base system with these observers, explored on the fly:
//
//   * enabling is untouched (laziness: timing knowledge delays firings,
//     it never changes what is enabled),
//   * a firing is blocked iff it would complete an observer's window.
//
// Two anchoring flavours (see trace_timing.hpp): `from_start` patterns are
// armed only at the start of a run; anchored patterns re-arm at every visit
// of their anchor state.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rtv/ts/compose.hpp"
#include "rtv/ts/transition_system.hpp"

namespace rtv {

struct BanObserver {
  bool from_start = false;
  StateId anchor_state;           ///< ignored when from_start
  std::vector<EventId> window;    ///< completing window.back() is blocked
  std::string description;
};

/// A state of the refined system: a base state plus, per observer, the set
/// of active match positions.  Codes are flattened (observer, position)
/// pairs, kept sorted so states compare and hash canonically.
///
/// When the structural relative-timing rule is enabled the state also
/// carries the *enabling order* of the currently enabled events: event ids
/// grouped into waves (events of one wave became enabled at the same
/// firing instant).  Bit 15 of an entry marks the start of a new wave.
struct RefinedState {
  StateId base;
  std::vector<std::uint16_t> codes;
  std::vector<std::uint16_t> order;
  /// Capped difference-bound matrix over wave-creation instants, row-major
  /// n x n for n waves: decoded entry (i, j) bounds t(wave_i) - t(wave_j).
  /// Entries are biased by the system cap; 0xffff encodes "unbounded".
  /// Extrapolated to the cap so the state space stays finite.
  std::vector<std::uint16_t> gaps;

  friend bool operator==(const RefinedState& a, const RefinedState& b) {
    return a.base == b.base && a.codes == b.codes && a.order == b.order &&
           a.gaps == b.gaps;
  }
};

/// Read-only view of a refined state: over a RefinedState, or over a
/// packed record of a RefinedGraph.
struct RefinedStateView {
  StateId base;
  std::span<const std::uint16_t> codes;
  std::span<const std::uint16_t> order;
  std::span<const std::uint16_t> gaps;

  RefinedStateView(StateId b, std::span<const std::uint16_t> c,
                   std::span<const std::uint16_t> o,
                   std::span<const std::uint16_t> g)
      : base(b), codes(c), order(o), gaps(g) {}
  RefinedStateView(const RefinedState& s)  // NOLINT: implicit by design
      : base(s.base), codes(s.codes), order(s.order), gaps(s.gaps) {}
};

class RefinedSystem {
 public:
  /// `index` is the event index of `base` (Composition::index()).  Its
  /// pseudo-enabled sets include the composition's refused outputs: they
  /// are enabled in the implementation even though the composed graph has
  /// no transition, so the wave tracking includes them — both to time
  /// their own firing and to account for their deadlines.  Both are
  /// referenced, not copied, and must outlive the system.
  RefinedSystem(const TransitionSystem& base, const ChokeIndex& index);

  const TransitionSystem& base() const { return *base_; }

  /// Enable the relative-timing bookkeeping: refined states track a capped
  /// difference-bound matrix over the enabling instants of pending events.
  /// Blocking is *lazy*: a firing of y is pruned only when some refinement
  /// iteration activated the ordering (x before y) and the matrix justifies
  /// it in the current state (y's earliest firing provably exceeds x's
  /// deadline, so urgency makes x fire or disable strictly first).  Each
  /// activated pair is exactly one of the paper's back-annotated relative
  /// timing constraints.
  void enable_age_rule(bool on = true);

  /// Cap on tracked waves: beyond it the two oldest waves merge with
  /// weaker-bound joins (sound — the merged instant covers both).  Smaller
  /// caps bound the refined state space at the cost of justification
  /// precision.
  void set_max_waves(std::size_t n) { max_waves_ = n; }

  /// Activate the ordering "before fires before after while both pending".
  /// Returns false if the pair was already active.
  bool activate_pair(EventId before, EventId after);
  std::size_t num_active_pairs() const { return num_pairs_; }
  /// Number of activated pairs (x before `after`): the only pairs
  /// blocked(s, after) reads.  Event ids are 15-bit, so it fits in 16.
  std::uint32_t num_pairs_before(EventId after) const {
    return befores_.empty() ? 0 : befores_[after.value()];
  }

  void add_observer(BanObserver obs);
  std::size_t num_observers() const { return observers_.size(); }
  const BanObserver& observer(std::size_t i) const { return observers_[i]; }

  RefinedState initial() const;

  /// True iff firing e from s is blocked: it would complete some observer
  /// window, or an activated ordering justifies pruning it.
  bool blocked(RefinedStateView s, EventId e) const;

  /// Successor after firing e (e must be base-enabled and not blocked).
  RefinedState advance(RefinedStateView s, EventId e) const;
  /// Same, written into `out` (reusing its capacity; must not be the
  /// storage `s` views).
  void advance(RefinedStateView s, EventId e, RefinedState* out) const;

 private:
  bool blocked_by_age(RefinedStateView s, EventId e) const;
  std::vector<std::uint16_t> initial_order() const;
  void advance_age(RefinedStateView s, EventId fired, StateId succ,
                   RefinedState* out) const;
  Time decode_gap(std::uint16_t v) const;
  std::uint16_t encode_gap(Time v) const;

  const TransitionSystem* base_;
  std::vector<BanObserver> observers_;
  /// Activated orderings as a num_events^2 bitset, row `after`, column
  /// `before`; befores_[after] counts the set bits of a row.
  std::vector<bool> pairs_;
  std::vector<std::uint32_t> befores_;
  std::size_t num_pairs_ = 0;
  const ChokeIndex* index_;
  bool age_rule_ = false;
  Time cap_ = 1;
  std::size_t max_waves_ = 6;
};

}  // namespace rtv
