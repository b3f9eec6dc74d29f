// Explicit-state (timed) transition systems.
//
// This is the central model of the library (the paper's TTS: a TS whose
// events carry [delta_l, delta_u] delay bounds).  Component models — STGs,
// transistor netlists, hand-built examples — are all elaborated into this
// representation before verification.
//
// States may optionally carry a boolean signal valuation (used to evaluate
// short-circuit invariants on circuit states) and a human-readable name.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rtv/base/bitvec.hpp"
#include "rtv/base/ids.hpp"
#include "rtv/ts/event.hpp"

namespace rtv {

struct Transition {
  EventId event;
  StateId target;
};

class TransitionSystem {
 public:
  // ---- construction ------------------------------------------------------

  StateId add_state(std::string name = {});
  EventId add_event(std::string label,
                    DelayInterval delay = DelayInterval::unbounded(),
                    EventKind kind = EventKind::kInternal);
  /// Returns the existing event with this label, or adds a new one.
  EventId ensure_event(const std::string& label,
                       DelayInterval delay = DelayInterval::unbounded(),
                       EventKind kind = EventKind::kInternal);
  void add_transition(StateId from, EventId event, StateId to);
  /// Room for `n` transitions from `from` (a capacity hint).
  void reserve_transitions(StateId from, std::size_t n) {
    out_[from.value()].reserve(n);
  }
  void set_initial(StateId s) { initial_ = s; }

  /// Declare the signal alphabet used by state valuations.
  void set_signal_names(std::vector<std::string> names);
  void set_state_valuation(StateId s, BitVec valuation);
  void set_state_name(StateId s, std::string name);

  void set_event_delay(EventId e, DelayInterval d) { events_[e.value()].delay = d; }
  void set_event_kind(EventId e, EventKind k) { events_[e.value()].kind = k; }

  // ---- queries -----------------------------------------------------------

  std::size_t num_states() const { return out_.size(); }
  std::size_t num_events() const { return events_.size(); }
  std::size_t num_transitions() const;
  StateId initial() const { return initial_; }

  const Event& event(EventId e) const { return events_[e.value()]; }
  const std::string& label(EventId e) const { return events_[e.value()].label; }
  DelayInterval delay(EventId e) const { return events_[e.value()].delay; }

  /// All transitions leaving s.
  std::span<const Transition> transitions_from(StateId s) const {
    return out_[s.value()];
  }

  /// Event ids with at least one transition from s (deduplicated, sorted).
  std::vector<EventId> enabled_events(StateId s) const;

  /// True iff some transition from s is labelled by e.
  bool is_enabled(StateId s, EventId e) const;

  /// First successor of s under e (systems built by this library are
  /// deterministic per event).  nullopt if e is not enabled.
  std::optional<StateId> successor(StateId s, EventId e) const;

  /// Event with the given label, or invalid id.
  EventId event_by_label(std::string_view label) const;

  const std::vector<std::string>& signal_names() const { return signal_names_; }
  /// Index of a signal name, or npos.
  std::size_t signal_index(std::string_view name) const;

  bool has_valuations() const { return !valuations_.empty(); }
  const BitVec& valuation(StateId s) const { return valuations_[s.value()]; }

  const std::string& state_name(StateId s) const { return state_names_[s.value()]; }

  /// States reachable from the initial state (BFS order).
  std::vector<StateId> reachable_states() const;

  /// Number of states reachable from the initial state.
  std::size_t num_reachable_states() const;

  /// Multi-line human-readable dump (for debugging and docs).
  std::string to_string() const;

 private:
  std::vector<Event> events_;
  std::vector<std::vector<Transition>> out_;
  std::vector<std::string> state_names_;
  std::vector<BitVec> valuations_;  // empty, or one per state
  std::vector<std::string> signal_names_;
  StateId initial_ = StateId::invalid();
};

}  // namespace rtv
