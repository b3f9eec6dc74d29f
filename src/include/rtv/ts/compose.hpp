// Parallel composition of modules.
//
// Modules synchronise CSP-style on shared event labels: a label fires in the
// composition iff every module having that label in its alphabet can fire
// it.  The composed event's delay interval is the intersection of the
// participants' intervals (monitors contribute [0, inf), i.e. nothing).
//
// For refinement ("diamond") checks the composition can additionally track
// "chokes": composed states where a module is ready to *produce* an output
// but another participant that listens to it cannot accept it.  A choke is
// exactly a language-containment violation of the producer against the
// listener.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "rtv/ts/module.hpp"

namespace rtv {

struct ChokeRecord {
  StateId state;        ///< composed state where the choke occurs
  EventId event;        ///< composed event that is refused
  std::size_t producer; ///< index of the module producing the event
  std::size_t blocker;  ///< index of the module refusing it
};

/// A composition's per-state event index, in CSR form: each state's
/// chokes, its enabled events (sorted, each once, as
/// TransitionSystem::enabled_events() returns them) and its pseudo-enabled
/// events (the enabled ones plus its choked outputs, sorted).  A refused
/// output is enabled in the implementation even though the composition has
/// no transition for it, so the timed engines keep a clock (an age, a gap)
/// for it too.  compose() builds one per composition and every engine
/// reads it.
class ChokeIndex {
 public:
  ChokeIndex() = default;
  ChokeIndex(const TransitionSystem& ts, std::span<const ChokeRecord> chokes);

  /// The chokes at `s`, in composition order.
  std::span<const ChokeRecord> chokes_at(StateId s) const {
    return slice(chokes_, choke_offset_, s);
  }

  /// The enabled events of `s`, sorted, each once.
  std::span<const EventId> enabled(StateId s) const {
    return slice(enabled_, enabled_offset_, s);
  }

  /// The enabled events of `s` plus its choked outputs, sorted, each once.
  std::span<const EventId> pseudo_enabled(StateId s) const {
    return slice(pseudo_, pseudo_offset_, s);
  }

 private:
  template <typename T>
  static std::span<const T> slice(const std::vector<T>& items,
                                  const std::vector<std::size_t>& offset,
                                  StateId s) {
    return std::span<const T>(items).subspan(
        offset[s.value()], offset[s.value() + 1] - offset[s.value()]);
  }

  /// State s owns items[offset[s] .. offset[s + 1]) of each pair.
  std::vector<ChokeRecord> chokes_;
  std::vector<std::size_t> choke_offset_;
  std::vector<EventId> enabled_;
  std::vector<std::size_t> enabled_offset_;
  std::vector<EventId> pseudo_;
  std::vector<std::size_t> pseudo_offset_;
};

struct ComposeOptions {
  bool track_chokes = false;
  /// Hard ceiling on composed states, enforced at insertion: the result
  /// never holds more than max_states states (the initial state is always
  /// admitted); a rejected insertion truncates the composition.  A
  /// truncated result keeps exactly the states, transitions and chokes
  /// the sequential exploration found before that insertion.
  std::size_t max_states = 2'000'000;
  /// Worker threads for the product BFS (0 = one per hardware thread,
  /// 1 = sequential).  The result is bit-identical for every job count:
  /// state numbering, transition order and choke order all match the
  /// sequential exploration.
  std::size_t jobs = 1;
  /// Optional cooperative stop hook, polled once per expanded composed
  /// state with the current state count.  A non-null return aborts the
  /// composition (truncated, with that reason) — the verification engines
  /// hook their wall-clock deadline / cancellation checks in here.
  std::function<const char*(std::size_t)> stop;
};

struct Composition {
  TransitionSystem ts;
  std::vector<std::string> module_names;
  std::vector<ChokeRecord> chokes;
  bool truncated = false;
  /// Why composition stopped early (static storage); null when not
  /// truncated or truncated by the state cap.
  const char* truncated_reason = nullptr;

  /// The per-state event index of `ts` and `chokes`, built by compose():
  /// the engines read enabled sets, pseudo-enabled sets and chokes here
  /// instead of rebuilding them.  Editing `ts` or `chokes` afterwards
  /// leaves it stale.
  const ChokeIndex& index() const { return index_; }

  /// The component states of composed state `s`, one per module in
  /// module_names order.  Points into the composition.
  std::span<const StateId> tuple(StateId s) const {
    const std::size_t n = module_names.size();
    return {tuples_.data() + s.value() * n, n};
  }

  /// Component-state tuple rendering for diagnostics.
  std::string describe_state(StateId s) const;

 private:
  friend Composition compose(const std::vector<const Module*>& modules,
                             const ComposeOptions& options);

  /// Every state's tuple, packed back to back in state order.
  std::vector<StateId> tuples_;
  ChokeIndex index_;
};

/// Compose modules over their shared alphabets.  The result's initial state
/// is the tuple of component initial states; only reachable product states
/// are materialised.
///
/// Throws std::invalid_argument when two modules declare contradictory
/// delay bounds for the same label (an empty intersection would silently
/// make the event unfireable); the message names the label and every
/// participating module with its interval.
Composition compose(const std::vector<const Module*>& modules,
                    const ComposeOptions& options = {});

}  // namespace rtv
