// Safety properties checked during reachability.
//
// All properties of the paper reduce to 1-step checks (its Section 3.2):
// state invariants (short-circuits), transition checks (persistency,
// ordering via monitor signals) and deadlock-freedom.  Properties observe
// the *raw* enabled set: timing refinements delay firings but never change
// enabling, so enabling-based checks are evaluated on the untimed relation.
// SafetyChecks turns that into one table per composition, which every
// engine reads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rtv/ts/compose.hpp"
#include "rtv/ts/transition_system.hpp"

namespace rtv {

struct PropertyContext {
  const TransitionSystem& ts;
  StateId state;
  /// The state's enabled events, sorted (the engines pass a span of the
  /// composition's event index).
  std::span<const EventId> raw_enabled;
};

class SafetyProperty {
 public:
  virtual ~SafetyProperty() = default;
  virtual std::string name() const = 0;

  /// Violation at a state; nullopt when the state is fine.
  virtual std::optional<std::string> check_state(const PropertyContext&) const {
    return std::nullopt;
  }

  /// Violation caused by firing `event` from the context state into
  /// `successor` (whose raw enabled set is provided).
  virtual std::optional<std::string> check_event(
      const PropertyContext&, EventId event, StateId successor,
      std::span<const EventId> successor_enabled) const {
    (void)event;
    (void)successor;
    (void)successor_enabled;
    return std::nullopt;
  }
};

/// Forbidden conjunction of signal literals, e.g. the strobe-switch
/// short-circuit  !Z & ACK  (invariant 1 of Section 5.1).
class InvariantProperty final : public SafetyProperty {
 public:
  struct Literal {
    std::string signal;
    bool value = true;
  };

  InvariantProperty(std::string name, std::vector<Literal> forbidden);

  std::string name() const override { return name_; }
  std::optional<std::string> check_state(const PropertyContext&) const override;

  /// The forbidden conjunction, for static analysis (rtv/lint): dangling
  /// signal references and contradictory literals are knowable without
  /// running any engine.
  const std::vector<Literal>& forbidden() const { return forbidden_; }

 private:
  std::string name_;
  std::vector<Literal> forbidden_;
};

/// The control circuit must never deadlock (the paper's encoding of
/// "every data item is acknowledged once and only once").
class DeadlockFreedom final : public SafetyProperty {
 public:
  std::string name() const override { return "deadlock-freedom"; }
  std::optional<std::string> check_state(const PropertyContext&) const override;
};

/// Persistency: an enabled non-input event must not be disabled by the
/// firing of another event (inertial-delay glitch freedom, Section 5.1).
class PersistencyProperty final : public SafetyProperty {
 public:
  /// Events whose labels are listed in `exempt` (e.g. environment pulses
  /// that may be withdrawn) are not required to be persistent; inputs are
  /// always exempt.
  explicit PersistencyProperty(std::vector<std::string> exempt = {});

  std::string name() const override { return "persistency"; }
  std::optional<std::string> check_event(
      const PropertyContext&, EventId event, StateId successor,
      std::span<const EventId> successor_enabled) const override;

  /// Exempt labels (sorted), for static analysis (rtv/lint): an exempt
  /// label no module declares is a dangling reference.
  const std::vector<std::string>& exempt() const { return exempt_; }

 private:
  std::vector<std::string> exempt_;
};

/// The safety checks of one composition: which property a base state or a
/// base transition violates, and what a refusal (a timed-fireable choke)
/// says.  The verdicts depend only on the untimed composition, so the
/// first violating property of each base state and base transition is
/// computed once and kept for the table's lifetime; a violation's message
/// is built only when a check hits.  The checks are const and may run
/// concurrently: the memo is written through relaxed atomics, and two
/// threads racing on one entry store the same verdict.  `comp` and
/// `properties` are referenced, not copied, and must outlive the table.
class SafetyChecks {
 public:
  SafetyChecks(const Composition& comp,
               std::span<const SafetyProperty* const> properties);

  /// Sorted base-enabled events of `s`.
  std::span<const EventId> enabled(StateId s) const {
    return comp_->index().enabled(s);
  }
  /// Chokes at base state `s`.
  std::span<const ChokeRecord> chokes_at(StateId s) const {
    return comp_->index().chokes_at(s);
  }
  /// Message of the first property `s` violates.
  std::optional<std::string> state_violation(StateId s) const {
    if (clean(state_verdict_[s.value()])) return std::nullopt;
    return first_state_violation(s);
  }
  /// Message of the first property base transition `k` of `s` violates.
  std::optional<std::string> event_violation(StateId s, std::size_t k) const {
    if (clean(event_verdict_[transition_offset_[s.value()] + k]))
      return std::nullopt;
    return first_event_violation(s, k);
  }
  /// Message of a choke that can fire: the listener refuses the output.
  std::string refusal(const ChokeRecord& c) const;

 private:
  static constexpr std::int32_t kUnchecked = -2;
  static constexpr std::int32_t kClean = -1;

  /// Inline because the engines' hot loops mostly meet memoised clean
  /// verdicts; the out-of-line first_*_violation() fill the memo.
  static bool clean(std::int32_t& verdict) {
    return std::atomic_ref<std::int32_t>(verdict).load(
               std::memory_order_relaxed) == kClean;
  }
  std::optional<std::string> first_state_violation(StateId s) const;
  std::optional<std::string> first_event_violation(StateId s,
                                                   std::size_t k) const;
  template <typename Check>
  std::optional<std::string> first_violation(std::int32_t& slot,
                                             const Check& check) const;

  const Composition* comp_;
  std::span<const SafetyProperty* const> properties_;
  /// First violating property index, or "clean" / "unchecked" (negative):
  /// per base state, and per base transition (CSR over transition_offset_).
  mutable std::vector<std::int32_t> state_verdict_;
  std::vector<std::size_t> transition_offset_;
  mutable std::vector<std::int32_t> event_verdict_;
};

}  // namespace rtv
