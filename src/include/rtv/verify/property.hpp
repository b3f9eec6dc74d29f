// Safety properties checked during reachability.
//
// All properties of the paper reduce to 1-step checks (its Section 3.2):
// state invariants (short-circuits), transition checks (persistency,
// ordering via monitor signals) and deadlock-freedom.  Properties observe
// the *raw* enabled set: timing refinements delay firings but never change
// enabling, so enabling-based checks are evaluated on the untimed relation.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

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

}  // namespace rtv
