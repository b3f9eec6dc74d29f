// A Module is a transition system with an interface: each event label is an
// input, an output, or internal.  Modules are the unit of parallel
// composition and of assume-guarantee reasoning.
#pragma once

#include <string>
#include <vector>

#include "rtv/ts/transition_system.hpp"

namespace rtv {

class Module {
 public:
  Module() = default;
  Module(std::string name, TransitionSystem ts)
      : name_(std::move(name)), ts_(std::move(ts)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  TransitionSystem& ts() { return ts_; }
  const TransitionSystem& ts() const { return ts_; }

  /// Labels this module synchronises on (its whole alphabet).
  std::vector<std::string> alphabet() const;

  /// Kind of the event with this label; kInternal if absent.
  EventKind kind_of(const std::string& label) const;

  /// Marks every event of this module as input (useful when re-using a
  /// specification STG as a passive monitor).
  Module as_monitor(const std::string& new_name) const;

  /// Mirror: inputs become outputs and vice versa (environment construction
  /// from a specification, as the paper does for IN and OUT).
  Module mirrored(const std::string& new_name) const;

 private:
  std::string name_;
  TransitionSystem ts_;
};

}  // namespace rtv
