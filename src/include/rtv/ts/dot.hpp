// Graphviz (DOT) export of transition systems and transistor netlists, for
// documentation and debugging (the state graphs of Fig. 1 and the stage of
// Fig. 11 are DOT-able views of these structures).
#pragma once

#include <string>

#include "rtv/circuit/netlist.hpp"
#include "rtv/ts/transition_system.hpp"

namespace rtv {

struct DotOptions {
  bool show_state_names = true;
  /// Limit on emitted states (BFS order); 0 = no limit.
  std::size_t max_states = 0;
  /// Highlight these states (filled).
  std::vector<StateId> highlight;
};

/// DOT digraph of the reachable part of a transition system.
std::string to_dot(const TransitionSystem& ts, const DotOptions& options = {});

/// DOT digraph of a transistor netlist (the Fig. 11 structural view):
/// boxes = nodes (inputs dashed, boundary outputs bold), one edge per
/// transistor stack from each gate signal to the driven node, labelled
/// with the stack type and delay; weak stacks dotted.
std::string to_dot(const Netlist& netlist);

}  // namespace rtv
