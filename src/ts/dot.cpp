#include "rtv/ts/dot.hpp"

#include <algorithm>
#include <sstream>

namespace rtv {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string to_dot(const TransitionSystem& ts, const DotOptions& options) {
  std::ostringstream os;
  os << "digraph ts {\n  rankdir=LR;\n  node [shape=circle];\n";

  std::vector<StateId> order = ts.reachable_states();
  if (options.max_states > 0 && order.size() > options.max_states)
    order.resize(options.max_states);
  std::vector<bool> emitted(ts.num_states(), false);
  for (StateId s : order) emitted[s.value()] = true;

  for (StateId s : order) {
    os << "  s" << s.value() << " [label=\"";
    if (options.show_state_names && !ts.state_name(s).empty()) {
      os << escape(ts.state_name(s));
    } else {
      os << "s" << s.value();
    }
    os << "\"";
    if (ts.initial() == s) os << ", penwidth=2";
    if (std::find(options.highlight.begin(), options.highlight.end(), s) !=
        options.highlight.end()) {
      os << ", style=filled, fillcolor=lightgray";
    }
    os << "];\n";
  }
  for (StateId s : order) {
    for (const Transition& t : ts.transitions_from(s)) {
      if (!emitted[t.target.value()]) continue;
      os << "  s" << s.value() << " -> s" << t.target.value() << " [label=\""
         << escape(ts.label(t.event)) << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const Netlist& netlist) {
  std::ostringstream os;
  os << "digraph netlist {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < netlist.num_nodes(); ++i) {
    const NodeId n(static_cast<NodeId::underlying_type>(i));
    os << "  n" << i << " [label=\"" << netlist.node_name(n) << "\"";
    if (netlist.is_input(n)) os << ", style=dashed";
    if (netlist.is_boundary(n)) os << ", penwidth=2";
    os << "];\n";
  }
  std::size_t stack_idx = 0;
  for (const Stack& s : netlist.stacks()) {
    const char* kind = s.type == StackType::kPullUp
                           ? "up"
                           : (s.type == StackType::kPullDown ? "down" : "pass");
    for (NodeId g : netlist.exprs().support(s.guard)) {
      os << "  n" << g.value() << " -> n" << s.target.value() << " [label=\""
         << kind << " " << s.delay.to_string() << "\"";
      if (s.weak) os << ", style=dotted";
      os << "];\n";
    }
    if (s.type == StackType::kPass) {
      os << "  n" << s.source.value() << " -> n" << s.target.value()
         << " [label=\"src\", style=bold];\n";
    }
    ++stack_idx;
  }
  (void)stack_idx;
  os << "}\n";
  return os.str();
}

}  // namespace rtv
