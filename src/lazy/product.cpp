#include "rtv/base/log.hpp"
#include "rtv/lazy/refined_graph.hpp"

namespace rtv {

MaterializedLazyTs materialize(const RefinedSystem& sys, std::size_t max_states) {
  MaterializedLazyTs out;
  const TransitionSystem& base = sys.base();

  // Copy the event table so refined EventIds equal base EventIds.
  for (std::size_t i = 0; i < base.num_events(); ++i) {
    const Event& e = base.event(EventId(static_cast<EventId::underlying_type>(i)));
    out.ts.add_event(e.label, e.delay, e.kind);
  }

  // Graph ids are handed out in BFS order, so they double as the refined
  // StateIds and the expansion queue.
  RefinedGraph graph(sys);
  auto add_state = [&](std::int32_t id) {
    const StateId b = graph.base_state(id);
    const StateId s = out.ts.add_state(base.state_name(b));
    out.base_state.push_back(b);
    if (base.has_valuations()) {
      if (out.ts.signal_names().empty())
        out.ts.set_signal_names(base.signal_names());
      out.ts.set_state_valuation(s, base.valuation(b));
    }
    return s;
  };

  out.ts.set_initial(add_state(graph.initial()));

  for (std::int32_t id = 0; static_cast<std::size_t>(id) < graph.size(); ++id) {
    if (graph.size() > max_states) {
      out.truncated = true;
      RTV_WARN << "lazy materialisation truncated at " << graph.size();
      break;
    }
    const StateId from(static_cast<StateId::underlying_type>(id));
    const auto transitions = base.transitions_from(graph.base_state(id));
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      if (graph.blocked(id, transitions[k].event)) {
        ++out.blocked_firings;
        continue;
      }
      const auto [to, fresh] = graph.successor(id, k);
      if (fresh) add_state(to);
      out.ts.add_transition(from, transitions[k].event,
                            StateId(static_cast<StateId::underlying_type>(to)));
    }
  }
  return out;
}

}  // namespace rtv
