// Builders for the gallery of small systems (see rtv/ts/gallery.hpp).
#include "rtv/ts/gallery.hpp"

#include <cassert>

namespace rtv::gallery {

Module intro_example() {
  TransitionSystem ts;
  // Events and delays (Fig. 1(b) spirit).
  const EventId a = ts.add_event("a", DelayInterval::units(2.5, 3), EventKind::kInternal);
  const EventId b = ts.add_event("b", DelayInterval::units(1, 2), EventKind::kInternal);
  const EventId c = ts.add_event("c", DelayInterval::units(1, 2), EventKind::kInternal);
  const EventId g = ts.add_event("g", DelayInterval::units(0.5, 0.5), EventKind::kInternal);
  const EventId d = ts.add_event("d", DelayInterval::unbounded(), EventKind::kInternal);

  // State space: product of progress {a-chain: 0(a pending),1(c pending),
  // 2(d pending),3(done)} x {b-chain: 0(b pending),1(g pending),2(done)}.
  StateId states[4][2 + 1];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j)
      states[i][j] = ts.add_state(std::string("a") + std::to_string(i) + "b" +
                                  std::to_string(j));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == 0) ts.add_transition(states[i][j], a, states[1][j]);
      if (i == 1) ts.add_transition(states[i][j], c, states[2][j]);
      if (i == 2) ts.add_transition(states[i][j], d, states[3][j]);
      if (j == 0) ts.add_transition(states[i][j], b, states[i][1]);
      if (j == 1) ts.add_transition(states[i][j], g, states[i][2]);
    }
  }
  ts.set_initial(states[0][0]);
  return Module("intro", std::move(ts));
}

Module order_monitor(const std::string& first, const std::string& then,
                     const std::string& fail_signal) {
  TransitionSystem ts;
  const EventId ef = ts.add_event(first, DelayInterval::unbounded(), EventKind::kInput);
  const EventId et = ts.add_event(then, DelayInterval::unbounded(), EventKind::kInput);
  const StateId wait = ts.add_state("waiting-" + first);
  const StateId ok = ts.add_state("saw-" + first);
  const StateId fail = ts.add_state("FAIL");
  ts.add_transition(wait, ef, ok);
  ts.add_transition(wait, et, fail);
  ts.add_transition(ok, ef, ok);
  ts.add_transition(ok, et, ok);
  // The fail state is a trap: it accepts everything so that reaching it is
  // observable as an invariant violation rather than a choke.
  ts.add_transition(fail, ef, fail);
  ts.add_transition(fail, et, fail);
  ts.set_initial(wait);
  ts.set_signal_names({fail_signal});
  BitVec lo(1), hi(1);
  hi.set(0);
  ts.set_state_valuation(wait, lo);
  ts.set_state_valuation(ok, lo);
  ts.set_state_valuation(fail, hi);
  return Module("order(" + first + "<" + then + ")", std::move(ts));
}

Module chain(const std::vector<std::pair<std::string, DelayInterval>>& events) {
  TransitionSystem ts;
  StateId prev = ts.add_state("s0");
  ts.set_initial(prev);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventId e =
        ts.add_event(events[i].first, events[i].second, EventKind::kInternal);
    const StateId next =
        ts.add_state(std::string("s").append(std::to_string(i + 1)));
    ts.add_transition(prev, e, next);
    prev = next;
  }
  return Module("chain", std::move(ts));
}

Module ring(const std::vector<std::pair<std::string, DelayInterval>>& events) {
  TransitionSystem ts;
  assert(!events.empty());
  std::vector<StateId> states;
  for (std::size_t i = 0; i < events.size(); ++i)
    states.push_back(ts.add_state(std::string("r").append(std::to_string(i))));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EventId e =
        ts.add_event(events[i].first, events[i].second, EventKind::kInternal);
    ts.add_transition(states[i], e, states[(i + 1) % events.size()]);
  }
  ts.set_initial(states[0]);
  return Module("ring", std::move(ts));
}

Module fork_join(const std::string& a, DelayInterval a_delay,
                 const std::string& b, DelayInterval b_delay,
                 const std::string& c, DelayInterval c_delay) {
  TransitionSystem ts;
  const EventId ea = ts.add_event(a, a_delay, EventKind::kInternal);
  const EventId eb = ts.add_event(b, b_delay, EventKind::kInternal);
  const EventId ec = ts.add_event(c, c_delay, EventKind::kInternal);
  StateId s[2][2];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      s[i][j] = ts.add_state(std::string("f") + std::to_string(i) +
                             std::to_string(j));
  for (int j = 0; j < 2; ++j) ts.add_transition(s[0][j], ea, s[1][j]);
  for (int i = 0; i < 2; ++i) ts.add_transition(s[i][0], eb, s[i][1]);
  ts.add_transition(s[1][1], ec, s[0][0]);
  ts.set_initial(s[0][0]);
  return Module("fork_join", std::move(ts));
}

Module diamond(const std::string& x, DelayInterval x_delay,
               const std::string& y, DelayInterval y_delay) {
  TransitionSystem ts;
  const EventId ex = ts.add_event(x, x_delay, EventKind::kInternal);
  const EventId ey = ts.add_event(y, y_delay, EventKind::kInternal);
  const StateId s00 = ts.add_state("00");
  const StateId s10 = ts.add_state("10");
  const StateId s01 = ts.add_state("01");
  const StateId s11 = ts.add_state("11");
  ts.add_transition(s00, ex, s10);
  ts.add_transition(s00, ey, s01);
  ts.add_transition(s10, ey, s11);
  ts.add_transition(s01, ex, s11);
  ts.set_initial(s00);
  return Module("diamond", std::move(ts));
}

Module scaled_race(int k) {
  TransitionSystem ts;
  const double s = k;
  const EventId a = ts.add_event("a", DelayInterval::units(1 * s, 2 * s));
  const EventId b = ts.add_event("b", DelayInterval::units(1 * s, 3 * s));
  const EventId c = ts.add_event("c", DelayInterval::units(2 * s, 3 * s));
  StateId grid[2][2][2];
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      for (int l = 0; l < 2; ++l) grid[i][j][l] = ts.add_state();
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j)
      for (int l = 0; l < 2; ++l) {
        if (!i) ts.add_transition(grid[i][j][l], a, grid[1][j][l]);
        if (!j) ts.add_transition(grid[i][j][l], b, grid[i][1][l]);
        if (!l) ts.add_transition(grid[i][j][l], c, grid[i][j][1]);
      }
  ts.set_initial(grid[0][0][0]);
  return Module("race3", std::move(ts));
}

}  // namespace rtv::gallery
