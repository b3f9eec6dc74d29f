#include "rtv/circuit/elaborate.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "rtv/base/open_table.hpp"

namespace rtv {

namespace {

using Word = std::uint64_t;

Word bit(std::size_t i) { return Word{1} << (i & 63); }

/// The stacks' guards as sums of cubes over a valuation's words: a cube
/// holds when (v[k] & care[k]) == want[k] for every word k, a guard when
/// one of its cubes does.
class Guards {
 public:
  Guards(const Netlist& netlist, std::size_t words) : words_(words) {
    first_.push_back(0);
    for (const Stack& s : netlist.stacks()) {
      for (const auto& cube : netlist.exprs().cubes(s.guard)) {
        const std::size_t at = masks_.size();
        masks_.resize(at + 2 * words, 0);
        for (const ExprPool::Literal& l : cube) {
          const std::size_t i = l.node.value();
          masks_[at + i / 64] |= bit(i);
          if (l.value) masks_[at + words + i / 64] |= bit(i);
        }
        ++cubes_;
      }
      first_.push_back(cubes_);
    }
  }

  bool holds(std::size_t stack, const Word* v) const {
    for (std::size_t c = first_[stack]; c < first_[stack + 1]; ++c) {
      const Word* care = masks_.data() + 2 * words_ * c;
      const Word* want = care + words_;
      std::size_t k = 0;
      while (k < words_ && (v[k] & care[k]) == want[k]) ++k;
      if (k == words_) return true;
    }
    return false;
  }

 private:
  std::size_t words_;
  std::size_t cubes_ = 0;
  std::vector<std::size_t> first_;  ///< stack s owns cubes first_[s] .. first_[s + 1]
  std::vector<Word> masks_;         ///< per cube: care words, then want words
};

}  // namespace

Module elaborate(const Netlist& netlist, const CircuitElaborateOptions& options) {
  const std::size_t n_nodes = netlist.num_nodes();
  const std::vector<NodeId> sc_nodes = netlist.short_circuit_candidates();

  TransitionSystem ts;
  std::vector<std::string> signals;
  for (std::size_t i = 0; i < n_nodes; ++i)
    signals.push_back(netlist.node_name(NodeId(static_cast<NodeId::underlying_type>(i))));
  for (NodeId n : sc_nodes) signals.push_back("SC_" + netlist.node_name(n));
  const std::size_t n_signals = signals.size();
  ts.set_signal_names(std::move(signals));

  // Rise/fall events per node.  Delays are the union of the delays of the
  // stacks able to drive that direction (exact when one stack per
  // direction, which is the common case in the IPCMOS netlists).
  const std::size_t words = (n_nodes + 63) / 64;
  std::vector<EventId> rise(n_nodes), fall(n_nodes);
  std::vector<Word> inputs(words, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    const NodeId n(static_cast<NodeId::underlying_type>(i));
    const std::string& name = netlist.node_name(n);
    if (netlist.is_input(n)) inputs[i / 64] |= bit(i);
    const EventKind kind = netlist.is_input(n)
                               ? EventKind::kInput
                               : (netlist.is_boundary(n) ? EventKind::kOutput
                                                         : EventKind::kInternal);
    DelayInterval up_delay = DelayInterval::unbounded();
    DelayInterval down_delay = DelayInterval::unbounded();
    if (!netlist.is_input(n)) {
      Time up_lo = kTimeInfinity, up_hi = 0, down_lo = kTimeInfinity, down_hi = 0;
      for (const Stack* s : netlist.stacks_of(n)) {
        const bool can_up = s->type != StackType::kPullDown;
        const bool can_down = s->type != StackType::kPullUp;
        if (can_up) {
          up_lo = std::min(up_lo, s->delay.lo());
          up_hi = std::max(up_hi, s->delay.hi());
        }
        if (can_down) {
          down_lo = std::min(down_lo, s->delay.lo());
          down_hi = std::max(down_hi, s->delay.hi());
        }
      }
      if (up_lo <= up_hi) up_delay = DelayInterval(up_lo, up_hi);
      if (down_lo <= down_hi) down_delay = DelayInterval(down_lo, down_hi);
    }
    rise[i] = ts.add_event(transition_label(name, true), up_delay, kind);
    fall[i] = ts.add_event(transition_label(name, false), down_delay, kind);
  }

  // Every state's node valuation, `words` words each, interned in id order.
  RecordTable<Word> table;
  auto intern = [&](const Word* v) {
    const std::size_t h = RecordTable<Word>::hash(v, words);
    const auto p = table.probe(v, words, h);
    if (p.id >= 0) return StateId(static_cast<StateId::underlying_type>(p.id));
    table.insert(p, v, words, h);
    return ts.add_state();
  };

  std::vector<Word> cur(words, 0), next(words);
  for (std::size_t i = 0; i < n_nodes; ++i)
    if (netlist.initial_value(NodeId(static_cast<NodeId::underlying_type>(i))))
      cur[i / 64] |= bit(i);
  ts.set_initial(intern(cur.data()));

  // Per state, one pass over the stacks collects the active drives as
  // bitsets: strong/weak up and down.  Weak stacks yield to strong ones.
  const Guards guards(netlist, words);
  const std::vector<Stack>& stacks = netlist.stacks();
  std::vector<Word> strong_up(words), weak_up(words), strong_down(words),
      weak_down(words);
  std::vector<std::size_t> moves;  ///< nodes that can toggle, ascending

  // States are expanded in id order, which is the order a FIFO queue
  // would pop them in.
  for (std::size_t id = 0; id < table.size(); ++id) {
    if (table.size() > options.max_states)
      throw std::runtime_error("circuit '" + netlist.name() +
                               "': state budget exhausted");
    const auto rec = table.record(static_cast<std::int32_t>(id));
    std::copy(rec.begin(), rec.end(), cur.begin());
    std::fill(strong_up.begin(), strong_up.end(), 0);
    std::fill(weak_up.begin(), weak_up.end(), 0);
    std::fill(strong_down.begin(), strong_down.end(), 0);
    std::fill(weak_down.begin(), weak_down.end(), 0);
    for (std::size_t k = 0; k < stacks.size(); ++k) {
      const Stack& s = stacks[k];
      if (!guards.holds(k, cur.data())) continue;
      const std::size_t t = s.target.value();
      bool up = s.type == StackType::kPullUp;
      if (s.type == StackType::kPass) {
        const std::size_t src = s.source.value();
        up = cur[src / 64] & bit(src);
      }
      std::vector<Word>& drive =
          up ? (s.weak ? weak_up : strong_up) : (s.weak ? weak_down : strong_down);
      drive[t / 64] |= bit(t);
    }

    // The valuation: the node bits, then one short-circuit flag per
    // candidate, raised while strong drives contest the node.
    const StateId from(static_cast<StateId::underlying_type>(id));
    BitVec full(n_signals);
    moves.clear();
    for (std::size_t k = 0; k < words; ++k) {
      const Word up = strong_up[k] | (weak_up[k] & ~strong_down[k]);
      const Word down = strong_down[k] | (weak_down[k] & ~strong_up[k]);
      for (Word w = cur[k]; w; w &= w - 1)
        full.set(k * 64 + static_cast<std::size_t>(__builtin_ctzll(w)));
      // Inputs are receptive; other nodes move towards an uncontested drive.
      for (Word w = inputs[k] | (~cur[k] & up & ~down) | (cur[k] & down & ~up);
           w; w &= w - 1)
        moves.push_back(k * 64 + static_cast<std::size_t>(__builtin_ctzll(w)));
    }
    for (std::size_t k = 0; k < sc_nodes.size(); ++k) {
      const std::size_t n = sc_nodes[k].value();
      if (strong_up[n / 64] & strong_down[n / 64] & bit(n)) full.set(n_nodes + k);
    }
    ts.set_state_valuation(from, std::move(full));

    ts.reserve_transitions(from, moves.size());
    for (const std::size_t i : moves) {
      std::copy(cur.begin(), cur.end(), next.begin());
      next[i / 64] ^= bit(i);
      const bool value = cur[i / 64] & bit(i);
      ts.add_transition(from, value ? fall[i] : rise[i], intern(next.data()));
    }
  }

  return Module(netlist.name(), std::move(ts));
}

}  // namespace rtv
