#include "rtv/ts/compose.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rtv/base/log.hpp"
#include "rtv/base/open_table.hpp"
#include "rtv/base/parallel.hpp"
#include "rtv/ts/delay_bounds.hpp"

namespace rtv {

namespace {

constexpr std::uint32_t kNoSuccessor =
    std::numeric_limits<std::uint32_t>::max();

/// One module taking part in a composed label.  `column` points at the
/// label's local event in the module's successor table, so the successor
/// of local state q is column[q * stride].
struct Participant {
  std::size_t module;
  const std::uint32_t* column;
  std::size_t stride;
  bool output;
};

/// Dense successor table of one module: entry (state * num_events + event)
/// is the target of the *first* transition on `event` from `state`, as
/// TransitionSystem::successor() returns it, or kNoSuccessor.
std::vector<std::uint32_t> successor_table(const TransitionSystem& ts) {
  const std::size_t ne = ts.num_events();
  std::vector<std::uint32_t> table(ts.num_states() * ne, kNoSuccessor);
  for (std::size_t q = 0; q < ts.num_states(); ++q) {
    std::uint32_t* row = table.data() + q * ne;
    for (const Transition& t :
         ts.transitions_from(StateId(static_cast<StateId::underlying_type>(q))))
      if (row[t.event.value()] == kNoSuccessor)
        row[t.event.value()] = t.target.value();
  }
  return table;
}

/// One product transition discovered during a layer's expansion.  A target
/// interned before the layer started is `known`; otherwise the target is
/// the chunk's next fresh tuple (fresh tuples are kept in edge order).
struct PendingEdge {
  std::uint32_t src;    ///< index into the current frontier
  std::uint32_t label;  ///< composed label index
  StateId known;
};

/// Per-chunk expansion output; merged in chunk-ordinal order, which equals
/// (frontier order, label order) — exactly the sequential exploration
/// order, so the composed system is bit-identical for every job count.
/// Padded to a cache line, so workers filling adjacent buckets do not
/// share one.
struct alignas(64) ChunkOut {
  std::vector<PendingEdge> edges;
  std::vector<ChokeRecord> chokes;
  /// The fresh targets: their tuples back to back, and per tuple its hash.
  std::vector<StateId> tuples;
  std::vector<std::size_t> hashes;
};

/// Sort events[first..] and drop its duplicates.
void sort_unique_tail(std::vector<EventId>& events, std::size_t first) {
  const auto begin = events.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, events.end());
  events.erase(std::unique(begin, events.end()), events.end());
}

}  // namespace

ChokeIndex::ChokeIndex(const TransitionSystem& ts,
                       std::span<const ChokeRecord> chokes)
    : chokes_(chokes.begin(), chokes.end()) {
  const std::size_t n = ts.num_states();
  std::stable_sort(chokes_.begin(), chokes_.end(),
                   [](const ChokeRecord& a, const ChokeRecord& b) {
                     return a.state < b.state;
                   });
  choke_offset_.assign(n + 1, 0);
  for (const ChokeRecord& c : chokes_) ++choke_offset_[c.state.value() + 1];
  for (std::size_t i = 0; i < n; ++i) choke_offset_[i + 1] += choke_offset_[i];

  enabled_offset_.reserve(n + 1);
  enabled_offset_.push_back(0);
  pseudo_offset_.reserve(n + 1);
  pseudo_offset_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    const StateId s(static_cast<StateId::underlying_type>(i));
    const std::size_t first = enabled_.size();
    for (const Transition& t : ts.transitions_from(s)) enabled_.push_back(t.event);
    sort_unique_tail(enabled_, first);
    enabled_offset_.push_back(enabled_.size());

    const std::size_t pseudo_first = pseudo_.size();
    pseudo_.insert(pseudo_.end(), enabled_.begin() + first, enabled_.end());
    for (const ChokeRecord& c : chokes_at(s)) pseudo_.push_back(c.event);
    sort_unique_tail(pseudo_, pseudo_first);
    pseudo_offset_.push_back(pseudo_.size());
  }
}

std::string Composition::describe_state(StateId s) const {
  std::ostringstream os;
  os << "(";
  const auto states = tuple(s);
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (i) os << ", ";
    os << module_names[i] << ":" << states[i].value();
  }
  os << ")";
  return os.str();
}

Composition compose(const std::vector<const Module*>& modules,
                    const ComposeOptions& options) {
  assert(!modules.empty());
  Composition out;
  for (const Module* m : modules) out.module_names.push_back(m->name());

  // ---- build the composed alphabet --------------------------------------
  std::vector<std::string> labels;
  for (const Module* m : modules)
    for (const std::string& l : m->alphabet()) labels.push_back(l);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

  const std::size_t n_mod = modules.size();
  std::vector<std::vector<std::uint32_t>> successors(n_mod);
  for (std::size_t mi = 0; mi < n_mod; ++mi)
    successors[mi] = successor_table(modules[mi]->ts());

  // Per label: its participants in module order, parts[first[li]] up to
  // parts[first[li + 1]].
  std::vector<Participant> parts;
  std::vector<std::size_t> first{0};
  std::vector<EventId> composed_event(labels.size());
  for (std::size_t li = 0; li < labels.size(); ++li) {
    DelayInterval delay = DelayInterval::unbounded();
    EventKind kind = EventKind::kInternal;
    bool any_output = false, any_input = false;
    for (std::size_t mi = 0; mi < n_mod; ++mi) {
      const TransitionSystem& mts = modules[mi]->ts();
      const EventId le = mts.event_by_label(labels[li]);
      if (!le.valid()) continue;  // module does not participate
      const Event& ev = mts.event(le);
      delay = delay.intersect(ev.delay);
      if (ev.kind == EventKind::kOutput) any_output = true;
      if (ev.kind == EventKind::kInput) any_input = true;
      parts.push_back(Participant{mi, successors[mi].data() + le.value(),
                                  mts.num_events(),
                                  ev.kind == EventKind::kOutput});
    }
    if (!delay.valid()) {
      // An empty intersection would leave the event forever unfireable —
      // a modelling contradiction, not a composable system.  Fail loudly
      // with every participant's bounds instead of exploring a system
      // whose semantics nobody intended.  The message is built by the
      // same formatter the lint analyzer uses (RTV-L004), so the two can
      // never drift.
      DelayContradiction c;
      c.label = labels[li];
      for (std::size_t k = first.back(); k < parts.size(); ++k) {
        const Module& m = *modules[parts[k].module];
        c.participants.emplace_back(
            m.name(), m.ts().delay(m.ts().event_by_label(labels[li])));
      }
      throw std::invalid_argument(describe_delay_contradiction(c));
    }
    if (any_output) {
      kind = EventKind::kOutput;
    } else if (any_input) {
      kind = EventKind::kInput;
    }
    composed_event[li] = out.ts.add_event(labels[li], delay, kind);
    first.push_back(parts.size());
  }

  // ---- label masks -------------------------------------------------------
  //
  // Bitsets over the labels, `words` 64-bit words each: per module the
  // labels it takes part in (`takes`) and those it outputs (`outputs`),
  // and per module and local state the labels it can take there (`can`,
  // module mi's states from can_first[mi] on).  A composed state's labels
  // that fire are the AND over modules of (can | ~takes); when chokes are
  // tracked, the OR over modules of (can & outputs) adds the labels some
  // ready producer offers.  No other label fires or chokes, so only these
  // candidates run the participant scan.
  const std::size_t words = (labels.size() + 63) / 64;
  const std::uint64_t last_word =
      labels.size() % 64 ? (std::uint64_t{1} << (labels.size() % 64)) - 1
                         : ~std::uint64_t{0};
  std::vector<std::uint64_t> takes(n_mod * words, 0);
  std::vector<std::uint64_t> outputs(n_mod * words, 0);
  std::vector<std::size_t> can_first(n_mod + 1, 0);
  for (std::size_t mi = 0; mi < n_mod; ++mi)
    can_first[mi + 1] =
        can_first[mi] + modules[mi]->ts().num_states() * words;
  std::vector<std::uint64_t> can(can_first[n_mod], 0);
  for (std::size_t li = 0; li + 1 < first.size(); ++li) {
    const std::uint64_t bit = std::uint64_t{1} << (li % 64);
    for (std::size_t k = first[li]; k < first[li + 1]; ++k) {
      const Participant& p = parts[k];
      takes[p.module * words + li / 64] |= bit;
      if (p.output) outputs[p.module * words + li / 64] |= bit;
      const std::size_t states = modules[p.module]->ts().num_states();
      for (std::size_t q = 0; q < states; ++q)
        if (p.column[q * p.stride] != kNoSuccessor)
          can[can_first[p.module] + q * words + li / 64] |= bit;
    }
  }

  // ---- merged signal table -----------------------------------------------
  std::vector<std::string> signals;
  for (const Module* m : modules)
    for (const std::string& s : m->ts().signal_names()) signals.push_back(s);
  std::sort(signals.begin(), signals.end());
  signals.erase(std::unique(signals.begin(), signals.end()), signals.end());
  const bool with_valuations = !signals.empty();
  if (with_valuations) out.ts.set_signal_names(signals);

  // Per module and local state its valuation lifted into the composed
  // signal space, so a composed state's valuation is the OR over modules.
  std::vector<std::vector<BitVec>> lifted(n_mod);
  if (with_valuations) {
    for (std::size_t mi = 0; mi < n_mod; ++mi) {
      const TransitionSystem& mts = modules[mi]->ts();
      if (!mts.has_valuations()) continue;
      const auto& names = mts.signal_names();
      std::vector<std::size_t> sig_map(names.size());
      for (std::size_t k = 0; k < names.size(); ++k)
        sig_map[k] = static_cast<std::size_t>(
            std::lower_bound(signals.begin(), signals.end(), names[k]) -
            signals.begin());
      lifted[mi].reserve(mts.num_states());
      for (std::size_t q = 0; q < mts.num_states(); ++q) {
        const BitVec& lv =
            mts.valuation(StateId(static_cast<StateId::underlying_type>(q)));
        BitVec v(signals.size());
        // Every state is lifted, reachable or not: read only the bits the
        // valuation has (a state whose valuation was never set has none).
        lv.for_each_set([&](std::size_t k) {
          if (k < sig_map.size()) v.set(sig_map[k]);
        });
        lifted[mi].push_back(std::move(v));
      }
    }
  }

  auto merged_valuation = [&](const StateId* tuple) {
    BitVec v(signals.size());
    for (std::size_t mi = 0; mi < n_mod; ++mi)
      if (!lifted[mi].empty()) v |= lifted[mi][tuple[mi].value()];
    return v;
  };

  // ---- reachable product exploration -------------------------------------
  //
  // Layer-synchronous parallel BFS (rtv/base/parallel.hpp): workers expand
  // disjoint chunks of the current frontier into per-chunk buckets (probing
  // the tuple table read-only — it is written only between layers), then
  // the merge phase interns fresh tuples and appends transitions/chokes in
  // chunk order.  That order equals the sequential (frontier, label) order,
  // so the composition is identical for every job count.
  using Table = RecordTable<StateId>;
  Table table;  ///< composed state ids, numbered as out.ts's states
  std::vector<StateId> frontier, next_frontier;
  bool truncated_budget = false;

  // Append a new composed state for `tuple`, which probe `p` did not find.
  const auto admit = [&](const StateId* tuple, std::size_t h, Table::Probe p) {
    const StateId s = out.ts.add_state();
    if (with_valuations) out.ts.set_state_valuation(s, merged_valuation(tuple));
    table.insert(p, tuple, n_mod, h);
    next_frontier.push_back(s);
    return s;
  };

  const auto intern = [&](const StateId* tuple,
                          std::size_t h) -> std::optional<StateId> {
    const Table::Probe p = table.probe(tuple, n_mod, h);
    if (p.id >= 0) return StateId(static_cast<StateId::underlying_type>(p.id));
    if (out.ts.num_states() >= options.max_states) {
      truncated_budget = true;
      return std::nullopt;
    }
    return admit(tuple, h, p);
  };

  {
    std::vector<StateId> init_tuple;
    for (const Module* m : modules) {
      assert(m->ts().initial().valid());
      init_tuple.push_back(m->ts().initial());
    }
    // The initial state bypasses the cap: a composition without its initial
    // state is meaningless.  A zero budget still yields it, truncated.
    const std::size_t h = Table::hash(init_tuple.data(), n_mod);
    const StateId s0 =
        admit(init_tuple.data(), h, table.probe(init_tuple.data(), n_mod, h));
    out.ts.set_initial(s0);
    if (out.ts.num_states() > options.max_states) truncated_budget = true;
  }

  const std::size_t jobs = resolve_jobs(options.jobs);
  LayeredRunner runner(jobs);
  std::vector<ChunkOut> buckets;
  // One scratch tuple per worker: the expanded state's tuple with the
  // current label's participants stepped.
  std::vector<std::vector<StateId>> scratch(jobs, std::vector<StateId>(n_mod));
  // And one candidate-label bitset per worker.
  std::vector<std::vector<std::uint64_t>> candidates(
      jobs, std::vector<std::uint64_t>(words));
  // Cooperative stop, set by worker 0 from the caller's stop hook (which is
  // not thread-safe; only worker 0 ever polls it).
  std::atomic<const char*> stop_flag{nullptr};

  const auto process = [&](std::size_t worker, LayeredRunner::Chunk chunk) {
    if (stop_flag.load(std::memory_order_relaxed)) return;
    StateId* next = scratch[worker].data();
    std::uint64_t* cand = candidates[worker].data();
    ChunkOut& bucket = buckets[chunk.ordinal];
    for (std::size_t i = chunk.begin; i != chunk.end; ++i) {
      if (worker == 0 && options.stop) {
        if (const char* reason = options.stop(out.ts.num_states())) {
          stop_flag.store(reason, std::memory_order_relaxed);
          return;
        }
      }
      const StateId s = frontier[i];
      const StateId* tuple =
          table.record(static_cast<std::int32_t>(s.value())).data();
      std::copy(tuple, tuple + n_mod, next);
      std::fill(cand, cand + words, ~std::uint64_t{0});
      if (words) cand[words - 1] = last_word;
      for (std::size_t mi = 0; mi < n_mod; ++mi) {
        const std::uint64_t* c =
            can.data() + can_first[mi] + tuple[mi].value() * words;
        const std::uint64_t* t = takes.data() + mi * words;
        for (std::size_t w = 0; w < words; ++w) cand[w] &= c[w] | ~t[w];
      }
      if (options.track_chokes) {
        for (std::size_t mi = 0; mi < n_mod; ++mi) {
          const std::uint64_t* c =
              can.data() + can_first[mi] + tuple[mi].value() * words;
          const std::uint64_t* o = outputs.data() + mi * words;
          for (std::size_t w = 0; w < words; ++w) cand[w] |= c[w] & o[w];
        }
      }
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = cand[w]; bits; bits &= bits - 1) {
          const std::size_t li =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          const Participant* begin = parts.data() + first[li];
          const Participant* end = parts.data() + first[li + 1];
          // The label fires iff no participant blocks it, produced or not:
          // a label nobody outputs is driven by the implicit environment
          // (open-system semantics).  A choke names the first blocker and
          // the last ready producer, so only chokes scan past a blocker.
          std::size_t producer = n_mod, blocker = n_mod;
          for (const Participant* p = begin; p != end; ++p) {
            const std::uint32_t t =
                p->column[tuple[p->module].value() * p->stride];
            if (t == kNoSuccessor) {
              if (blocker == n_mod) blocker = p->module;
              if (!options.track_chokes) break;
            } else {
              next[p->module] = StateId(t);
              if (p->output) producer = p->module;
            }
          }
          if (blocker == n_mod) {
            const std::size_t h = Table::hash(next, n_mod);
            const std::int32_t known = table.find(next, n_mod, h);
            PendingEdge edge{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(li),
                             StateId::invalid()};
            if (known >= 0) {
              edge.known =
                  StateId(static_cast<StateId::underlying_type>(known));
            } else {
              bucket.tuples.insert(bucket.tuples.end(), next, next + n_mod);
              bucket.hashes.push_back(h);
            }
            bucket.edges.push_back(edge);
          } else if (options.track_chokes && producer != n_mod) {
            bucket.chokes.push_back(
                ChokeRecord{s, composed_event[li], producer, blocker});
          }
          for (const Participant* p = begin; p != end; ++p)
            next[p->module] = tuple[p->module];
        }
      }
    }
  };

  // Returns the next layer's width, 0 when the exploration ends.
  const auto merge = [&]() -> std::size_t {
    if (const char* reason = stop_flag.load(std::memory_order_relaxed)) {
      out.truncated = true;
      out.truncated_reason = reason;
      RTV_WARN << "composition stopped: " << reason;
      return 0;
    }
    for (ChunkOut& bucket : buckets) {
      std::size_t fresh = 0;
      for (std::size_t ei = 0; ei < bucket.edges.size(); ++ei) {
        const PendingEdge& edge = bucket.edges[ei];
        // A source's edges are contiguous: reserve them all at its first.
        if (ei == 0 || bucket.edges[ei - 1].src != edge.src) {
          std::size_t run = ei + 1;
          while (run < bucket.edges.size() && bucket.edges[run].src == edge.src)
            ++run;
          out.ts.reserve_transitions(frontier[edge.src], run - ei);
        }
        StateId target = edge.known;
        if (!target.valid()) {
          const auto interned = intern(bucket.tuples.data() + fresh * n_mod,
                                       bucket.hashes[fresh]);
          ++fresh;
          if (!interned) {
            // Budget ceiling: stop adding outright, keeping the chunk's
            // chokes that precede this edge in (state, label) order.
            const auto cut = std::pair(frontier[edge.src].value(),
                                       composed_event[edge.label].value());
            out.chokes.insert(
                out.chokes.end(), bucket.chokes.begin(),
                std::partition_point(
                    bucket.chokes.begin(), bucket.chokes.end(),
                    [&](const ChokeRecord& c) {
                      return std::pair(c.state.value(), c.event.value()) < cut;
                    }));
            break;
          }
          target = *interned;
        }
        out.ts.add_transition(frontier[edge.src], composed_event[edge.label],
                              target);
      }
      if (truncated_budget) break;
      out.chokes.insert(out.chokes.end(), bucket.chokes.begin(),
                        bucket.chokes.end());
    }
    if (truncated_budget) {
      out.truncated = true;
      RTV_WARN << "composition truncated at " << out.ts.num_states()
               << " states";
      return 0;
    }
    frontier = std::move(next_frontier);
    next_frontier.clear();
    buckets.clear();
    buckets.resize(runner.num_chunks(frontier.size()));
    return frontier.size();
  };

  // The first merge() call publishes the initial frontier (or reports the
  // degenerate zero-budget truncation) before any expansion work runs.
  {
    obs::Span span("compose", "rtv");
    runner.run(merge(), process, merge);
    out.tuples_ = table.release();
    out.index_ = ChokeIndex(out.ts, out.chokes);
  }

  if (obs::metrics_enabled()) {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("rtv_compose_states_total", "",
                "Composed product states across runs")
        .add(out.ts.num_states());
  }

  return out;
}

}  // namespace rtv
