#include "rtv/lazy/refined_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "engine_support.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/lazy/refined_graph.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/refinement.hpp"

namespace rtv {
namespace {

TEST(RefinedSystem, NoObserversMeansNoBlocking) {
  const Module m = gallery::intro_example();
  const ChokeIndex index(m.ts(), {});
  RefinedSystem rs(m.ts(), index);
  const RefinedState s = rs.initial();
  for (EventId e : m.ts().enabled_events(s.base)) {
    EXPECT_FALSE(rs.blocked(s, e));
  }
}

TEST(RefinedSystem, FromStartObserverBlocksExactSequence) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const EventId a = ts.event_by_label("a");
  const EventId c = ts.event_by_label("c");
  const EventId d = ts.event_by_label("d");

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {a, c, d};
  rs.add_observer(std::move(obs));

  RefinedState s = rs.initial();
  EXPECT_FALSE(rs.blocked(s, a));
  s = rs.advance(s, a);
  EXPECT_FALSE(rs.blocked(s, c));
  s = rs.advance(s, c);
  EXPECT_TRUE(rs.blocked(s, d));  // completing the window
}

TEST(RefinedSystem, DivergedRunIsNotBlocked) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const EventId a = ts.event_by_label("a");
  const EventId b = ts.event_by_label("b");
  const EventId c = ts.event_by_label("c");
  const EventId d = ts.event_by_label("d");

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {a, c, d};
  rs.add_observer(std::move(obs));

  // Firing b first diverges from the window: d stays allowed.
  RefinedState s = rs.initial();
  s = rs.advance(s, b);
  s = rs.advance(s, a);
  s = rs.advance(s, c);
  EXPECT_FALSE(rs.blocked(s, d));
}

TEST(RefinedSystem, AnchoredObserverRearmsAtEveryVisit) {
  // Loop u; x with ban [x] anchored at the post-u state: x is blocked on
  // every visit.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const EventId u = ts.add_event("u");
  const EventId x = ts.add_event("x");
  const EventId back = ts.add_event("back");
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, x, s0);
  ts.add_transition(s1, back, s0);
  ts.set_initial(s0);

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = false;
  obs.anchor_state = s1;
  obs.window = {x};
  rs.add_observer(std::move(obs));

  RefinedState s = rs.initial();
  s = rs.advance(s, u);
  EXPECT_TRUE(rs.blocked(s, x));
  s = rs.advance(s, back);
  s = rs.advance(s, u);
  EXPECT_TRUE(rs.blocked(s, x));  // re-armed on the second visit
}

TEST(RefinedSystem, MaterializePrunesBlockedFirings) {
  const Module m = gallery::intro_example();
  const TransitionSystem& ts = m.ts();
  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  BanObserver obs;
  obs.from_start = true;
  obs.window = {ts.event_by_label("a"), ts.event_by_label("c"),
                ts.event_by_label("d")};
  rs.add_observer(std::move(obs));

  RefinedGraph graph(rs);
  const test::RefinedWalk walk = test::walk_refined(graph);
  EXPECT_EQ(walk.blocked_firings, 1u);
  EXPECT_FALSE(walk.truncated);
  // The refined system has no more behaviours than the base one.
  EXPECT_LE(walk.transitions + walk.blocked_firings,
            ts.num_transitions() + walk.states);
}

TEST(RefinedSystem, PairBlockingNeedsActivationAndJustification) {
  // Diamond race x [1,2] vs y [5,6]: the pair (x, y) justifies blocking y
  // while x is pending — but only once activated.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 2), "y",
                                    DelayInterval::units(5, 6));
  const TransitionSystem& ts = m.ts();
  const EventId x = ts.event_by_label("x");
  const EventId y = ts.event_by_label("y");

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  rs.enable_age_rule(true);
  RefinedState s0 = rs.initial();
  EXPECT_FALSE(rs.blocked(s0, y));

  EXPECT_TRUE(rs.activate_pair(x, y));
  EXPECT_FALSE(rs.activate_pair(x, y));  // already active
  s0 = rs.initial();                     // re-pull with bookkeeping on
  EXPECT_TRUE(rs.blocked(s0, y));
  EXPECT_FALSE(rs.blocked(s0, x));
}

TEST(RefinedSystem, PairNotJustifiedWhenWindowsOverlap) {
  // x [1,4] vs y [2,3]: overlap, no provable ordering, pair must not block.
  const Module m = gallery::diamond("x", DelayInterval::units(1, 4), "y",
                                    DelayInterval::units(2, 3));
  const TransitionSystem& ts = m.ts();
  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  rs.enable_age_rule(true);
  rs.activate_pair(ts.event_by_label("x"), ts.event_by_label("y"));
  const RefinedState s0 = rs.initial();
  EXPECT_FALSE(rs.blocked(s0, ts.event_by_label("y")));
}

TEST(RefinedSystem, ChainSlackJustifiesPair) {
  // u [3,4] enables y [4,5]; x [1,2] pending from the start with deadline
  // 2... wait: x's deadline (2) < u's earliest (3), so u itself could not
  // fire before x.  Use a start-wave x with deadline 8: after u (>= 3),
  // y's earliest is 3 + 4 = 7 < 8: not blocked.  With deadline 6 — wave
  // bound gives lower(t_wave(y) - t_wave(x)) = 3, 3 + 4 = 7 > 6: blocked.
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const StateId s2 = ts.add_state();
  const StateId s3 = ts.add_state();
  const EventId x6 = ts.add_event("x6", DelayInterval::units(1, 6));
  const EventId x8 = ts.add_event("x8", DelayInterval::units(1, 8));
  const EventId u = ts.add_event("u", DelayInterval::units(3, 4));
  const EventId y = ts.add_event("y", DelayInterval::units(4, 5));
  ts.add_transition(s0, u, s1);
  ts.add_transition(s1, y, s2);
  ts.add_transition(s0, x6, s3);
  ts.add_transition(s0, x8, s3);
  ts.add_transition(s1, x6, s3);
  ts.add_transition(s1, x8, s3);
  ts.set_initial(s0);

  const ChokeIndex index(ts, {});
  RefinedSystem rs(ts, index);
  rs.enable_age_rule(true);
  rs.activate_pair(x6, y);
  rs.activate_pair(x8, y);
  RefinedState s = rs.initial();
  s = rs.advance(s, u);
  EXPECT_TRUE(rs.blocked(s, y));  // justified through x6's deadline
}

TEST(RefinedSystem, StateHashingConsistent) {
  const Module m = gallery::intro_example();
  const ChokeIndex index(m.ts(), {});
  RefinedSystem rs(m.ts(), index);
  rs.enable_age_rule(true);
  rs.activate_pair(m.ts().event_by_label("b"), m.ts().event_by_label("d"));
  const RefinedState a = rs.initial();
  const RefinedState b = rs.initial();
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.gaps.empty());
  // Two equal states intern to one id and one key.
  RefinedGraph graph(rs);
  const auto first = graph.intern(a);
  const auto second = graph.intern(b);
  EXPECT_TRUE(first.second);
  EXPECT_FALSE(second.second);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_EQ(graph.num_keys(), 1u);
}

TEST(RefinedGraph, BlockingMemoMatchesFreshBlockingAsPairsAccumulate) {
  // Table 1 obligation 2: replay the orderings its refine run activates,
  // one pair at a time.  After each activation walk the kept graph and
  // require every edge's memoised answer to equal a fresh blocked().
  const Suite suite = ipcmos::table1_suite();
  const Obligation& ob = suite.obligations()[1];
  const Composition comp = test::compose_for_engines(ob.modules);
  const EngineResult run = engine_registry().find("refine")->run(
      test::request(comp, ob.properties));
  ASSERT_EQ(run.verdict, Verdict::kVerified);

  RefinedSystem rs(comp.ts, comp.index());
  rs.enable_age_rule(true);
  RefinedGraph graph(rs);
  // Per state id and base transition: the previous walk's answer.
  std::vector<std::vector<char>> answers;
  std::size_t activations = 0, newly_blocked = 0;
  for (const RefinementRecord& rec : test::refine_stats(run).records) {
    for (const DerivedOrdering& o : rec.orderings) {
      if (!rs.activate_pair(comp.ts.event_by_label(o.before),
                            comp.ts.event_by_label(o.after)))
        continue;
      ++activations;
      graph.sync();
      if (graph.size() == 0) answers.clear();  // the first pair re-encodes
      const test::RefinedWalk walk = test::walk_refined(graph, 20'000);
      ASSERT_GT(walk.states, 0u);
      answers.resize(graph.size());
      for (std::int32_t id = 0; static_cast<std::size_t>(id) < graph.size();
           ++id) {
        const auto transitions =
            comp.ts.transitions_from(graph.base_state(id));
        std::vector<char>& was = answers[static_cast<std::size_t>(id)];
        for (std::size_t k = 0; k < transitions.size(); ++k) {
          const bool fresh = rs.blocked(graph.state(id), transitions[k].event);
          ASSERT_EQ(graph.blocked_edge(id, k), fresh)
              << "pair " << activations << ", state " << id << ", edge " << k;
          if (k < was.size()) {
            ASSERT_FALSE(was[k] && !fresh) << "blocking only grows";
            if (!was[k] && fresh) ++newly_blocked;
          }
        }
        was.resize(transitions.size());
        for (std::size_t k = 0; k < transitions.size(); ++k)
          was[k] = graph.blocked_edge(id, k);
      }
    }
  }
  EXPECT_GT(activations, 1u);
  // Some edge was decided unblocked, then blocked by a later pair.
  EXPECT_GT(newly_blocked, 0u);
}

/// The gap cap RefinedSystem::enable_age_rule derives: one past the
/// largest finite upper bound.
Time gap_cap(const TransitionSystem& ts) {
  Time cap = 1;
  for (std::size_t i = 0; i < ts.num_events(); ++i) {
    const DelayInterval d =
        ts.delay(EventId(static_cast<EventId::underlying_type>(i)));
    if (d.upper_bounded()) cap = std::max<Time>(cap, d.hi() + 1);
  }
  return cap;
}

constexpr std::uint16_t kWaveStart = 0x8000, kIdMask = 0x7fff;
constexpr std::uint16_t kGapInf = 0xffff;

/// advance()'s gap arithmetic without the timing-dead closed form: decode,
/// the firing instant's bounds, the closure (the textbook loop that skips
/// unbounded entries), the wave merges and encode.  `enabled` is the
/// successor's pseudo-enabled set.  `negative_pivot`, when given, is set
/// if some pivot's own diagonal entry was negative when its turn came.
std::vector<std::uint16_t> reference_gaps(const TransitionSystem& ts,
                                          const RefinedState& s,
                                          EventId fired,
                                          std::span<const EventId> enabled,
                                          std::size_t max_waves,
                                          bool* negative_pivot = nullptr) {
  const Time cap = gap_cap(ts);
  const auto encode = [&](Time v) -> std::uint16_t {
    if (v >= cap) return kGapInf;
    return static_cast<std::uint16_t>(std::max(v, -cap) + cap);
  };

  std::vector<std::size_t> old_wave(s.order.size());
  std::size_t n_old = 0, fired_wave = 0;
  bool fired_seen = false;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    if (s.order[i] & kWaveStart) ++n_old;
    old_wave[i] = n_old - 1;
    if (!fired_seen && EventId(s.order[i] & kIdMask) == fired) {
      fired_seen = true;
      fired_wave = old_wave[i];
    }
  }
  const std::size_t n = n_old + 1;
  std::vector<Time> m(n * n, kTimeInfinity);
  auto at = [&](std::size_t i, std::size_t j) -> Time& { return m[i * n + j]; };
  for (std::size_t i = 0; i < n_old; ++i)
    for (std::size_t j = 0; j < n_old; ++j) {
      const std::uint16_t v = s.gaps[i * n_old + j];
      at(i, j) = v == kGapInf ? kTimeInfinity : static_cast<Time>(v) - cap;
    }
  for (std::size_t i = 0; i < n; ++i) at(i, i) = 0;
  const DelayInterval df = ts.delay(fired);
  at(n_old, fired_wave) = std::min(
      at(n_old, fired_wave), df.upper_bounded() ? df.hi() : kTimeInfinity);
  at(fired_wave, n_old) = std::min(at(fired_wave, n_old), -df.lo());
  for (std::size_t j = 0; j < n_old; ++j)
    at(j, n_old) = std::min(at(j, n_old), Time{0});
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const EventId x(s.order[i] & kIdMask);
    if (x != fired && ts.delay(x).upper_bounded())
      at(n_old, old_wave[i]) =
          std::min(at(n_old, old_wave[i]), ts.delay(x).hi());
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) {
      if (i == 0 && at(k, k) < 0 && negative_pivot) *negative_pivot = true;
      if (at(i, k) >= kTimeInfinity) continue;
      for (std::size_t j = 0; j < n; ++j)
        if (at(k, j) < kTimeInfinity)
          at(i, j) = std::min(at(i, j), at(i, k) + at(k, j));
    }

  // Old waves keeping a pending event, then W when some event is fresh.
  const auto pending = [&](EventId e) {
    return std::any_of(s.order.begin(), s.order.end(), [&](std::uint16_t v) {
      return EventId(v & kIdMask) == e;
    });
  };
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const EventId e(s.order[i] & kIdMask);
    if (e == fired || !std::binary_search(enabled.begin(), enabled.end(), e))
      continue;
    if (kept.empty() || kept.back() != old_wave[i]) kept.push_back(old_wave[i]);
  }
  if (std::any_of(enabled.begin(), enabled.end(), [&](EventId e) {
        return e == fired || !pending(e);
      }))
    kept.push_back(n_old);
  const std::size_t cap_waves = std::max<std::size_t>(2, max_waves);
  const std::size_t merges =
      kept.size() > cap_waves ? kept.size() - cap_waves : 0;
  for (std::size_t t = 0; t < merges; ++t) {
    const std::size_t w0 = kept[t], w1 = kept[t + 1];
    for (std::size_t j = 0; j < n; ++j) {
      at(w1, j) = std::max(at(w1, j), at(w0, j));
      at(j, w1) = std::max(at(j, w1), at(j, w0));
    }
    at(w1, w1) = 0;
  }
  const std::size_t n_new = kept.size() - merges;
  std::vector<std::uint16_t> gaps(n_new * n_new);
  for (std::size_t a = 0; a < n_new; ++a)
    for (std::size_t b = 0; b < n_new; ++b)
      gaps[a * n_new + b] =
          a == b ? encode(0) : encode(at(kept[merges + a], kept[merges + b]));
  return gaps;
}

/// A random system for advance(): four states over `events` events, each
/// state firing a random subset of them to random targets; each delay is
/// unbounded with probability `p_unbounded`.  The last event never fires:
/// it is the `after` of the pair that switches the wave tracking on, so
/// nothing is ever blocked.
TransitionSystem random_system(Rng& rng, std::size_t events,
                               double p_unbounded) {
  TransitionSystem ts;
  for (int i = 0; i < 4; ++i) ts.add_state();
  for (std::size_t i = 0; i < events; ++i) {
    const Time lo = rng.range(0, 12);
    ts.add_event(std::string("e").append(std::to_string(i)),
                 rng.chance(p_unbounded)
                     ? DelayInterval(lo, kTimeInfinity)
                     : DelayInterval(lo, lo + rng.range(0, 12)));
  }
  for (std::size_t q = 0; q < ts.num_states(); ++q)
    for (std::size_t i = 0; i + 1 < events; ++i)
      if (rng.chance(0.6))
        ts.add_transition(
            StateId(static_cast<StateId::underlying_type>(q)),
            EventId(static_cast<EventId::underlying_type>(i)),
            StateId(static_cast<StateId::underlying_type>(rng.below(4))));
  ts.set_initial(StateId(0));
  return ts;
}

/// A source at base `q` firing `fired`: `fired` and a random set of other
/// events pending, in up to `waves` random waves, with off-diagonal gaps
/// drawn by `gap()`.
template <typename Gap>
RefinedState random_source(Rng& rng, const TransitionSystem& ts, StateId q,
                           EventId fired, std::size_t waves, Gap gap) {
  std::vector<std::uint16_t> pending{
      static_cast<std::uint16_t>(fired.value())};
  for (std::size_t i = 0; i < ts.num_events(); ++i)
    if (i != fired.value() && rng.chance(0.5))
      pending.push_back(static_cast<std::uint16_t>(i));
  for (std::size_t i = pending.size(); i > 1; --i)
    std::swap(pending[i - 1], pending[rng.below(i)]);
  waves = std::min(waves, pending.size());
  // Wave starts: entry 0 plus waves - 1 distinct others.
  std::vector<bool> start(pending.size(), false);
  start[0] = true;
  for (std::size_t w = 1; w < waves;) {
    const std::size_t i = 1 + rng.below(pending.size() - 1);
    if (!start[i]) {
      start[i] = true;
      ++w;
    }
  }
  RefinedState s;
  s.base = q;
  for (std::size_t i = 0; i < pending.size(); ++i)
    s.order.push_back(pending[i] | (start[i] ? kWaveStart : 0));
  s.gaps.resize(waves * waves);
  for (std::size_t i = 0; i < waves; ++i)
    for (std::size_t j = 0; j < waves; ++j)
      s.gaps[i * waves + j] =
          i == j ? static_cast<std::uint16_t>(gap_cap(ts)) : gap();
  return s;
}

TEST(RefinedSystem, TimingDeadSuccessorsMatchTheFullClosure) {
  // A timing-dead source (two or more waves, every off-diagonal gap at the
  // -cap clamp, encoded 0) takes advance()'s closed form when the firing
  // instant W has a finite outgoing bound; a single-wave source, a W
  // without one, and any other gap matrix take the full arithmetic.  All
  // must match the reference.
  Rng rng(0x71d1ead);
  std::size_t closed_form = 0, unbounded_w = 0, one_wave = 0, general = 0;
  for (int round = 0; round < 600; ++round) {
    const TransitionSystem ts =
        random_system(rng, 3 + rng.below(6), rng.chance(0.25) ? 1.0 : 0.3);
    const ChokeIndex index(ts, {});
    RefinedSystem rs(ts, index);
    rs.enable_age_rule(true);
    const std::size_t max_waves = 2 + rng.below(5);
    rs.set_max_waves(max_waves);
    rs.activate_pair(EventId(0), EventId(static_cast<EventId::underlying_type>(
                                     ts.num_events() - 1)));
    const auto cap = static_cast<std::uint16_t>(gap_cap(ts));
    const bool dead = round % 4 != 0;
    for (std::size_t q = 0; q < ts.num_states(); ++q) {
      const StateId b(static_cast<StateId::underlying_type>(q));
      for (const Transition& t : ts.transitions_from(b)) {
        const RefinedState src = random_source(
            rng, ts, b, t.event, 1 + rng.below(max_waves), [&] {
              if (dead) return std::uint16_t{0};
              return rng.chance(0.2)
                         ? kGapInf
                         : static_cast<std::uint16_t>(rng.below(2u * cap + 1));
            });
        const RefinedState got = rs.advance(src, t.event);
        ASSERT_EQ(got.gaps,
                  reference_gaps(ts, src, t.event,
                                 index.pseudo_enabled(t.target), max_waves))
            << "round " << round << ", state " << q << ", "
            << ts.label(t.event);

        const auto n_old = static_cast<std::size_t>(
            std::count_if(src.order.begin(), src.order.end(),
                          [](std::uint16_t v) { return v & kWaveStart; }));
        const bool bounded_w =
            std::any_of(src.order.begin(), src.order.end(),
                        [&](std::uint16_t v) {
                          return ts.delay(EventId(v & kIdMask)).upper_bounded();
                        });
        if (!dead) {
          ++general;
        } else if (n_old == 1) {
          ++one_wave;
        } else if (!bounded_w) {
          ++unbounded_w;
          // Row W stays unbounded: when W (the fired event is enabled
          // again, so fresh) and an old wave are both kept, their entry
          // is kGapInf.
          const bool w_kept =
              std::any_of(got.order.begin(), got.order.end(),
                          [&](std::uint16_t v) {
                            return EventId(v & kIdMask) == t.event;
                          });
          if (w_kept && got.gaps.size() > 1) {
            EXPECT_NE(std::count(got.gaps.begin(), got.gaps.end(), kGapInf),
                      0);
          }
        } else {
          ++closed_form;
          for (std::size_t i = 0; i < got.gaps.size(); ++i)
            EXPECT_TRUE(got.gaps[i] == 0 || got.gaps[i] == cap);
        }
      }
    }
  }
  EXPECT_GT(closed_form, 200u);
  EXPECT_GT(unbounded_w, 20u);
  EXPECT_GT(one_wave, 50u);
  EXPECT_GT(general, 100u);
}

TEST(RefinedSystem, BranchFreeClosureMatchesTheReferenceClosure) {
  // advance() closes the gap matrix without testing for unbounded
  // entries; the reference skips them.  Random sources over 1 .. max_waves
  // old waves (n = 2 .. max_waves + 1 with the firing instant), with
  // unbounded and negative entries, so negative cycles occur and a pivot's
  // diagonal entry is often already negative when its turn comes.
  Rng rng(0xc105ed);
  std::vector<std::size_t> by_n(8, 0);
  std::size_t negative_pivots = 0, with_unbounded = 0;
  for (int round = 0; round < 400; ++round) {
    const std::size_t max_waves = 2 + rng.below(5);
    const TransitionSystem ts = random_system(rng, max_waves + 3, 0.3);
    const ChokeIndex index(ts, {});
    RefinedSystem rs(ts, index);
    rs.enable_age_rule(true);
    rs.set_max_waves(max_waves);
    rs.activate_pair(EventId(0), EventId(static_cast<EventId::underlying_type>(
                                     ts.num_events() - 1)));
    const auto cap = static_cast<std::uint16_t>(gap_cap(ts));
    for (std::size_t q = 0; q < ts.num_states(); ++q) {
      const StateId b(static_cast<StateId::underlying_type>(q));
      for (const Transition& t : ts.transitions_from(b)) {
        const RefinedState src = random_source(
            rng, ts, b, t.event, 1 + rng.below(max_waves), [&] {
              return rng.chance(0.15)
                         ? kGapInf
                         : static_cast<std::uint16_t>(rng.below(2u * cap + 1));
            });
        bool negative_pivot = false;
        ASSERT_EQ(rs.advance(src, t.event).gaps,
                  reference_gaps(ts, src, t.event,
                                 index.pseudo_enabled(t.target), max_waves,
                                 &negative_pivot))
            << "round " << round << ", state " << q << ", "
            << ts.label(t.event);
        const auto n_old = static_cast<std::size_t>(
            std::count_if(src.order.begin(), src.order.end(),
                          [](std::uint16_t v) { return v & kWaveStart; }));
        ++by_n[n_old + 1];
        if (negative_pivot) ++negative_pivots;
        if (std::count(src.gaps.begin(), src.gaps.end(), kGapInf) > 0)
          ++with_unbounded;
      }
    }
  }
  for (std::size_t n = 2; n <= 7; ++n) EXPECT_GT(by_n[n], 20u) << "n = " << n;
  EXPECT_GT(negative_pivots, 500u);
  EXPECT_GT(with_unbounded, 500u);
}

/// advance()'s wave bookkeeping as it was first written (binary search and
/// any_of over the enabled set, the bounds on row W per order entry, the
/// closure on the heap matrix): the order and gaps of the successor.
std::pair<std::vector<std::uint16_t>, std::vector<std::uint16_t>>
reference_advance_age(const TransitionSystem& ts, const RefinedState& s,
                      EventId fired, std::span<const EventId> enabled,
                      std::size_t max_waves) {
  const Time cap_time = gap_cap(ts);
  const auto decode_gap = [&](std::uint16_t v) {
    return static_cast<Time>(v) - cap_time;
  };
  const auto encode_gap = [&](Time v) -> std::uint16_t {
    if (v >= cap_time) return kGapInf;
    if (v < -cap_time) v = -cap_time;
    return static_cast<std::uint16_t>(v + cap_time);
  };
  std::vector<std::size_t> old_wave(s.order.size());
  std::size_t n_old = 0;
  std::size_t fired_wave = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    if (s.order[i] & kWaveStart) ++n_old;
    old_wave[i] = n_old - 1;
    if (fired_wave == static_cast<std::size_t>(-1) &&
        EventId(s.order[i] & kIdMask) == fired)
      fired_wave = old_wave[i];
  }
  if (fired_wave == static_cast<std::size_t>(-1)) fired_wave = 0;

  std::vector<std::pair<EventId, std::size_t>> survivors;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    const EventId e(s.order[i] & kIdMask);
    if (e == fired) continue;
    if (!std::binary_search(enabled.begin(), enabled.end(), e)) continue;
    survivors.emplace_back(e, old_wave[i]);
  }
  std::vector<EventId> fresh;
  for (EventId e : enabled) {
    const bool surviving =
        std::any_of(survivors.begin(), survivors.end(),
                    [&](const auto& en) { return en.first == e; });
    if (!surviving) fresh.push_back(e);
  }
  std::vector<std::size_t> kept;
  for (const auto& en : survivors)
    if (kept.empty() || kept.back() != en.second) kept.push_back(en.second);
  if (!fresh.empty()) kept.push_back(n_old);

  const std::size_t cap = std::max<std::size_t>(2, max_waves);
  const std::size_t merges = kept.size() > cap ? kept.size() - cap : 0;
  const std::size_t n_new = kept.size() - merges;
  auto wave = [&](std::size_t a) { return kept[merges + a]; };

  const DelayInterval df = ts.delay(fired);
  bool dead = n_old >= 2;
  for (std::size_t i = 0; dead && i < n_old; ++i)
    for (std::size_t j = 0; dead && j < n_old; ++j)
      dead = i == j || s.gaps[i * n_old + j] == 0;
  if (dead && !df.upper_bounded()) {
    dead = std::any_of(s.order.begin(), s.order.end(), [&](std::uint16_t v) {
      const EventId x(v & kIdMask);
      return x != fired && ts.delay(x).upper_bounded();
    });
  }

  std::vector<std::uint16_t> gaps(n_new * n_new, 0);
  if (dead) {
    for (std::size_t a = 0; a < n_new; ++a) gaps[a * n_new + a] = encode_gap(0);
  } else {
    const std::size_t n = n_old + 1;
    std::vector<Time> m(n * n, kTimeInfinity);
    auto at = [&](std::size_t i, std::size_t j) -> Time& {
      return m[i * n + j];
    };
    for (std::size_t i = 0; i < n_old; ++i)
      for (std::size_t j = 0; j < n_old; ++j) {
        const std::uint16_t v = s.gaps[i * n_old + j];
        at(i, j) = (v == kGapInf) ? kTimeInfinity : decode_gap(v);
      }
    for (std::size_t i = 0; i < n; ++i) at(i, i) = 0;
    at(n_old, fired_wave) =
        std::min(at(n_old, fired_wave),
                 df.upper_bounded() ? df.hi() : kTimeInfinity);
    at(fired_wave, n_old) = std::min(at(fired_wave, n_old), -df.lo());
    for (std::size_t j = 0; j < n_old; ++j)
      at(j, n_old) = std::min(at(j, n_old), Time{0});
    for (std::size_t i = 0; i < s.order.size(); ++i) {
      const EventId x(s.order[i] & kIdMask);
      if (x == fired) continue;
      const DelayInterval dx = ts.delay(x);
      if (dx.upper_bounded())
        at(n_old, old_wave[i]) = std::min(at(n_old, old_wave[i]), dx.hi());
    }
    for (std::size_t k = 0; k < n; ++k) {
      const Time* rk = m.data() + k * n;
      for (std::size_t i = 0; i < n; ++i) {
        Time* ri = m.data() + i * n;
        for (std::size_t j = 0; j < n; ++j)
          ri[j] = std::min(ri[j], ri[k] + rk[j]);
      }
    }
    for (std::size_t t = 0; t < merges; ++t) {
      const std::size_t w0 = kept[t], w1 = kept[t + 1];
      for (std::size_t j = 0; j < n; ++j) {
        at(w1, j) = std::max(at(w1, j), at(w0, j));
        at(j, w1) = std::max(at(j, w1), at(j, w0));
      }
      at(w1, w1) = 0;
    }
    for (std::size_t a = 0; a < n_new; ++a)
      for (std::size_t b = 0; b < n_new; ++b)
        gaps[a * n_new + b] =
            a == b ? encode_gap(0) : encode_gap(at(wave(a), wave(b)));
  }

  std::vector<std::uint16_t> order;
  bool first = true;
  auto emit = [&](std::size_t src) {
    if (src == n_old) {
      for (EventId e : fresh) {
        order.push_back(static_cast<std::uint16_t>(e.value()) |
                        (first ? kWaveStart : 0));
        first = false;
      }
      return;
    }
    for (const auto& en : survivors) {
      if (en.second != src) continue;
      order.push_back(static_cast<std::uint16_t>(en.first.value()) |
                      (first ? kWaveStart : 0));
      first = false;
    }
  };
  for (std::size_t a = 0; a < n_new; ++a) {
    first = true;
    if (a > 0) {
      emit(wave(a));
      continue;
    }
    for (std::size_t t = merges + 1; t-- > 0;) emit(kept[t]);
  }
  return {order, gaps};
}

TEST(RefinedSystem, AdvanceMatchesTheFirstWaveBookkeeping) {
  // Random sources of 1 .. max_waves + 2 waves: successors that merge
  // waves, closures of every fixed size (2 .. 7 instants) and of the
  // generic loop beyond, timing-dead and general gap matrices.
  Rng rng(0xa9e5);
  std::size_t merged = 0, generic = 0, dead = 0;
  std::vector<std::size_t> by_n(16, 0);
  for (int round = 0; round < 500; ++round) {
    const std::size_t max_waves = round % 3 == 0 ? 6 : 2 + rng.below(5);
    const TransitionSystem ts = random_system(rng, max_waves + 6, 0.3);
    const ChokeIndex index(ts, {});
    RefinedSystem rs(ts, index);
    rs.enable_age_rule(true);
    rs.set_max_waves(max_waves);
    rs.activate_pair(EventId(0), EventId(static_cast<EventId::underlying_type>(
                                     ts.num_events() - 1)));
    const auto cap = static_cast<std::uint16_t>(gap_cap(ts));
    const bool dead_gaps = round % 5 == 0;
    for (std::size_t q = 0; q < ts.num_states(); ++q) {
      const StateId b(static_cast<StateId::underlying_type>(q));
      for (const Transition& t : ts.transitions_from(b)) {
        const RefinedState src = random_source(
            rng, ts, b, t.event, 1 + rng.below(max_waves + 2), [&] {
              if (dead_gaps) return std::uint16_t{0};
              return rng.chance(0.15)
                         ? kGapInf
                         : static_cast<std::uint16_t>(rng.below(2u * cap + 1));
            });
        const RefinedState got = rs.advance(src, t.event);
        const auto [order, gaps] = reference_advance_age(
            ts, src, t.event, index.pseudo_enabled(t.target), max_waves);
        ASSERT_EQ(got.order, order) << "round " << round << ", state " << q;
        ASSERT_EQ(got.gaps, gaps) << "round " << round << ", state " << q;
        const auto n_old = static_cast<std::size_t>(
            std::count_if(src.order.begin(), src.order.end(),
                          [](std::uint16_t v) { return v & kWaveStart; }));
        ++by_n[n_old + 1];
        if (n_old + 1 > 7) ++generic;
        if (n_old > max_waves) ++merged;
        if (dead_gaps && n_old >= 2) ++dead;
      }
    }
  }
  for (std::size_t n = 2; n <= 9; ++n) EXPECT_GT(by_n[n], 20u) << "n = " << n;
  EXPECT_GT(merged, 200u);
  EXPECT_GT(generic, 50u);
  EXPECT_GT(dead, 100u);
}

}  // namespace
}  // namespace rtv
