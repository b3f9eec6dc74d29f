#include "rtv/ts/compose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtv/base/hash.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/fuzz/generator.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv {
namespace {

/// Two-state toggler that alternates out+ / out-.
Module toggler(const std::string& sig, EventKind kind, DelayInterval d) {
  TransitionSystem ts;
  const StateId lo = ts.add_state("lo");
  const StateId hi = ts.add_state("hi");
  const EventId up = ts.add_event(sig + "+", d, kind);
  const EventId dn = ts.add_event(sig + "-", d, kind);
  ts.add_transition(lo, up, hi);
  ts.add_transition(hi, dn, lo);
  ts.set_initial(lo);
  ts.set_signal_names({sig});
  BitVec v0(1), v1(1);
  v1.set(0);
  ts.set_state_valuation(lo, v0);
  ts.set_state_valuation(hi, v1);
  return Module(sig + "-toggler", std::move(ts));
}

/// Accepts "x+" only; refusing "x-" after x+ creates a choke against a
/// producer that wants to toggle.
Module one_shot_listener(const std::string& sig) {
  TransitionSystem ts;
  const StateId s0 = ts.add_state();
  const StateId s1 = ts.add_state();
  const EventId up =
      ts.add_event(sig + "+", DelayInterval::unbounded(), EventKind::kInput);
  ts.add_transition(s0, up, s1);
  ts.set_initial(s0);
  return Module(sig + "-listener", std::move(ts));
}

TEST(Compose, IndependentAlphabetsInterleave) {
  const Module a = toggler("a", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));
  const Composition c = compose({&a, &b});
  EXPECT_EQ(c.ts.num_states(), 4u);
  EXPECT_EQ(c.ts.num_events(), 4u);
  EXPECT_FALSE(c.truncated);
}

TEST(Compose, SharedLabelSynchronises) {
  const Module p = toggler("x", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module l = one_shot_listener("x");
  const Composition c = compose({&p, &l});
  // x+ synchronises; afterwards x- is refused by the listener (it has no
  // x- in its alphabet, so it does not participate -> x- proceeds freely).
  const EventId up = c.ts.event_by_label("x+");
  const EventId dn = c.ts.event_by_label("x-");
  const StateId s1 = *c.ts.successor(c.ts.initial(), up);
  EXPECT_TRUE(c.ts.is_enabled(s1, dn));
  // A second x+ requires the listener again: after x- it is stuck.
  const StateId s2 = *c.ts.successor(s1, dn);
  EXPECT_FALSE(c.ts.is_enabled(s2, up));
}

TEST(Compose, ChokeRecordedWhenListenerRefusesOutput) {
  // Listener participates in x+ only once; the producer wants to fire x+
  // again -> choke at the stuck state.
  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  const EventId lup =
      lts.add_event("x+", DelayInterval::unbounded(), EventKind::kInput);
  const EventId ldn =
      lts.add_event("x-", DelayInterval::unbounded(), EventKind::kInput);
  lts.add_transition(l0, lup, l1);
  lts.add_transition(l1, ldn, l0);  // accepts one full pulse, then x+ again
  lts.set_initial(l0);
  Module listener("listener", std::move(lts));

  // Producer fires x+ x- x+ x- ... but the listener above actually accepts
  // cyclically; truncate it to refuse the second x+.
  TransitionSystem l2;
  const StateId m0 = l2.add_state();
  const StateId m1 = l2.add_state();
  const StateId m2 = l2.add_state();
  l2.add_transition(m0, l2.add_event("x+", DelayInterval::unbounded(), EventKind::kInput), m1);
  l2.add_transition(m1, l2.add_event("x-", DelayInterval::unbounded(), EventKind::kInput), m2);
  l2.set_initial(m0);
  Module once("once", std::move(l2));

  const Module p = toggler("x", EventKind::kOutput, DelayInterval::units(1, 2));
  ComposeOptions opts;
  opts.track_chokes = true;
  const Composition c = compose({&p, &once}, opts);
  ASSERT_FALSE(c.chokes.empty());
  EXPECT_EQ(c.ts.label(c.chokes.front().event), "x+");
  EXPECT_EQ(c.module_names[c.chokes.front().blocker], "once");
}

TEST(Compose, DelaysIntersectAcrossParticipants) {
  const Module p = toggler("x", EventKind::kOutput, DelayInterval::units(2, 9));
  // Listener with a tighter delay annotation on the same label.
  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  const EventId lup =
      lts.add_event("x+", DelayInterval::units(1, 5), EventKind::kInput);
  lts.add_transition(l0, lup, l1);
  lts.set_initial(l0);
  Module listener("l", std::move(lts));

  const Composition c = compose({&p, &listener});
  const EventId up = c.ts.event_by_label("x+");
  EXPECT_EQ(c.ts.delay(up), DelayInterval::units(2, 5));
}

TEST(Compose, ValuationsMergeBySignalName) {
  const Module a = toggler("a", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));
  const Composition c = compose({&a, &b});
  ASSERT_TRUE(c.ts.has_valuations());
  const std::size_t ia = c.ts.signal_index("a");
  const std::size_t ib = c.ts.signal_index("b");
  const StateId s = *c.ts.successor(c.ts.initial(), c.ts.event_by_label("a+"));
  EXPECT_TRUE(c.ts.valuation(s).test(ia));
  EXPECT_FALSE(c.ts.valuation(s).test(ib));
}

TEST(Compose, OutputKindWinsOverInput) {
  const Module p = toggler("x", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module l = one_shot_listener("x");
  const Composition c = compose({&p, &l});
  EXPECT_EQ(c.ts.event(c.ts.event_by_label("x+")).kind, EventKind::kOutput);
}

TEST(Compose, DescribeStateListsComponents) {
  const Module a = toggler("a", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));
  const Composition c = compose({&a, &b});
  const std::string desc = c.describe_state(c.ts.initial());
  EXPECT_NE(desc.find("a-toggler"), std::string::npos);
  EXPECT_NE(desc.find("b-toggler"), std::string::npos);
}

TEST(Compose, TruncationFlag) {
  const Module a = toggler("a", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));
  ComposeOptions opts;
  opts.max_states = 2;
  const Composition c = compose({&a, &b}, opts);
  EXPECT_TRUE(c.truncated);
}

TEST(Compose, StateBudgetIsAHardCeiling) {
  // The cap is enforced at insertion: a truncated composition never holds
  // more states than the budget (it used to overshoot by a frontier layer,
  // since the check only ran at pop time).
  const Module a = toggler("a", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module c = toggler("c", EventKind::kOutput, DelayInterval::units(1, 2));
  ComposeOptions opts;
  opts.max_states = 3;  // the full product has 8 states
  const Composition comp = compose({&a, &b, &c}, opts);
  EXPECT_TRUE(comp.truncated);
  EXPECT_LE(comp.ts.num_states(), 3u);
}

TEST(Compose, ContradictoryDelayBoundsFailLoudly) {
  // Two modules declaring disjoint bounds for the same label used to
  // produce a silently-empty intersection (lo > hi), leaving the event
  // forever unfireable.  compose() must refuse the system instead, naming
  // the label and the offending modules.
  const Module p = toggler("x", EventKind::kOutput, DelayInterval::units(1, 2));
  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  lts.add_transition(
      l0, lts.add_event("x+", DelayInterval::units(5, 9), EventKind::kInput),
      l1);
  lts.set_initial(l0);
  const Module listener("late-listener", std::move(lts));

  try {
    compose({&p, &listener});
    FAIL() << "compose accepted an empty delay intersection";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("x+"), std::string::npos) << what;
    EXPECT_NE(what.find("x-toggler"), std::string::npos) << what;
    EXPECT_NE(what.find("late-listener"), std::string::npos) << what;
  }
}

TEST(Compose, FirstMatchingTransitionWins) {
  // Two transitions on one event from one state: the product follows the
  // first, as TransitionSystem::successor() does, and adds one edge only.
  TransitionSystem ts;
  const StateId a0 = ts.add_state();
  const StateId a1 = ts.add_state();
  const StateId a2 = ts.add_state();
  const EventId go =
      ts.add_event("go", DelayInterval::units(1, 2), EventKind::kOutput);
  ts.add_transition(a0, go, a2);
  ts.add_transition(a0, go, a1);
  ts.set_initial(a0);
  const Module twice("twice", std::move(ts));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));

  ComposeOptions opts;
  opts.track_chokes = true;
  const Composition c = compose({&twice, &b}, opts);
  const EventId cgo = c.ts.event_by_label("go");
  std::size_t edges = 0;
  StateId target;
  for (const Transition& t : c.ts.transitions_from(c.ts.initial())) {
    if (t.event != cgo) continue;
    ++edges;
    target = t.target;
  }
  ASSERT_EQ(edges, 1u);
  EXPECT_EQ(c.tuple(target)[0], a2);
  EXPECT_EQ(c.ts.num_states(), 4u);  // a1 is never reached
}

TEST(Compose, LabelDisabledAtItsOnlyOwnerNeitherFiresNorChokes) {
  // Each toggler alone owns its falling edge, which its initial state does
  // not enable: the product's initial state fires only the rising edges,
  // and with no ready producer a disabled label is no choke.
  const Module a = toggler("a", EventKind::kOutput, DelayInterval::units(1, 2));
  const Module b = toggler("b", EventKind::kOutput, DelayInterval::units(1, 2));
  ComposeOptions opts;
  opts.track_chokes = true;
  const Composition c = compose({&a, &b}, opts);
  EXPECT_FALSE(c.ts.is_enabled(c.ts.initial(), c.ts.event_by_label("a-")));
  EXPECT_FALSE(c.ts.is_enabled(c.ts.initial(), c.ts.event_by_label("b-")));
  EXPECT_EQ(c.ts.transitions_from(c.ts.initial()).size(), 2u);
  EXPECT_TRUE(c.chokes.empty());
}

/// Content digest of a composition: per state its tuple, valuation and
/// (event, target) transitions, then every (state, event, producer,
/// blocker) choke.
std::uint64_t content_digest(const Composition& c) {
  Fnv1a h;
  h.u64(c.ts.num_states());
  for (std::size_t i = 0; i < c.ts.num_states(); ++i) {
    const StateId s(static_cast<StateId::underlying_type>(i));
    for (StateId t : c.tuple(s)) h.u32(t.value());
    if (c.ts.has_valuations()) {
      const BitVec& v = c.ts.valuation(s);
      h.u64(v.size());
      for (std::size_t k = 0; k < v.size(); ++k) h.boolean(v.test(k));
    }
    const auto out = c.ts.transitions_from(s);
    h.u64(out.size());
    for (const Transition& t : out)
      h.u32(t.event.value()).u32(t.target.value());
  }
  h.u64(c.chokes.size());
  for (const ChokeRecord& k : c.chokes)
    h.u32(k.state.value()).u32(k.event.value()).u64(k.producer).u64(k.blocker);
  return h.digest();
}

TEST(Compose, Table1ProductsArePinned) {
  // The five Table 1 products, composed as their obligations ask.  State
  // numbering, transition order and choke order are part of the contract
  // (engines, traces and cache keys see them), so any change to the
  // exploration order fails the digest.
  struct Pinned {
    std::size_t states, transitions, chokes;
    std::uint64_t digest;
  };
  const Pinned want[] = {
      {6, 8, 0, 0x15b35d764a9a15f7ull},
      {8016, 38558, 1960, 0x858bad3e0699d559ull},
      {8920, 43184, 1412, 0x873adb8314ee06dcull},
      {6680, 31552, 1188, 0xe13b1cea86ec0e6bull},
      {10704, 52750, 2408, 0x1e159eb440c5c6abull},
  };
  const Suite suite = ipcmos::table1_suite();
  ASSERT_EQ(suite.size(), 5u);
  for (std::size_t n = 0; n < 5; ++n) {
    const Obligation& ob = suite.obligations()[n];
    ComposeOptions opts;
    opts.track_chokes = ob.track_chokes;
    const Composition c = compose(ob.modules, opts);
    EXPECT_FALSE(c.truncated) << ob.name;
    EXPECT_EQ(c.ts.num_states(), want[n].states) << ob.name;
    EXPECT_EQ(c.ts.num_transitions(), want[n].transitions) << ob.name;
    EXPECT_EQ(c.chokes.size(), want[n].chokes) << ob.name;
    EXPECT_EQ(content_digest(c), want[n].digest) << ob.name;
  }
}

/// Every state's event index entries against the composition itself:
/// enabled(s) is ts.enabled_events(s); pseudo_enabled(s) is sorted, each
/// event once, and is exactly enabled(s) plus the state's choked events;
/// chokes_at(s) lists the state's chokes in composition order.
void expect_index_matches(const Composition& c) {
  const ChokeIndex& index = c.index();
  std::vector<std::vector<ChokeRecord>> chokes(c.ts.num_states());
  for (const ChokeRecord& k : c.chokes) chokes[k.state.value()].push_back(k);
  for (std::size_t i = 0; i < c.ts.num_states(); ++i) {
    const StateId s(static_cast<StateId::underlying_type>(i));
    const std::vector<EventId> want = c.ts.enabled_events(s);
    const auto enabled = index.enabled(s);
    ASSERT_TRUE(std::equal(enabled.begin(), enabled.end(), want.begin(),
                           want.end()))
        << "state " << i;

    std::vector<EventId> pseudo = want;
    for (const ChokeRecord& k : chokes[i]) pseudo.push_back(k.event);
    std::sort(pseudo.begin(), pseudo.end());
    pseudo.erase(std::unique(pseudo.begin(), pseudo.end()), pseudo.end());
    const auto got = index.pseudo_enabled(s);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), pseudo.begin(),
                           pseudo.end()))
        << "state " << i;
    EXPECT_TRUE(std::includes(got.begin(), got.end(), enabled.begin(),
                              enabled.end()))
        << "state " << i;

    const auto at = index.chokes_at(s);
    ASSERT_EQ(at.size(), chokes[i].size()) << "state " << i;
    for (std::size_t k = 0; k < at.size(); ++k) {
      EXPECT_EQ(at[k].event, chokes[i][k].event) << "state " << i;
      EXPECT_EQ(at[k].producer, chokes[i][k].producer) << "state " << i;
      EXPECT_EQ(at[k].blocker, chokes[i][k].blocker) << "state " << i;
    }
  }
}

TEST(Compose, EventIndexMatchesTable1Products) {
  const Suite suite = ipcmos::table1_suite();
  std::size_t chokes = 0;
  for (const Obligation& ob : suite.obligations()) {
    SCOPED_TRACE(ob.name);
    ComposeOptions opts;
    opts.track_chokes = ob.track_chokes;
    const Composition c = compose(ob.modules, opts);
    chokes += c.chokes.size();
    expect_index_matches(c);
  }
  EXPECT_GT(chokes, 0u);  // the pseudo-enabled sets really add refusals
}

/// Every state's valuation against a per-signal merge of its modules'
/// valuations: composed signal `name` is set iff some module with that
/// signal has it set in its local state.
void expect_valuations_merged(const std::vector<const Module*>& modules,
                              const Composition& c, std::size_t* merged) {
  if (!c.ts.has_valuations()) return;
  const auto& names = c.ts.signal_names();
  for (std::size_t i = 0; i < c.ts.num_states(); ++i) {
    const StateId s(static_cast<StateId::underlying_type>(i));
    BitVec want(names.size());
    const auto tuple = c.tuple(s);
    for (std::size_t mi = 0; mi < modules.size(); ++mi) {
      const TransitionSystem& mts = modules[mi]->ts();
      if (!mts.has_valuations()) continue;
      const BitVec& lv = mts.valuation(tuple[mi]);
      for (std::size_t k = 0; k < mts.signal_names().size(); ++k)
        if (lv.test(k)) want.set(c.ts.signal_index(mts.signal_names()[k]));
    }
    ASSERT_EQ(c.ts.valuation(s), want) << "state " << i;
    ++*merged;
  }
}

TEST(Compose, ValuationsAreThePerSignalMergeOnTable1AndFuzzProducts) {
  std::size_t merged = 0;
  const Suite suite = ipcmos::table1_suite();
  for (const Obligation& ob : suite.obligations()) {
    SCOPED_TRACE(ob.name);
    ComposeOptions opts;
    opts.track_chokes = ob.track_chokes;
    expect_valuations_merged(ob.modules, compose(ob.modules, opts), &merged);
  }
  EXPECT_EQ(merged, 6u + 8016 + 8920 + 6680 + 10704);
  for (std::size_t i = 0; i < 50; ++i) {
    const fuzz::Scenario sc =
        fuzz::generate(fuzz::case_seed(3, i), fuzz::GeneratorConfig{});
    SCOPED_TRACE(sc.describe());
    const auto modules = sc.module_ptrs();
    ComposeOptions opts;
    opts.track_chokes = true;
    expect_valuations_merged(modules, compose(modules, opts), &merged);
  }
  EXPECT_GT(merged, 6u + 8016 + 8920 + 6680 + 10704);
}

TEST(Compose, EventIndexMatchesRandomGalleryProducts) {
  for (int seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 99);
    const auto delay = [&rng] {
      const Time lo = static_cast<Time>(rng.below(4)) * kTicksPerUnit;
      return DelayInterval(
          lo, lo + static_cast<Time>(1 + rng.below(3)) * kTicksPerUnit);
    };
    const Module race =
        gallery::scaled_race(2 + static_cast<int>(rng.below(5)));
    const DelayInterval x = delay();  // shared: bounds must intersect
    const Module diamond = gallery::diamond("x", x, "y", delay());
    const Module ring =
        gallery::ring({{"a", delay()}, {"x", x}, {"b", delay()}});
    const Module mon = gallery::order_monitor("x", "y");
    ComposeOptions opts;
    opts.track_chokes = rng.below(4) != 0;
    expect_index_matches(compose({&race, &diamond, &mon}, opts));
    expect_index_matches(compose({&diamond, &ring, &mon}, opts));
  }
}

}  // namespace
}  // namespace rtv
