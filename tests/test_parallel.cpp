// Parallel-exploration parity (rtv/base/parallel.hpp + the layered BFS in
// compose() and the discrete engine):
//
//   * compose() is bit-identical across job counts — state numbering,
//     transitions, valuations, chokes;
//   * the discrete engine produces identical verdicts, state counts and
//     counterexample traces at jobs=1 and jobs=4 on randomized gallery
//     systems, every parallel counterexample replays through the
//     sequential composition, and its output is pinned;
//   * the state budget is a hard insertion-time ceiling, and a budget cut
//     in the middle of a layer keeps the same states at every job count;
//   * the substrate (LayeredRunner) runs every item and deals every chunk
//     ordinal exactly once per layer, and survives a failing merge;
//   * the interning table (RecordTable) numbers records in insertion order,
//     tells records apart that share a hash or a prefix, and answers
//     concurrent finds as a sequential map does.
#include "rtv/base/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "engine_support.hpp"
#include "rtv/base/hash.hpp"
#include "rtv/base/open_table.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/verify/suite.hpp"
#include "rtv/zone/discrete.hpp"

namespace rtv {
namespace {

// ---------------------------------------------------------------------------
// Substrate primitives
// ---------------------------------------------------------------------------

TEST(LayeredRunner, EveryItemAndChunkRunsOncePerLayer) {
  // Layers of widths 1, 7, 10,000 and 3 on four workers: every item of a
  // layer runs exactly once, and the chunk ordinals the cursor deals cover
  // [0, num_chunks(width)) once each, whichever worker takes them.
  const std::vector<std::size_t> widths = {1, 7, 10'000, 3};
  LayeredRunner runner(4);
  std::size_t layer = 0;
  std::vector<std::atomic<int>> items, chunks;
  const auto size_layer = [&](std::size_t width) {
    items = std::vector<std::atomic<int>>(width);
    chunks = std::vector<std::atomic<int>>(runner.num_chunks(width));
    return width;
  };
  const auto check_layer = [&] {
    for (std::size_t i = 0; i < items.size(); ++i)
      ASSERT_EQ(items[i].load(), 1) << "layer " << layer << " item " << i;
    for (std::size_t c = 0; c < chunks.size(); ++c)
      ASSERT_EQ(chunks[c].load(), 1) << "layer " << layer << " chunk " << c;
  };
  runner.run(
      size_layer(widths[0]),
      [&](std::size_t, LayeredRunner::Chunk chunk) {
        ASSERT_LT(chunk.ordinal, chunks.size());
        ASSERT_LE(chunk.end, items.size());
        chunks[chunk.ordinal].fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = chunk.begin; i != chunk.end; ++i)
          items[i].fetch_add(1, std::memory_order_relaxed);
      },
      [&]() -> std::size_t {
        check_layer();
        return ++layer < widths.size() ? size_layer(widths[layer]) : 0;
      });
  EXPECT_EQ(layer, widths.size());
  EXPECT_EQ(runner.num_chunks(1), 1u);
  EXPECT_GT(runner.num_chunks(10'000), 4u);
}

TEST(LayeredRunner, MergeExceptionReleasesWorkersAndRethrows) {
  // A merge()-phase throw must wind the pool down through the shutdown
  // handshake (not std::terminate on joinable workers) and resurface on
  // the calling thread.
  LayeredRunner runner(4);
  std::atomic<int> layers{0};
  EXPECT_THROW(runner.run(8, [](std::size_t, LayeredRunner::Chunk) {},
                          [&]() -> std::size_t {
                            if (layers.fetch_add(1) == 2)
                              throw std::runtime_error("merge failed");
                            return 8;
                          }),
               std::runtime_error);
  EXPECT_EQ(layers.load(), 3);
}

// ---------------------------------------------------------------------------
// RecordTable: the interning table of every packed-state arena
// ---------------------------------------------------------------------------

TEST(RecordTable, IdsFollowInsertionOrderAcrossRehashes) {
  // 150,000 records of lengths 1 to 3 take the slots from 2^10 to 2^19
  // (nine rehashes); each record keeps the id of its insertion.
  constexpr std::int64_t kRecords = 150'000;
  const auto make = [](std::int64_t k) {
    std::vector<Time> rec{k};
    for (std::int64_t i = 0; i < k % 3; ++i) rec.push_back(k * 7 + i);
    return rec;
  };
  RecordTable<Time> table;
  for (std::int64_t k = 0; k < kRecords; ++k) {
    const std::vector<Time> rec = make(k);
    const std::size_t h = RecordTable<Time>::hash(rec.data(), rec.size());
    const auto p = table.probe(rec.data(), rec.size(), h);
    ASSERT_EQ(p.id, -1) << k;
    ASSERT_EQ(table.insert(p, rec.data(), rec.size(), h), k);
  }
  ASSERT_EQ(table.size(), static_cast<std::size_t>(kRecords));
  for (std::int64_t k = 0; k < kRecords; ++k) {
    const std::vector<Time> rec = make(k);
    const auto id = static_cast<std::int32_t>(k);
    ASSERT_EQ(table.find(rec.data(), rec.size(),
                         RecordTable<Time>::hash(rec.data(), rec.size())),
              id);
    const auto stored = table.record(id);
    ASSERT_TRUE(std::equal(stored.begin(), stored.end(), rec.begin(),
                           rec.end()))
        << k;
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  const std::vector<Time> first = make(0);
  EXPECT_EQ(table.find(first.data(), first.size(),
                       RecordTable<Time>::hash(first.data(), first.size())),
            -1);
}

TEST(RecordTable, APrefixNeverMatchesTheLongerRecord) {
  // Under one forced hash and under the real one: a record and its
  // prefixes (a zero tail included, which the byte hash pads alike) are
  // distinct records.
  const std::vector<std::uint16_t> longest{1, 2, 3, 0, 5};
  for (const bool forced : {true, false}) {
    RecordTable<std::uint16_t> table;
    const auto hash = [&](std::size_t n) {
      return forced ? std::size_t{42}
                    : RecordTable<std::uint16_t>::hash(longest.data(), n);
    };
    for (std::size_t n = longest.size(); n >= 1; --n) {
      const auto p = table.probe(longest.data(), n, hash(n));
      ASSERT_EQ(p.id, -1) << "length " << n << (forced ? " (forced)" : "");
      table.insert(p, longest.data(), n, hash(n));
    }
    for (std::size_t n = 1; n <= longest.size(); ++n)
      EXPECT_EQ(table.find(longest.data(), n, hash(n)),
                static_cast<std::int32_t>(longest.size() - n));
  }
}

TEST(RecordTable, DistinctRecordsUnderOneHashBothIntern) {
  // 3,000 distinct tuples on one hash: one probe sequence, past three
  // rehashes, and every tuple keeps its own id.
  constexpr std::size_t kHash = 7;
  RecordTable<StateId> table;
  for (std::uint32_t k = 0; k < 3'000; ++k) {
    const StateId rec[2] = {StateId(k / 5), StateId(k % 5)};
    const auto p = table.probe(rec, 2, kHash);
    ASSERT_EQ(p.id, -1) << k;
    ASSERT_EQ(table.insert(p, rec, 2, kHash), static_cast<std::int32_t>(k));
  }
  for (std::uint32_t k = 0; k < 3'000; ++k) {
    const StateId rec[2] = {StateId(k / 5), StateId(k % 5)};
    ASSERT_EQ(table.find(rec, 2, kHash), static_cast<std::int32_t>(k));
  }
}

TEST(RecordTable, ConcurrentFindsAgreeWithAMap) {
  // A table filled from a random stream with repeats, then probed from
  // four threads at once: every answer matches a sequential std::map.
  Rng rng(33);
  const auto random_tuple = [&] {
    std::vector<StateId> rec(1 + rng.below(6));
    for (StateId& s : rec) s = StateId(static_cast<std::uint32_t>(rng.below(8)));
    return rec;
  };
  const auto key = [](const std::vector<StateId>& rec) {
    std::vector<std::uint32_t> k;
    for (StateId s : rec) k.push_back(s.value());
    return k;
  };
  RecordTable<StateId> table;
  std::map<std::vector<std::uint32_t>, std::int32_t> expected;
  for (int i = 0; i < 40'000; ++i) {
    const std::vector<StateId> rec = random_tuple();
    const std::size_t h = RecordTable<StateId>::hash(rec.data(), rec.size());
    const auto p = table.probe(rec.data(), rec.size(), h);
    const auto [it, fresh] =
        expected.emplace(key(rec), static_cast<std::int32_t>(table.size()));
    ASSERT_EQ(p.id, fresh ? -1 : it->second) << i;
    if (fresh) table.insert(p, rec.data(), rec.size(), h);
  }
  ASSERT_GT(table.size(), 10'000u);

  std::vector<std::vector<StateId>> queries(20'000);
  for (auto& q : queries) q = random_tuple();
  std::vector<std::vector<std::int32_t>> found(4);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < found.size(); ++t)
      threads.emplace_back([&, t] {
        for (const auto& q : queries)
          found[t].push_back(table.find(
              q.data(), q.size(), RecordTable<StateId>::hash(q.data(), q.size())));
      });
    for (std::thread& th : threads) th.join();
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto it = expected.find(key(queries[i]));
    const std::int32_t want = it == expected.end() ? -1 : it->second;
    for (std::size_t t = 0; t < found.size(); ++t)
      ASSERT_EQ(found[t][i], want) << "query " << i << " thread " << t;
  }
}

// ---------------------------------------------------------------------------
// Gallery systems for the randomized parity sweep
// ---------------------------------------------------------------------------

DelayInterval random_delay(Rng& rng) {
  const Time lo = static_cast<Time>(rng.below(4)) * kTicksPerUnit;
  const Time hi = lo + static_cast<Time>(1 + rng.below(3)) * kTicksPerUnit;
  return DelayInterval(lo, hi);
}

/// Walk `labels` through the composed system.  All labels must be real
/// transitions, except that the final one may be a refusal (a choke has no
/// composed transition) — `refusal` says whether the violation was one.
void expect_replayable(const Composition& comp,
                       const std::vector<std::string>& labels, bool refusal) {
  StateId cur = comp.ts.initial();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const EventId e = comp.ts.event_by_label(labels[i]);
    ASSERT_TRUE(e.valid()) << "unknown label " << labels[i];
    const auto succ = comp.ts.successor(cur, e);
    if (!succ) {
      EXPECT_TRUE(refusal && i + 1 == labels.size())
          << "trace breaks at step " << i << " (" << labels[i] << ")";
      return;
    }
    cur = *succ;
  }
}

// ---------------------------------------------------------------------------
// compose() parity: bit-identical output for every job count
// ---------------------------------------------------------------------------

/// a and b are the same composition: states with their tuples and
/// valuations, transitions in order, chokes in order.
void expect_identical(const Composition& a, const Composition& b) {
  ASSERT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.ts.num_states(), b.ts.num_states());
  ASSERT_EQ(a.ts.num_transitions(), b.ts.num_transitions());
  ASSERT_EQ(a.ts.has_valuations(), b.ts.has_valuations());
  for (std::size_t s = 0; s < a.ts.num_states(); ++s) {
    const StateId id(static_cast<std::uint32_t>(s));
    const auto ua = a.tuple(id);
    const auto ub = b.tuple(id);
    ASSERT_TRUE(std::equal(ua.begin(), ua.end(), ub.begin(), ub.end()))
        << "state " << s;
    if (a.ts.has_valuations()) {
      EXPECT_EQ(a.ts.valuation(id), b.ts.valuation(id)) << "state " << s;
    }
    const auto ta = a.ts.transitions_from(id);
    const auto tb = b.ts.transitions_from(id);
    ASSERT_EQ(ta.size(), tb.size()) << "state " << s;
    for (std::size_t k = 0; k < ta.size(); ++k) {
      EXPECT_EQ(ta[k].event, tb[k].event);
      EXPECT_EQ(ta[k].target, tb[k].target);
    }
  }
  ASSERT_EQ(a.chokes.size(), b.chokes.size());
  for (std::size_t i = 0; i < a.chokes.size(); ++i) {
    EXPECT_EQ(a.chokes[i].state, b.chokes[i].state) << "choke " << i;
    EXPECT_EQ(a.chokes[i].event, b.chokes[i].event) << "choke " << i;
    EXPECT_EQ(a.chokes[i].producer, b.chokes[i].producer) << "choke " << i;
    EXPECT_EQ(a.chokes[i].blocker, b.chokes[i].blocker) << "choke " << i;
  }
  // The event index the engines read: every state's enabled and
  // pseudo-enabled sets and its chokes.
  const auto same = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  const auto same_chokes = [](auto x, auto y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const ChokeRecord& p, const ChokeRecord& q) {
                        return p.state == q.state && p.event == q.event &&
                               p.producer == q.producer &&
                               p.blocker == q.blocker;
                      });
  };
  for (std::size_t s = 0; s < a.ts.num_states(); ++s) {
    const StateId id(static_cast<std::uint32_t>(s));
    EXPECT_TRUE(same(a.index().enabled(id), b.index().enabled(id)))
        << "state " << s;
    EXPECT_TRUE(
        same(a.index().pseudo_enabled(id), b.index().pseudo_enabled(id)))
        << "state " << s;
    EXPECT_TRUE(same_chokes(a.index().chokes_at(id), b.index().chokes_at(id)))
        << "state " << s;
  }
}

TEST(ParallelCompose, OutputIsIdenticalAcrossJobCounts) {
  for (int seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 6364136223846793005ull + 7);
    const Module race = gallery::scaled_race(2 + static_cast<int>(rng.below(6)));
    const Module diamond =
        gallery::diamond("x", random_delay(rng), "y", random_delay(rng));
    const Module mon = gallery::order_monitor("a", "c");

    ComposeOptions seq, par;
    seq.track_chokes = par.track_chokes = true;
    seq.jobs = 1;
    par.jobs = 4;
    expect_identical(compose({&race, &diamond, &mon}, seq),
                     compose({&race, &diamond, &mon}, par));
  }
}

TEST(ParallelCompose, TruncationMidLayerIsIdenticalAcrossJobCounts) {
  // Table 1 obligation 2: wide enough layers that four workers split them
  // into many chunks, with valuations and chokes.
  const Suite suite = ipcmos::table1_suite();
  const Obligation& ob = suite.obligations()[1];
  ComposeOptions seq, par;
  seq.track_chokes = par.track_chokes = true;
  seq.jobs = 1;
  par.jobs = 4;
  const Composition full = compose(ob.modules, seq);

  // compose() numbers states in BFS order, so each layer is a range of
  // ids; cap the budget in the middle of the widest one.
  const std::size_t n = full.ts.num_states();
  std::vector<std::size_t> depth(n, n), width(n, 0);
  depth[0] = 0;
  for (std::size_t s = 0; s < n; ++s) {
    ++width[depth[s]];
    for (const Transition& t :
         full.ts.transitions_from(StateId(static_cast<std::uint32_t>(s))))
      if (depth[t.target.value()] == n) depth[t.target.value()] = depth[s] + 1;
  }
  const std::size_t widest = static_cast<std::size_t>(
      std::max_element(width.begin(), width.end()) - width.begin());
  ASSERT_GE(width[widest], 64u);
  const std::size_t layer_begin = static_cast<std::size_t>(
      std::find(depth.begin(), depth.end(), widest) - depth.begin());
  seq.max_states = par.max_states = layer_begin + width[widest] / 2;

  const Composition a = compose(ob.modules, seq);
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.ts.num_states(), seq.max_states);
  // The chokes found before the cap are a prefix of the full product's.
  ASSERT_LE(a.chokes.size(), full.chokes.size());
  for (std::size_t i = 0; i < a.chokes.size(); ++i) {
    EXPECT_EQ(a.chokes[i].state, full.chokes[i].state) << "choke " << i;
    EXPECT_EQ(a.chokes[i].event, full.chokes[i].event) << "choke " << i;
  }
  expect_identical(a, compose(ob.modules, par));
}

// ---------------------------------------------------------------------------
// Discrete engine parity: verdicts, counts and traces
// ---------------------------------------------------------------------------

/// Gallery system `seed` of the randomized parity sweep: a diamond with
/// random delays under an order monitor.
Composition diamond_system(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 12345);
  const Module m =
      gallery::diamond("x", random_delay(rng), "y", random_delay(rng));
  const Module mon = gallery::order_monitor("x", "y");
  return test::compose_for_engines({&m, &mon});
}

const InvariantProperty kXFirst("x first", {{"fail", true}});
constexpr std::size_t kDiamondBudget = 500'000;

/// Producer pulses x; a one-shot listener refuses the second pulse.  The
/// refused label ends the trace and has no composed transition.
Composition choke_system() {
  TransitionSystem pts;
  const StateId p0 = pts.add_state();
  const StateId p1 = pts.add_state();
  pts.add_transition(
      p0, pts.add_event("x+", DelayInterval::units(1, 2), EventKind::kOutput),
      p1);
  pts.add_transition(
      p1, pts.add_event("x-", DelayInterval::units(1, 2), EventKind::kOutput),
      p0);
  pts.set_initial(p0);
  const Module producer("p", std::move(pts));

  TransitionSystem lts;
  const StateId l0 = lts.add_state();
  const StateId l1 = lts.add_state();
  const StateId l2 = lts.add_state();
  lts.add_transition(
      l0, lts.add_event("x+", DelayInterval::unbounded(), EventKind::kInput),
      l1);
  lts.add_transition(
      l1, lts.add_event("x-", DelayInterval::unbounded(), EventKind::kInput),
      l2);
  lts.set_initial(l0);
  const Module once("once", std::move(lts));
  return test::compose_for_engines({&producer, &once});
}

EngineResult run_discrete(const Composition& comp,
                          std::vector<const SafetyProperty*> properties,
                          std::size_t jobs, std::size_t max_states = 0) {
  EngineRequest req;
  req.composition = &comp;
  req.properties = std::move(properties);
  req.budget.max_states = max_states;
  req.jobs = jobs;
  return DiscreteEngine().run(req);
}

/// The composition run_suite() hands the engines for `ob`.
Composition compose_obligation(const Obligation& ob) {
  ComposeOptions co;
  co.track_chokes = ob.track_chokes;
  return compose(ob.modules, co);
}

/// FNV-1a over what a discrete run reports: verdict, truncation reason,
/// config and location counts, and the counterexample's labels.
void fold_discrete(Fnv1a& h, const EngineResult& r) {
  h.u64(static_cast<std::uint64_t>(r.verdict))
      .str(r.truncated_reason)
      .u64(r.states_explored)
      .u64(r.discrete_states)
      .u64(r.trace_labels.size());
  for (const std::string& label : r.trace_labels) h.str(label);
}

TEST(ParallelDiscrete, RandomizedGallerySystemsAgreeAcrossJobCounts) {
  for (int seed = 0; seed < 20; ++seed) {
    const Composition comp = diamond_system(seed);
    const EngineResult a = run_discrete(comp, {&kXFirst}, 1, kDiamondBudget);
    const EngineResult b = run_discrete(comp, {&kXFirst}, 4, kDiamondBudget);

    EXPECT_EQ(a.verdict, b.verdict) << "seed " << seed;
    EXPECT_EQ(a.truncated_reason, b.truncated_reason) << "seed " << seed;
    EXPECT_EQ(a.states_explored, b.states_explored) << "seed " << seed;
    EXPECT_LE(a.states_explored, kDiamondBudget);
    EXPECT_EQ(a.trace_labels, b.trace_labels) << "seed " << seed;
    if (a.violated()) {
      EXPECT_FALSE(b.trace_labels.empty()) << "seed " << seed;
      const bool refusal = a.message.find("refusal") != std::string::npos;
      expect_replayable(comp, b.trace_labels, refusal);
    }
  }
}

TEST(ParallelDiscrete, ChokeCounterexampleReplaysUpToTheRefusal) {
  const Composition comp = choke_system();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const EngineResult r = run_discrete(comp, {}, jobs);
    ASSERT_TRUE(r.violated()) << jobs << " jobs";
    ASSERT_FALSE(r.trace_labels.empty()) << jobs << " jobs";
    EXPECT_EQ(r.trace_labels.back(), "x+");
    expect_replayable(comp, r.trace_labels, /*refusal=*/true);
  }
}

TEST(ParallelDiscrete, OutputIsPinned) {
  // What the discrete engine reports — verdicts, truncation, config and
  // location counts, counterexample labels — on the systems above and on
  // three Table 1 obligations.  The exploration order is part of the
  // contract (it picks the counterexample), so a change to it fails the
  // digests.
  struct Pinned {
    std::uint64_t diamonds, choke, table1[3];
  };
  const Pinned want{0xeef7a893beda28b6ull,
                    0xa034d00b2da6b691ull,
                    {0x7add81487aa34275ull, 0x006c8cb850642236ull,
                     0x537f9edd7979e58bull}};
  const Suite suite = ipcmos::table1_suite();
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    Fnv1a diamonds;
    for (int seed = 0; seed < 20; ++seed)
      fold_discrete(diamonds, run_discrete(diamond_system(seed), {&kXFirst},
                                           jobs, kDiamondBudget));
    EXPECT_EQ(diamonds.digest(), want.diamonds) << jobs << " jobs";

    Fnv1a choke;
    fold_discrete(choke, run_discrete(choke_system(), {}, jobs));
    EXPECT_EQ(choke.digest(), want.choke) << jobs << " jobs";

    const std::size_t obligations[] = {0, 1, 3};
    for (std::size_t k = 0; k < 3; ++k) {
      const Obligation& ob = suite.obligations()[obligations[k]];
      Fnv1a h;
      fold_discrete(h,
                    run_discrete(compose_obligation(ob), ob.properties, jobs));
      EXPECT_EQ(h.digest(), want.table1[k]) << ob.name << ", " << jobs
                                            << " jobs";
    }
  }
}

TEST(ParallelDiscrete, StateBudgetIsAHardCeilingUnderConcurrency) {
  // scaled_race(64) has tens of thousands of digitized configs; a 1000
  // config budget must truncate at exactly 1000 configs even with four
  // workers expanding each layer.
  const Module sys = gallery::scaled_race(64);
  // The composition is built unbudgeted, so only the engine's budget can
  // trip.
  const Composition comp = test::compose_for_engines({&sys});
  const EngineResult r = run_discrete(comp, {}, 4, 1000);
  EXPECT_EQ(r.truncated_reason, stop_reason::kStateBudget);
  EXPECT_EQ(r.states_explored, 1000u);
  EXPECT_EQ(r.verdict, Verdict::kInconclusive);
}

TEST(ParallelDiscrete, TruncationMidLayerIsIdenticalAcrossJobCounts) {
  // Table 1 obligation 2 explores 64,401 configs; its widest BFS layer
  // holds configs 31,283 to 34,387.  A budget a quarter into that layer
  // must admit the layer's first configs in BFS order, whichever worker
  // found them.  The layer still reaches new locations there, so a cut
  // that kept other configs shows in the location count.
  const Suite suite = ipcmos::table1_suite();
  const Obligation& ob = suite.obligations()[1];
  const Composition comp = compose_obligation(ob);
  constexpr std::size_t kCap = 31'283 + 3'105 / 4;
  const EngineResult a = run_discrete(comp, ob.properties, 1, kCap);
  const EngineResult b = run_discrete(comp, ob.properties, 4, kCap);
  EXPECT_EQ(a.truncated_reason, stop_reason::kStateBudget);
  EXPECT_EQ(a.states_explored, kCap);
  EXPECT_EQ(b.states_explored, kCap);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.truncated_reason, b.truncated_reason);
  EXPECT_EQ(a.discrete_states, b.discrete_states);
}

// ---------------------------------------------------------------------------
// End-to-end: EngineRequest::jobs and the suite's global worker budget
// ---------------------------------------------------------------------------

TEST(ParallelEngine, DiscreteEngineHonoursJobsAndAgrees) {
  const Module sys = gallery::scaled_race(16);
  const Module mon = gallery::order_monitor("a", "c");
  const InvariantProperty bad("a before c", {{"fail", true}});

  EngineRequest req;
  req.jobs = 1;
  const EngineResult a = test::decide("discrete", {&sys, &mon}, {&bad}, req);
  req.jobs = 4;
  const EngineResult b = test::decide("discrete", {&sys, &mon}, {&bad}, req);

  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.verdict, Verdict::kViolated);  // c can fire with a at 2k
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.trace_labels, b.trace_labels);
  EXPECT_FALSE(b.trace_labels.empty());
}

TEST(ParallelSuite, GlobalJobsBudgetCoversIntraObligationWorkers) {
  // One obligation, four workers: the scheduler runs one obligation-level
  // worker and hands the surplus to the engine as intra-obligation jobs.
  Suite suite;
  const Module* sys = suite.own(gallery::scaled_race(8));
  const Module* mon = suite.own(gallery::order_monitor("a", "c"));
  const SafetyProperty* bad = suite.own(std::make_unique<InvariantProperty>(
      "a before c", std::vector<InvariantProperty::Literal>{{"fail", true}}));
  suite.add("race", {sys, mon}, {bad});

  SuiteOptions opts;
  opts.jobs = 4;
  opts.engines = {"discrete"};
  const SuiteReport report = run_suite(suite, opts);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.jobs, 1u);  // one task -> one obligation-level worker
  EXPECT_EQ(report.records[0].result.verdict, Verdict::kViolated);
  EXPECT_FALSE(report.records[0].result.trace_labels.empty());
}

}  // namespace
}  // namespace rtv
