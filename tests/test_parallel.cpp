// Parallel-exploration parity (rtv/base/parallel.hpp + the sharded BFS in
// compose() and the discrete engine):
//
//   * compose() is bit-identical across job counts — state numbering,
//     transitions, valuations, chokes;
//   * the discrete engine produces identical verdicts, state counts and
//     counterexample traces at jobs=1 and jobs=4 on randomized gallery
//     systems, and every parallel counterexample replays through the
//     sequential composition;
//   * the state budget is a hard insertion-time ceiling even when N
//     workers insert concurrently;
//   * the substrate primitives (WorkStealingRanges, ShardedInterner)
//     hand out every item exactly once / retain every key exactly once.
#include "rtv/base/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine_support.hpp"
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

TEST(WorkStealingRanges, EveryChunkHandedOutExactlyOnce) {
  constexpr std::size_t kItems = 10'000, kChunk = 7, kWorkers = 4;
  WorkStealingRanges ranges;
  ranges.reset(kItems, kChunk, kWorkers);

  std::vector<std::atomic<int>> claimed(kItems);
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      while (const auto chunk = ranges.next(w)) {
        for (std::size_t i = chunk->begin; i != chunk->end; ++i)
          claimed[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : pool) t.join();
  for (std::size_t i = 0; i < kItems; ++i)
    ASSERT_EQ(claimed[i].load(), 1) << "item " << i;
}

TEST(ShardedInterner, ConcurrentInsertsRetainEveryKeyOnceWithinBudget) {
  constexpr std::size_t kKeys = 5'000, kWorkers = 4;
  ShardedInterner<int, int> interner(/*max_size=*/kKeys, /*shards=*/64);
  std::vector<std::thread> pool;
  std::atomic<std::size_t> inserted{0};
  for (std::size_t w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&] {
      for (int k = 0; k < static_cast<int>(kKeys); ++k) {
        const auto r = interner.insert(
            k, [&] { return k * 2; }, [](int&) {});
        if (r.inserted) inserted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(inserted.load(), kKeys);  // each key won by exactly one thread
  EXPECT_EQ(interner.size(), kKeys);
  EXPECT_FALSE(interner.budget_hit());
}

TEST(ShardedInterner, BudgetIsAHardCeiling) {
  ShardedInterner<int, int> interner(/*max_size=*/10, /*shards=*/8);
  for (int k = 0; k < 100; ++k)
    interner.insert(k, [] { return 0; }, [](int&) {});
  EXPECT_EQ(interner.size(), 10u);
  EXPECT_TRUE(interner.budget_hit());
}

TEST(LayeredRunner, MergeExceptionReleasesWorkersAndRethrows) {
  // A merge()-phase throw must wind the pool down through the shutdown
  // handshake (not std::terminate on joinable workers) and resurface on
  // the calling thread.
  LayeredRunner runner(4);
  std::atomic<int> layers{0};
  EXPECT_THROW(runner.run([](std::size_t) {},
                          [&]() -> bool {
                            if (layers.fetch_add(1) == 2)
                              throw std::runtime_error("merge failed");
                            return true;
                          }),
               std::runtime_error);
  EXPECT_EQ(layers.load(), 3);
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

TEST(ParallelDiscrete, RandomizedGallerySystemsAgreeAcrossJobCounts) {
  constexpr std::size_t kBudget = 500'000;
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 12345);
    const Module m =
        gallery::diamond("x", random_delay(rng), "y", random_delay(rng));
    const Module mon = gallery::order_monitor("x", "y");
    const InvariantProperty bad("x first", {{"fail", true}});

    const Composition comp = test::compose_for_engines({&m, &mon});
    EngineRequest req;
    req.composition = &comp;
    req.properties = {&bad};
    req.budget.max_states = kBudget;
    req.jobs = 1;
    const EngineResult a = DiscreteEngine().run(req);
    req.jobs = 4;
    const EngineResult b = DiscreteEngine().run(req);

    EXPECT_EQ(a.verdict, b.verdict) << "seed " << seed;
    EXPECT_EQ(a.truncated_reason, b.truncated_reason) << "seed " << seed;
    EXPECT_EQ(a.states_explored, b.states_explored) << "seed " << seed;
    EXPECT_LE(a.states_explored, kBudget);
    EXPECT_EQ(a.trace_labels, b.trace_labels) << "seed " << seed;
    if (a.violated()) {
      EXPECT_FALSE(b.trace_labels.empty()) << "seed " << seed;
      const bool refusal = a.message.find("refusal") != std::string::npos;
      expect_replayable(comp, b.trace_labels, refusal);
    }
  }
}

TEST(ParallelDiscrete, ChokeCounterexampleReplaysUpToTheRefusal) {
  // Producer pulses x; a one-shot listener refuses the second pulse.  The
  // refused label ends the trace and has no composed transition.
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

  const Composition comp = test::compose_for_engines({&producer, &once});
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    EngineRequest req;
    req.composition = &comp;
    req.jobs = jobs;
    const EngineResult r = DiscreteEngine().run(req);
    ASSERT_TRUE(r.violated()) << jobs << " jobs";
    ASSERT_FALSE(r.trace_labels.empty()) << jobs << " jobs";
    EXPECT_EQ(r.trace_labels.back(), "x+");
    expect_replayable(comp, r.trace_labels, /*refusal=*/true);
  }
}

TEST(ParallelDiscrete, StateBudgetIsAHardCeilingUnderConcurrency) {
  // scaled_race(64) has tens of thousands of digitized configs; a 1000
  // config budget must truncate without a single config of overshoot even
  // with four workers inserting concurrently.
  const Module sys = gallery::scaled_race(64);
  // The composition is built unbudgeted, so only the engine's budget can
  // trip.
  const Composition comp = test::compose_for_engines({&sys});
  EngineRequest req;
  req.composition = &comp;
  req.jobs = 4;
  req.budget.max_states = 1000;
  const EngineResult r = DiscreteEngine().run(req);
  EXPECT_EQ(r.truncated_reason, stop_reason::kStateBudget);
  EXPECT_LE(r.states_explored, 1000u);
  EXPECT_EQ(r.verdict, Verdict::kInconclusive);
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
