// google-benchmark microbenchmarks of the core algorithmic kernels:
// difference-constraint solving, max separation, DBM closure, composition,
// circuit elaboration, and one full verification run per engine.
#include <benchmark/benchmark.h>

#include "rtv/circuit/elaborate.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/timing/maxsep.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/refinement.hpp"
#include "rtv/zone/dbm.hpp"
#include "rtv/zone/zone_graph.hpp"

namespace {

using namespace rtv;
using namespace rtv::ipcmos;

void BM_DiffSolveChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DiffSystem sys(n);
  for (int i = 1; i < n; ++i) sys.add_bounds(i, i - 1, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.solve());
  }
}
BENCHMARK(BM_DiffSolveChain)->Arg(16)->Arg(64)->Arg(256);

void BM_MaxSepJoin(benchmark::State& state) {
  Ces ces;
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    CesEvent e;
    e.label = "e" + std::to_string(i);
    e.delay = DelayInterval::units(1, 3);
    if (i >= 2) e.preds = {i - 1, i - 2};  // joins with choices
    else if (i == 1) e.preds = {0};
    ces.events.push_back(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_separation(ces, n - 1, 0));
  }
}
BENCHMARK(BM_MaxSepJoin)->Arg(6)->Arg(10);

void BM_DbmClose(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Dbm d(n);
    for (std::size_t i = 1; i <= n; ++i) d.constrain(i, 0, static_cast<Time>(4 * i));
    benchmark::DoNotOptimize(d.canonicalize());
  }
}
BENCHMARK(BM_DbmClose)->Arg(8)->Arg(16)->Arg(32);

void BM_ComposeFlat1(benchmark::State& state) {
  const ModuleSet set = flat_pipeline(1);
  for (auto _ : state) {
    ComposeOptions opts;
    opts.track_chokes = true;
    benchmark::DoNotOptimize(compose(set.ptrs, opts));
  }
}
BENCHMARK(BM_ComposeFlat1);

void BM_ElaborateStage(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_stage(1));
  }
}
BENCHMARK(BM_ElaborateStage);

/// Compose the intro obligation and decide it on one engine, per iteration.
void verify_intro(benchmark::State& state, const Engine& engine) {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});
  ComposeOptions opts;
  opts.track_chokes = true;
  for (auto _ : state) {
    const Composition comp = compose({&sys, &mon}, opts);
    EngineRequest req;
    req.composition = &comp;
    req.properties = {&bad};
    benchmark::DoNotOptimize(engine.run(req));
  }
}

void BM_VerifyIntroRelativeTiming(benchmark::State& state) {
  verify_intro(state, RefineEngine());
}
BENCHMARK(BM_VerifyIntroRelativeTiming);

void BM_VerifyIntroZone(benchmark::State& state) {
  verify_intro(state, ZoneEngine());
}
BENCHMARK(BM_VerifyIntroZone);

void BM_Experiment1(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment1());
  }
}
BENCHMARK(BM_Experiment1);

}  // namespace

BENCHMARK_MAIN();
