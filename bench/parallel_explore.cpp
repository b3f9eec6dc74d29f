// Intra-obligation scaling: one large obligation, sharded across workers.
//
// run_suite() parallelises across obligations (many obligations, one
// worker each); this bench measures the complement — the
// sharded-frontier BFS inside a *single* obligation (rtv/base/parallel.hpp):
//
//   * compose() on a flat product of independent togglers (2^k states, the
//     scaling_pipeline blow-up in miniature), and
//   * the discrete engine on the IPCMOS boundary-2 obligation
//     (IN || I1 || A_out(2) |= A_in(2), the induction base of Table 1's
//     experiment 3): ~1M digitized configs in one obligation — exactly the
//     single large obligation an obligation-level scheduler cannot shard.
//
// Each workload runs at jobs = 1, 2, 4, ... up to max(4, hardware),
// reporting wall-clock speedup over jobs=1 and checking that state counts
// (and compose's full output) are identical across job counts — the
// determinism contract.  On an N-core machine the 4-worker run should be
// >= 2x the sequential one; on fewer cores the bench still validates
// parity, and the speedup column simply reflects the hardware.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/zone/discrete.hpp"

using namespace rtv;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Two-state toggler out+/out-; k of them compose into a 2^k-state product.
Module toggler(const std::string& sig) {
  TransitionSystem ts;
  const StateId lo = ts.add_state();
  const StateId hi = ts.add_state();
  ts.add_transition(
      lo, ts.add_event(sig + "+", DelayInterval::units(1, 2), EventKind::kOutput),
      hi);
  ts.add_transition(
      hi, ts.add_event(sig + "-", DelayInterval::units(1, 2), EventKind::kOutput),
      lo);
  ts.set_initial(lo);
  return Module(sig, std::move(ts));
}

std::vector<std::size_t> job_counts() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> jobs{1};
  for (std::size_t j = 2; j <= std::max(4u, hw); j *= 2) jobs.push_back(j);
  return jobs;
}

}  // namespace

int main() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("parallel_explore — single-obligation frontier sharding\n");
  std::printf("hardware threads: %u\n", hw);
  bool consistent = true;

  // ---- compose(): flat 2^k-state product ---------------------------------
  {
    constexpr int kTogglers = 15;  // 32768 product states, 30 labels each
    std::vector<Module> owned;
    owned.reserve(kTogglers);
    std::vector<const Module*> modules;
    for (int i = 0; i < kTogglers; ++i)
      owned.push_back(toggler(std::string("t").append(std::to_string(i))));
    for (const Module& m : owned) modules.push_back(&m);

    std::printf("\ncompose: %d togglers (2^%d product states)\n", kTogglers,
                kTogglers);
    std::printf("%6s %12s %10s %12s\n", "jobs", "wall [s]", "speedup",
                "states");
    double base = 0.0;
    std::size_t base_states = 0;
    for (const std::size_t jobs : job_counts()) {
      ComposeOptions opts;
      opts.jobs = jobs;
      const auto t0 = std::chrono::steady_clock::now();
      const Composition c = compose(modules, opts);
      const double wall = seconds_since(t0);
      if (jobs == 1) {
        base = wall;
        base_states = c.ts.num_states();
      }
      if (c.ts.num_states() != base_states) consistent = false;
      std::printf("%6zu %12.3f %9.2fx %12zu\n", jobs, wall,
                  wall > 0 ? base / wall : 0.0, c.ts.num_states());
      std::fflush(stdout);
    }
  }

  // ---- discrete engine: the IPCMOS boundary-2 obligation -----------------
  {
    const ipcmos::PipelineTiming t;
    const Module in = ipcmos::make_in_env(t);
    const Module stage = ipcmos::make_stage(1, t);
    const Module aout = ipcmos::make_aout(2);
    const Module ain = ipcmos::make_ain(2);
    const Module mon = ain.as_monitor("Ain2'");
    const DeadlockFreedom dead;
    const PersistencyProperty pers;
    const std::vector<const SafetyProperty*> props{&dead, &pers};
    ComposeOptions copts;
    copts.track_chokes = true;
    const Composition comp = compose({&in, &stage, &aout, &mon}, copts);

    std::printf(
        "\ndiscrete: IPCMOS boundary-2 (IN || I1 || A_out(2) |= A_in(2)), "
        "%zu composed states\n",
        comp.ts.num_states());
    std::printf("%6s %12s %10s %12s   verdict\n", "jobs", "wall [s]",
                "speedup", "configs");
    double base = 0.0;
    std::size_t base_states = 0;
    bool base_violated = false;
    for (const std::size_t jobs : job_counts()) {
      EngineRequest req;
      req.composition = &comp;
      req.properties = props;
      req.jobs = jobs;
      const auto t0 = std::chrono::steady_clock::now();
      const EngineResult r = DiscreteEngine().run(req);
      const double wall = seconds_since(t0);
      if (jobs == 1) {
        base = wall;
        base_states = r.states_explored;
        base_violated = r.violated();
      }
      if (r.states_explored != base_states || r.violated() != base_violated)
        consistent = false;
      std::printf("%6zu %12.3f %9.2fx %12zu   %s\n", jobs, wall,
                  wall > 0 ? base / wall : 0.0, r.states_explored,
                  r.violated() ? "VIOLATED" : "verified");
      std::fflush(stdout);
    }
  }

  std::printf("\nresults identical across job counts: %s\n",
              consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
