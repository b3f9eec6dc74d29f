// Observability overhead: metrics on vs off on the IPCMOS boundary-2
// obligation (IN || I1 || A_out(2) |= A_in(2)), the same ~1M-config
// discrete workload bench/parallel_explore shards.
//
// The obs layer's contract is near-zero cost when disabled and bounded
// cost when enabled: engines aggregate locally and flush at chunk/layer/run
// boundaries, so the per-state hot path sees at most one relaxed atomic
// load.  This bench makes that contract measurable — best-of-R wall clock
// per mode (interleaved, so thermal drift hits both equally), states/sec,
// and the enabled-mode regression in percent.  Exit 1 when the regression
// exceeds the acceptance threshold (3% by default, --max-overhead-pct to
// widen on noisy shared runners).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/zone/discrete.hpp"

using namespace rtv;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ModeResult {
  double best_seconds = 0.0;
  std::size_t states = 0;
  double states_per_sec() const {
    return best_seconds > 0 ? static_cast<double>(states) / best_seconds : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  double max_overhead_pct = 3.0;
  int reps = 5;
  std::size_t jobs = 1;  // single worker: per-state overhead, lowest noise
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(64);
      }
      return argv[++i];
    };
    if (arg == "--max-overhead-pct") max_overhead_pct = std::atof(next());
    else if (arg == "--reps") reps = std::atoi(next());
    else if (arg == "--jobs") jobs = static_cast<std::size_t>(std::atoll(next()));
    else {
      std::fprintf(stderr, "usage: obs_overhead [--reps N] [--jobs N]\n"
                           "       [--max-overhead-pct P]\n");
      return 64;
    }
  }

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

  std::printf("obs_overhead — metrics on vs off, IPCMOS boundary-2\n");
  std::printf("composed states: %zu, jobs: %zu, best of %d rep(s)\n",
              comp.ts.num_states(), jobs, reps);

  auto run_once = [&]() {
    EngineRequest req;
    req.composition = &comp;
    req.properties = props;
    req.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const EngineResult r = DiscreteEngine().run(req);
    return std::pair<double, std::size_t>(seconds_since(t0),
                                          r.states_explored);
  };

  run_once();  // warm-up: page in the composition, prime the allocator

  ModeResult on, off;
  for (int rep = 0; rep < reps; ++rep) {
    // Interleave modes so slow drift (thermal, noisy neighbours) cannot
    // systematically favour whichever mode runs last.
    obs::set_metrics_enabled(true);
    auto [on_wall, on_states] = run_once();
    obs::set_metrics_enabled(false);
    auto [off_wall, off_states] = run_once();
    obs::set_metrics_enabled(true);
    if (rep == 0 || on_wall < on.best_seconds) on.best_seconds = on_wall;
    if (rep == 0 || off_wall < off.best_seconds) off.best_seconds = off_wall;
    on.states = on_states;
    off.states = off_states;
    std::printf("  rep %d: on %.3fs, off %.3fs\n", rep + 1, on_wall, off_wall);
    std::fflush(stdout);
  }

  const double overhead_pct =
      off.best_seconds > 0
          ? (on.best_seconds - off.best_seconds) / off.best_seconds * 100.0
          : 0.0;
  std::printf("\n%-10s %12s %16s\n", "metrics", "wall [s]", "states/sec");
  std::printf("%-10s %12.3f %16.0f\n", "on", on.best_seconds,
              on.states_per_sec());
  std::printf("%-10s %12.3f %16.0f\n", "off", off.best_seconds,
              off.states_per_sec());
  std::printf("overhead: %.2f%% (threshold %.2f%%)\n", overhead_pct,
              max_overhead_pct);
  if (on.states != off.states)
    std::printf("WARNING: state counts differ (%zu vs %zu)\n", on.states,
                off.states);

  return overhead_pct <= max_overhead_pct && on.states == off.states ? 0 : 1;
}
