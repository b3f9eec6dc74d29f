// Baseline comparison: relative-timing refinement vs exact zone-graph
// (DBM) timed reachability.
//
// The paper motivates relative timing by the cost of exact timed state
// spaces (PSPACE-hard reachability, zone/region explosion).  This bench
// runs both engines on the same obligations and reports cost and verdict
// agreement — the zone engine doubles as the ground truth.
#include <cstdio>
#include <utility>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ts/gallery.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

/// The suite's one obligation on refine and on zone, both reading one
/// composition: {refine result, zone result}.
std::pair<EngineResult, EngineResult> refine_and_zone(const Suite& suite) {
  SuiteOptions opts;
  opts.engines = {"refine", "zone"};
  SuiteReport report = run_suite(suite, opts);
  return {std::move(report.records[0].result),
          std::move(report.records[1].result)};
}

}  // namespace

int main() {
  bool agree = true;

  std::printf("%-34s %12s %12s %10s %10s %8s\n", "system", "rt-verdict",
              "zone-verdict", "rt-states", "zones", "agree");

  // Intro example.
  {
    const Module sys = gallery::intro_example();
    const Module mon = gallery::order_monitor("g", "d");
    const InvariantProperty bad("g before d", {{"fail", true}});
    Suite suite;
    suite.add("intro example", {&sys, &mon}, {&bad});
    const auto [rt, zn] = refine_and_zone(suite);
    const bool ok = rt.verdict == zn.verdict;
    agree = agree && ok;
    std::printf("%-34s %12s %12s %10zu %10zu %8s\n", "intro example",
                to_string(rt.verdict), zn.violated() ? "violated" : "holds",
                rt.states_explored, zn.states_explored, ok ? "yes" : "NO");
  }

  // 1-stage IPCMOS pipeline, correct timing.
  const auto run_stage = [&](const char* name, const ExperimentConfig& cfg,
                             bool expect_ok) {
    // Table 1's obligation 5, IN || I || OUT |= S.
    Suite suite = table1_suite(cfg);
    suite.obligations().erase(suite.obligations().begin(),
                              suite.obligations().begin() + 4);
    const auto [rt, zn] = refine_and_zone(suite);
    const bool ok =
        rt.verdict == zn.verdict && (zn.verified() == expect_ok);
    agree = agree && ok;
    std::printf("%-34s %12s %12s %10zu %10zu %8s\n", name, to_string(rt.verdict),
                zn.violated() ? "violated" : "holds", rt.states_explored,
                zn.states_explored, ok ? "yes" : "NO");
  };

  ExperimentConfig good;
  run_stage("IPCMOS 1-stage (nominal delays)", good, true);

  ExperimentConfig slow_y;
  slow_y.timing.stage.y_fall = DelayInterval::units(6, 8);
  run_stage("IPCMOS 1-stage (slow Y-)", slow_y, false);

  ExperimentConfig slow_z;
  slow_z.timing.stage.z_rise = DelayInterval::units(9, 12);
  run_stage("IPCMOS 1-stage (slow Z+)", slow_z, false);

  std::printf("\nverdict agreement on all systems: %s\n", agree ? "yes" : "NO");
  std::printf("(the refinement engine explores the untimed product plus\n"
              " derived constraints; the zone engine pays for exact clock\n"
              " polyhedra — the paper's motivation for relative timing)\n");
  return agree ? 0 : 1;
}
