// Reproduction of Table 1: the five verification steps of Section 4.2,
// expressed as a declarative rtv::Suite (ipcmos::table1_suite) and executed
// by the batch scheduler — the paper's experiment *is* a batch of
// obligations, so the bench is now just: build suite, run, check shape.
//
// The paper reports CPU time (866 MHz PIII, rounded to minutes) and the
// number of refinement iterations of the transyt tool.  Absolute times are
// hardware- and engine-bound; the comparison targets the *shape*:
//   * experiment 1 needs no refinement (pure untimed abstraction check),
//   * experiments 2-4 need a few refinements each,
//   * experiment 5 (a transistor-level stage between two pulse-driven
//     environments) needs the most refinements,
//   * every step is verified.
#include <algorithm>
#include <cstdio>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/verify/report.hpp"
#include "rtv/verify/suite.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

int refinements_of(const SuiteRecord& rec) {
  const auto* st = std::get_if<RefineEngineStats>(&rec.result.stats);
  return st ? st->refinements : 0;
}

}  // namespace

int main() {
  std::printf("Table 1 — Summary of experimental results\n");
  std::printf("Paper (866 MHz PIII, transyt):\n");
  std::printf("  1. Ain || Aout |= S                 < 1 min   -- refinements\n");
  std::printf("  2. Ain || I || OUT <= Aout           28 min    7 refinements\n");
  std::printf("  3. IN  || I || Aout <= Ain            9 min    3 refinements\n");
  std::printf("  4. Ain || I || Aout <= Ain (f.p.)    10 min    3 refinements\n");
  std::printf("  5. IN  || I || OUT |= S              35 min   40 refinements\n");
  std::printf("\nThis reproduction (batch scheduler, refine engine):\n\n");

  const Suite suite = table1_suite();
  const SuiteReport report = run_suite(suite);  // batch, refine, all cores
  std::printf("%s", format_table(rows_from(report)).c_str());
  std::printf("(batch wall clock: %.3f s on %zu jobs)\n", report.wall_seconds,
              report.jobs);

  const std::vector<SuiteRecord>& recs = report.records;
  std::printf("\nShape checks:\n");
  const bool all_verified = report.overall() == Verdict::kVerified;
  std::printf("  all five steps verified:            %s\n",
              all_verified ? "yes" : "NO");
  std::printf("  experiment 1 needs no refinement:   %s\n",
              refinements_of(recs[0]) == 0 ? "yes" : "NO");
  // The paper's hardest steps expose a transistor-level stage to a
  // pulse-driven environment (exp 5, and exp 3's IN side); the
  // handshake-only obligations (2, 4) need fewer constraints.
  const int pulse_min =
      std::min(refinements_of(recs[2]), refinements_of(recs[4]));
  const int handshake_max =
      std::max(refinements_of(recs[1]), refinements_of(recs[3]));
  std::printf("  pulse-driven steps (3,5) hardest:   %s (min %d vs max %d)\n",
              pulse_min >= handshake_max ? "yes" : "NO", pulse_min,
              handshake_max);

  std::printf("\nBack-annotated relative timing constraints (experiment 5):\n");
  std::printf("%s", format_constraints(recs[4].result).c_str());
  return exit_code(report.overall());
}
