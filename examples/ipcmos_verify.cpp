// Full IPCMOS verification: the paper's assume-guarantee plan.
//
// Verifies an n-stage IPCMOS pipeline for every n > 0 by running the five
// obligations of Section 4.2:
//   1. the abstractions meet the specification,
//   2. A_out is a sound abstraction of I || OUT,
//   3. A_in  is a sound abstraction of IN || I (induction base),
//   4. A_in  is a behavioural fixed point (induction step),
//   5. a single stage works between two pulse-driven environments.
//
//   $ ./ipcmos_verify
#include <cstdio>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/verify/report.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

int main() {
  // The stage is a 32-transistor netlist (21 + 7 inputs + 4 outputs),
  // reconstructed from the paper's stack-level description.
  const Netlist stage = make_stage_netlist("I1", linear_channels(1));
  std::printf("IPCMOS stage: %d transistors, %zu nodes, %zu stacks\n\n",
              stage.transistor_count(), stage.num_nodes(),
              stage.stacks().size());

  const SuiteReport report = run_suite(table1_suite());
  std::printf("%s\n", format_table(report).c_str());

  if (report.overall() != Verdict::kVerified) {
    for (const SuiteRecord& rec : report.records) {
      if (!rec.result.verified()) {
        std::printf("FAILED %s: %s\n", rec.obligation.c_str(),
                    rec.result.message.c_str());
      }
    }
    return 1;
  }

  std::printf("pipelines of every length n > 0 are verified:\n"
              "  - steps 3 and 4 induct over the pipeline length,\n"
              "  - step 2 closes the output end,\n"
              "  - step 5 covers the single-stage case,\n"
              "  - step 1 ties the abstractions to the specification.\n\n");

  std::printf("sufficient relative timing constraints (from step 5):\n%s",
              format_constraints(report.records[4].result).c_str());
  return 0;
}
