// The five verification experiments of Table 1 (Section 4.2):
//
//   1. A_in || A_out |= S                (assume: abstractions meet the spec)
//   2. A_in || I || OUT  <=  A_out       (guarantee A_out)
//   3. IN  || I || A_out <=  A_in        (guarantee A_in, induction base)
//   4. A_in || I || A_out <=  A_in       (A_in is a behavioural fixed point)
//   5. IN  || I || OUT  |= S             (1-stage pipeline, both ends pulsed)
//
// S ("every data item is acknowledged once and only once at every stage")
// is checked as deadlock-freedom of the closed control system plus the
// protocol conformance embodied by the environment/abstraction STGs (an
// extra or missing ACK chokes them), plus the CMOS correctness conditions
// (short-circuit invariants and persistency) whenever a transistor-level
// stage is present.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::ipcmos {

struct ExperimentConfig {
  PipelineTiming timing;
  /// Per-obligation budget; fields left at zero inherit the suite-wide
  /// SuiteOptions budget (the engines' native defaults when run here).
  RunBudget budget;
  /// Refinement iteration cap of every obligation.
  std::size_t max_refinements = 500;
};

/// The five Table 1 obligations as a declarative batch: the suite owns the
/// pipeline modules, containment monitors and property bundles, so it can
/// be handed straight to run_suite() — obligations in parallel, any engine
/// selection, machine-readable report.  This is the one definition of the
/// five obligations; everything below runs it.
Suite table1_suite(const ExperimentConfig& cfg = {});

/// Obligation `n` (1..5) of table1_suite(cfg), decided on the "refine"
/// engine with one worker (lint pre-flight and slicing on, as `rtv ipcmos`
/// runs it).  Throws std::out_of_range for any other `n`.
EngineResult experiment(std::size_t n, const ExperimentConfig& cfg = {});

/// All five in order, with the paper's row labels (the obligation names).
struct NamedResult {
  std::string name;
  EngineResult result;
};
std::vector<NamedResult> run_all_experiments(const ExperimentConfig& cfg = {});

}  // namespace rtv::ipcmos
