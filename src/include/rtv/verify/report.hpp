// Human-readable reporting of verification results: per-iteration
// refinement logs, back-annotated relative timing constraints (the paper's
// Fig. 13 deliverable) and experiment summary tables (Table 1).
//
// The table renders the batch-verification records of rtv/verify/suite.hpp.
#pragma once

#include <string>

#include "rtv/verify/engine.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv {

/// Full textual report of one verification run, with the per-iteration
/// refinement log when the result carries RefineEngineStats.
std::string format_report(const std::string& title, const EngineResult& result);

/// Only the deduplicated relative timing constraints (empty unless the
/// result carries RefineEngineStats).
std::string format_constraints(const EngineResult& result);

/// Render a whole suite report as an aligned text table: one line per
/// obligation×engine record with verdict, states (the record's
/// states_explored, the JSON `states`), refinements (`-` without
/// RefineEngineStats), times and stop reason, followed by a one-line
/// roll-up (overall verdict, wall clock, jobs).
std::string format_table(const SuiteReport& report);

}  // namespace rtv
