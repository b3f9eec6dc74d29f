// Human-readable reporting of verification results: per-iteration
// refinement logs, back-annotated relative timing constraints (the paper's
// Fig. 13 deliverable) and experiment summary tables (Table 1).
//
// The tables are built on the batch-verification records of
// rtv/verify/suite.hpp: a SuiteReport renders directly, or as one
// ExperimentRow per record in the paper's Table 1 shape.
#pragma once

#include <string>
#include <vector>

#include "rtv/verify/engine.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv {

/// Full textual report of one verification run, with the per-iteration
/// refinement log when the result carries RefineEngineStats.
std::string format_report(const std::string& title, const EngineResult& result);

/// Only the deduplicated relative timing constraints (empty unless the
/// result carries RefineEngineStats).
std::string format_constraints(const EngineResult& result);

/// A Table-1-style summary row: name, verdict, CPU time, refinements.
struct ExperimentRow {
  std::string name;
  Verdict verdict = Verdict::kInconclusive;
  double seconds = 0.0;
  int refinements = 0;
  std::size_t states = 0;
};

/// Summary of a unified engine result: refinement count from
/// RefineEngineStats when present (0 otherwise), states from
/// states_explored (the engine's own exploration unit).
ExperimentRow summarize(const std::string& name, const EngineResult& r);

/// One row per suite record, named "obligation" (single-engine reports) or
/// "obligation [engine]" (several engines per obligation).
std::vector<ExperimentRow> rows_from(const SuiteReport& report);

/// Render rows as an aligned text table; the name column fits the longest
/// name.
std::string format_table(const std::vector<ExperimentRow>& rows);

/// Render a whole suite report as an aligned text table: one line per
/// obligation×engine record with verdict, stop reason, states and times,
/// followed by a one-line roll-up (overall verdict, wall clock, jobs).
std::string format_table(const SuiteReport& report);

}  // namespace rtv
