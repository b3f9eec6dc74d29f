// Lint driver: precompute per-module reachability facts, run the check
// families, severity-sort the findings.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "rtv/lint/lint.hpp"

namespace rtv::lint {

namespace {

bool selection_digitizes(const std::vector<std::string>& engines) {
  // An empty selection means "unknown" — keep engine-specific checks
  // armed rather than silently skipping them.
  if (engines.empty()) return true;
  return std::find(engines.begin(), engines.end(), "discrete") !=
         engines.end();
}

bool selection_only_digitizes(const std::vector<std::string>& engines) {
  if (engines.empty()) return false;  // unknown: assume a peer may decide
  return std::all_of(engines.begin(), engines.end(),
                     [](const std::string& e) { return e == "discrete"; });
}

}  // namespace

LintReport lint_modules(const std::vector<const Module*>& modules,
                        const std::vector<const SafetyProperty*>& properties,
                        const LintOptions& options,
                        const analysis::DepGraph* graph,
                        const analysis::SliceResult* slice) {
  LintReport report;
  if (modules.empty()) {
    report.diagnostics.push_back(
        Diagnostic{check::kNoInitialState, Severity::kError, "", "",
                   "obligation carries no modules — nothing to verify"});
    return report;
  }

  // One dependency analysis per pass: per-module BFS reachability,
  // fireable events, and the shared-label structure — the same facts the
  // rtv/analysis slicer consumes.
  analysis::DepGraph local;
  if (!graph) {
    local = analysis::build_depgraph(modules);
    graph = &local;
  }
  // Without properties there is no cone, so the cone notes need no slice.
  analysis::SliceResult local_slice;
  if (!slice && !properties.empty()) {
    local_slice = analysis::slice(modules, properties, {}, graph);
    slice = &local_slice;
  }
  CheckContext ctx{modules,
                   properties,
                   options,
                   selection_digitizes(options.engines),
                   selection_only_digitizes(options.engines),
                   *graph,
                   slice,
                   report.diagnostics};

  check_well_formed(ctx);
  check_reachability(ctx);
  check_engine_range(ctx);
  check_cone(ctx);

  report.sort_by_severity();
  return report;
}

LintReport lint_obligation(const Obligation& obligation,
                           const SuiteOptions& options) {
  SuiteOptions with_preflight = options;
  with_preflight.preflight = true;
  return front_end(obligation, with_preflight).lint;
}

}  // namespace rtv::lint
