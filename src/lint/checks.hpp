// Internal seam between the lint driver (analyzer.cpp) and the check
// families.  Not installed: the public surface is rtv/lint/lint.hpp.
#pragma once

#include <vector>

#include "rtv/analysis/depgraph.hpp"
#include "rtv/analysis/slice.hpp"
#include "rtv/lint/lint.hpp"

namespace rtv::lint {

/// Shared state of one lint pass.  The driver builds the dependency
/// graph (rtv/analysis/depgraph.hpp) once — the same per-module
/// reachability facts the slicer consumes — and every check family reads
/// it.
struct CheckContext {
  const std::vector<const Module*>& modules;
  const std::vector<const SafetyProperty*>& properties;
  const LintOptions& options;
  /// Engine-range checks only arm when the obligation can reach the
  /// digitizing engine ("discrete" selected, or selection unknown).
  bool targets_discrete = true;
  /// True when *every* selected engine digitizes: certain discrete
  /// truncation then dooms the whole obligation (error); with a
  /// non-digitizing peer in the selection it only wastes one engine's
  /// budget (warning).
  bool only_discrete = false;
  /// Per-module reachability facts plus the shared-label structure, one
  /// computation shared between lint and the slicer.
  const analysis::DepGraph& graph;
  /// The slice the cone notes describe; null without properties.
  const analysis::SliceResult* slice;
  std::vector<Diagnostic>& out;

  /// Reachable states of module mi in BFS order (empty when the module
  /// has no valid initial state).
  const std::vector<StateId>& reachable(std::size_t mi) const {
    return graph.facts[mi].reachable;
  }
  /// True iff event ei of module mi labels a transition from some
  /// reachable state.
  bool fireable(std::size_t mi, std::size_t ei) const {
    return graph.facts[mi].fireable[ei];
  }

  void emit(const char* code, Severity severity, std::string module,
            std::string object, std::string message) {
    out.push_back(Diagnostic{code, severity, std::move(module),
                             std::move(object), std::move(message)});
  }
};

/// RTV-L001..L006, L009, L010: structure of modules and properties.
void check_well_formed(CheckContext& ctx);

/// RTV-L007, L008, L014, L015: facts derivable from per-module
/// reachability (never from the composition).
void check_reachability(CheckContext& ctx);

/// RTV-L011..L013: delay constants vs. the time-infinity sentinel, the
/// digitized state budget and the digitization-cost threshold.
void check_engine_range(CheckContext& ctx);

/// RTV-L016, L017: what the cone-of-influence slicer would drop.
void check_cone(CheckContext& ctx);

}  // namespace rtv::lint
