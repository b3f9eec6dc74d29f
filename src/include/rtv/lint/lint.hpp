// The static model analyzer: `rtv lint`.
//
// Every soundness bug this library has shipped — the 16-bit digitization
// wrap, the lazy-ts gap extrapolation — was a property of the *input
// model* interacting with an engine limit that was knowable before any
// exploration ran.  lint_modules() closes that gap: a purely structural
// pass over an obligation (modules + properties + budget) that runs *no
// engine* and emits stable, machine-readable Diagnostics
// (rtv/lint/diagnostic.hpp).  The checks span four families:
//
//   well-formedness     missing initial states, invalid or duplicate
//                       event declarations, dangling signal/label
//                       references from properties;
//   interval contradictions
//                       per-label empty delay-bound intersections across
//                       composed modules — the exact check compose()
//                       enforces (rtv/ts/delay_bounds.hpp), reported
//                       before composition with full context;
//   static reachability events that can never fire, dead signals,
//                       trivially unsatisfiable or tautological
//                       properties, trivially violated deadlock-freedom;
//   engine-range prediction
//                       delay constants vs. the discrete engine's
//                       digitization cost and the configured state
//                       budget — the wrap-bug class flagged statically
//                       instead of discovered as a truncated run.
//
// Callers: the `rtv lint` CLI subcommand, the run_suite() pre-flight
// (errors short-circuit to kInconclusive with stop_reason::kLintError;
// warnings attach to the suite records), the serve fast-reject path, and
// the fuzz campaign's lint cross-check.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rtv/analysis/depgraph.hpp"
#include "rtv/analysis/slice.hpp"
#include "rtv/base/interval.hpp"
#include "rtv/lint/diagnostic.hpp"
#include "rtv/ts/module.hpp"
#include "rtv/verify/property.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::lint {

// ---------------------------------------------------------------------------
// Check codes (stable; see docs/LINT.md for the full catalogue).
// ---------------------------------------------------------------------------

namespace check {
// well-formedness
inline constexpr const char* kNoInitialState = "RTV-L001";    ///< error
inline constexpr const char* kInvalidInterval = "RTV-L002";   ///< error
inline constexpr const char* kDuplicateLabel = "RTV-L003";    ///< error
inline constexpr const char* kDelayContradiction = "RTV-L004";  ///< error
inline constexpr const char* kDanglingSignal = "RTV-L005";    ///< error
inline constexpr const char* kDanglingExempt = "RTV-L006";    ///< warning
// static reachability
inline constexpr const char* kUnfireableEvent = "RTV-L007";   ///< warning
inline constexpr const char* kDeadSignal = "RTV-L008";        ///< warning
inline constexpr const char* kEmptyInvariant = "RTV-L009";    ///< error
inline constexpr const char* kTautologicalInvariant = "RTV-L010";  ///< warning
// engine-range prediction
inline constexpr const char* kInfinityAliasedBound = "RTV-L011";   ///< error
inline constexpr const char* kCertainTruncation = "RTV-L012";      ///< error
inline constexpr const char* kDigitizationCost = "RTV-L013";       ///< warning
// obligation shape
inline constexpr const char* kDisjointAlphabet = "RTV-L014";  ///< warning
inline constexpr const char* kTrivialDeadlock = "RTV-L015";   ///< warning
// cone of influence (what `rtv slice` would drop; rtv/analysis/slice.hpp)
inline constexpr const char* kOutsideCone = "RTV-L016";       ///< note
inline constexpr const char* kSliceUnreachable = "RTV-L017";  ///< note
}  // namespace check

/// Delay constants past this many ticks make digitization costly: the
/// discrete engine's tick-stepping cost is linear in the constants, so
/// RTV-L013 flags them as a cost hazard (RTV-L012 escalates to an error
/// when the configured state budget makes truncation certain).
inline constexpr Time kDigitizationCostTicks = 65535;

struct LintOptions {
  /// Engines the obligation is destined for; engine-range checks
  /// (RTV-L011..L013) only fire for engines that digitize.  Empty means
  /// "unknown" and keeps every engine-specific check armed.
  std::vector<std::string> engines;
  /// Effective per-engine state budget; 0 = each engine's native default
  /// (kDefaultDiscreteConfigs for the discrete engine).  Feeds RTV-L012's
  /// certain-truncation prediction.
  std::size_t max_states = 0;
};

/// Lint one obligation: modules composed over shared labels plus the
/// properties checked against the composition.  Purely structural — never
/// composes, never runs an engine; cost is linear in the component sizes.
/// The report comes back severity-sorted (errors first).  `graph` and
/// `slice` are the modules' dependency graph and the slice cut on it, which
/// the cone notes (RTV-L016/L017) describe; front_end() hands both in.
/// Null builds them here, slicing with choke tracking on.
LintReport lint_modules(const std::vector<const Module*>& modules,
                        const std::vector<const SafetyProperty*>& properties,
                        const LintOptions& options = {},
                        const analysis::DepGraph* graph = nullptr,
                        const analysis::SliceResult* slice = nullptr);

/// Lint one suite obligation exactly as run_suite()'s pre-flight does:
/// front_end(obligation, options).lint, with the pre-flight forced on.
LintReport lint_obligation(const Obligation& obligation,
                           const SuiteOptions& options = {});

}  // namespace rtv::lint
