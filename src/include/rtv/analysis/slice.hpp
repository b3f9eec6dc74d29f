// Property-directed cone-of-influence slicing of obligations.
//
// The engines pay for the full composed product even when whole modules
// cannot influence the checked properties.  slice() computes, per
// property kind, which modules are provably irrelevant — outside the
// cone of influence of every referenced signal, label and synchronization
// — drops them, and prunes statically-unreachable states (plus dead,
// unshared events) inside the kept modules.  The result is
// verdict-preserving by construction: whenever a construct is not
// provably irrelevant the slicer bails out to the identity slice and says
// why.  See docs/ANALYSIS.md for the cone rules and the soundness
// arguments behind them.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "rtv/analysis/depgraph.hpp"
#include "rtv/verify/property.hpp"

namespace rtv::analysis {

struct SliceOptions {
  /// Mirror of Obligation::track_chokes.  With choke tracking on, a
  /// refused output anywhere inside a multi-module component is itself a
  /// reportable failure, so only single-module components (which cannot
  /// choke) are ever droppable.
  bool track_chokes = true;
};

/// One provenance entry: what the slicer dropped, or why it refused.
struct SliceNote {
  /// "module" (whole module dropped), "events" (dead unshared events
  /// removed from a kept module), "states" (statically-unreachable states
  /// pruned from a kept module), or "bailout" (identity slice forced).
  std::string kind;
  std::string module;  ///< module the note anchors in ("" for bailout)
  std::string object;  ///< event label or count ("" when not applicable)
  std::string reason;
};

/// A reduced obligation plus the provenance of everything removed.
struct SliceResult {
  /// Kept modules in original relative order.  Pointers reference either
  /// the caller's modules (kept untouched) or entries of `reduced`
  /// (pruned rebuilds); both stay valid as long as this result and the
  /// caller's modules live.
  std::vector<const Module*> modules;
  /// Index into the caller's vector for each kept module.
  std::vector<std::size_t> kept;
  /// Owned pruned rebuilds (deque: stable addresses for `modules`).
  std::deque<Module> reduced;
  /// True when the slice is the input unchanged: every module kept, no
  /// state or event pruned.
  bool identity = true;
  /// Non-empty when the slicer conservatively refused to slice; the
  /// result is then the identity slice and `notes` holds one "bailout"
  /// entry with this reason.
  std::string bailout;
  std::vector<SliceNote> notes;

  std::size_t dropped_modules = 0;
  /// Events removed: the whole alphabet of dropped modules plus dead
  /// events pruned from kept ones.
  std::size_t dropped_events = 0;
  std::size_t pruned_states = 0;
};

/// Compute the cone-of-influence slice of `modules` under `properties`.
/// Pass a prebuilt `graph` to reuse an existing dependency analysis (it
/// must describe exactly these modules); nullptr builds one internally.
SliceResult slice(const std::vector<const Module*>& modules,
                  const std::vector<const SafetyProperty*>& properties,
                  const SliceOptions& options = {},
                  const DepGraph* graph = nullptr);

/// The identity slice of `modules`: every module kept, nothing pruned.  A
/// non-empty `bailout_reason` records why slicing was refused.
SliceResult identity_slice(const std::vector<const Module*>& modules,
                           std::string bailout_reason = "");

/// Canonical module order: ascending 64-bit content hash, stable for
/// ties.  Two obligations with the same cone enumerate byte-identical
/// module streams in this order no matter how their inputs were arranged
/// — the serve cache keys on it (rtv/verify/obligation_hash.hpp).
std::vector<const Module*> canonical_order(
    const std::vector<const Module*>& modules);

}  // namespace rtv::analysis
