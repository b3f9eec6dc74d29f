// Induction over replicated structures (the paper's Section 2.2 /
// experiments 3-4, after [17]'s behavioural fixed points).
//
// To prove that `abstraction` soundly abstracts  base_env || C || C || ...
// for any number of components C, two obligations suffice:
//
//   base:  base_env || C || context          <=  abstraction
//   step:  left_abstraction || C || context  <=  abstraction
//
// where `left_abstraction` is the abstraction instantiated at the
// component's left boundary (the induction hypothesis) and `context`
// closes the right side.  Both checks run the full relative-timing flow.
#pragma once

#include "rtv/verify/containment.hpp"

namespace rtv {

struct InductionResult {
  EngineResult base;
  EngineResult step;

  bool proved() const {
    return base.verdict == Verdict::kVerified &&
           step.verdict == Verdict::kVerified;
  }

  /// Union of the relative timing constraints of both obligations.
  std::vector<DerivedOrdering> constraints() const;
};

InductionResult prove_fixed_point(
    const Module& base_env, const Module& left_abstraction,
    const Module& component, const Module& context, const Module& abstraction,
    const std::vector<const SafetyProperty*>& properties = {});

}  // namespace rtv
