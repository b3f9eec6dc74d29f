// Language-containment ("diamond") checks for assume-guarantee reasoning.
//
// check_containment(system, abstraction) verifies that every output the
// system produces on the abstraction's alphabet can also be produced by the
// abstraction under the same stimuli (the paper's Section 2.2): the
// abstraction runs as a passive monitor and any refusal is a failure that
// the relative-timing flow then tries to prove timing-impossible.
#pragma once

#include <vector>

#include "rtv/verify/engine.hpp"

namespace rtv {

/// Verify  (|| system)  <=  abstraction  restricted to the abstraction's
/// alphabet on the "refine" engine (composed once, chokes tracked, no lint
/// pre-flight or slicing).  Extra properties (e.g. deadlock-freedom of the
/// closed system) are checked in the same run.
EngineResult check_containment(
    const std::vector<const Module*>& system, const Module& abstraction,
    const std::vector<const SafetyProperty*>& extra_properties = {});

}  // namespace rtv
