// Discrete-time (digitized) reachability.
//
// The paper cites digitization [8] ("What good are digital clocks?") as an
// alternative to dense-time analysis and notes it "poses serious problems
// when the number of clocks or the constants of the timing constraints are
// large".  This engine makes that claim measurable: it explores states
// (location, integer clock valuation) with one clock per enabled event,
// advancing time in one-tick quanta, with per-clock saturation at the
// event's upper bound (bounded counters).
//
// For closed delay intervals on the integer tick grid, digitization is
// exact for reachability of discrete states: the verdicts must match the
// zone engine — the EngineParity tests check it.  The cost difference
// (states scale with the magnitude of the constants) vs zones (polyhedra)
// vs relative timing (untimed graph + derived constraints) is measured by
// `rtvbench --workload table1-exact`.
#pragma once

#include <string_view>

#include "rtv/verify/engine.hpp"

namespace rtv {

/// Digitized reachability with integer ages, registered as "discrete".
/// EngineResult::states_explored counts (location, valuation) configs, a
/// hard ceiling enforced at insertion.  The BFS splits each layer across
/// request.jobs workers; verdicts, counts, the violation chosen and its
/// counterexample trace are identical for every job count (each layer is
/// merged in sequential BFS order and the first violation in that order
/// wins).  Traces
/// list firing labels only: delay ticks are implicit, as in the zone
/// engine's traces.
class DiscreteEngine final : public Engine {
 public:
  std::string_view name() const override { return "discrete"; }
  std::string_view description() const override {
    return "digitized reachability with integer ages (cost grows with the "
           "timing constants)";
  }
  EngineResult run(const EngineRequest& request) const override;
};

}  // namespace rtv
