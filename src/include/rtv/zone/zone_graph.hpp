// Exact timed reachability of a composed TTS via zone-graph exploration.
//
// Semantics (timed transition systems with inertial delays, [7]): every
// enabled event owns a clock measuring how long it has been enabled; an
// event may fire when its clock is within [lo, hi] and time cannot pass
// beyond any enabled event's upper bound (maximal progress).  Events that
// stay enabled across a firing keep their clocks; newly enabled events (and
// re-enabled ones) restart at 0.
//
// This is the library's ground-truth engine: exponential in clocks, used to
// cross-validate the relative-timing flow and to measure the cost it
// avoids.
#pragma once

#include <string_view>

#include "rtv/verify/engine.hpp"

namespace rtv {

/// Exact dense-time reachability over DBM zones, registered as "zone".
/// It explores the request's composition, checking the properties plus
/// containment chokes; EngineResult::states_explored counts stored zones,
/// a hard ceiling enforced at insertion (the initial zone is always
/// admitted).  The zone expansion is sequential (subsumption makes its
/// exploration order load-bearing), so request.jobs is not used here.
class ZoneEngine final : public Engine {
 public:
  std::string_view name() const override { return "zone"; }
  std::string_view description() const override {
    return "exact dense-time reachability over DBM zones (ground truth, "
           "exponential in clocks)";
  }
  EngineResult run(const EngineRequest& request) const override;
};

}  // namespace rtv
