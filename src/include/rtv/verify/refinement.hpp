// The relative-timing verification flow (the paper's Fig. 3, as implemented
// by the transyt tool of [13]):
//
//   compose -> search failure -> timing-consistent? -> counterexample
//                     ^                |no
//                     |   extract window / derive constraints
//                     +---- refine (enabling-compatible product) ----+
//
// Iterates until no failure remains (verified, with back-annotated relative
// timing constraints), a timing-consistent failure is found (a true
// counterexample), or the iteration budget is exhausted (inconclusive).
#pragma once

#include <cstddef>
#include <string_view>

#include "rtv/verify/engine.hpp"

namespace rtv {

/// The relative-timing refinement engine, registered as "refine".  It
/// decides the request's composition and reports its per-iteration detail
/// in RefineEngineStats.
class RefineEngine final : public Engine {
 public:
  /// The registry's instance uses the defaults.
  ///
  /// `structural_rule`: apply the structural relative-timing rule (see
  /// RefinedSystem) from the first iteration; off reproduces the pure
  /// trace-by-trace flow.  `max_waves`: wave cap of the refined states'
  /// timing annotation (see RefinedSystem::set_max_waves); smaller =
  /// coarser but cheaper.
  explicit RefineEngine(bool structural_rule = true,
                        std::size_t max_waves = 6)
      : structural_rule_(structural_rule), max_waves_(max_waves) {}

  std::string_view name() const override { return "refine"; }
  std::string_view description() const override {
    return "relative-timing refinement (the paper's flow: untimed search + "
           "derived timing constraints)";
  }
  /// The refinement loop is sequential (each iteration's failure search
  /// depends on the previous iteration's constraints), so request.jobs is
  /// not used here.
  EngineResult run(const EngineRequest& request) const override;

 private:
  bool structural_rule_;
  std::size_t max_waves_;
};

}  // namespace rtv
