// Test helpers for the engine contract (rtv/verify/engine.hpp): compose an
// obligation the way run_suite() does and decide it on one engine.
#pragma once

#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "rtv/verify/engine.hpp"

namespace rtv::test {

/// The choke-tracking composition run_suite() hands its engines.
inline Composition compose_for_engines(
    const std::vector<const Module*>& modules, std::size_t jobs = 1) {
  ComposeOptions co;
  co.track_chokes = true;
  co.jobs = jobs;
  return compose(modules, co);
}

/// Compose `modules` and decide them on `engine`; `request` supplies the
/// budget and knobs (its composition and properties are filled in here).
inline EngineResult decide(const Engine& engine,
                           const std::vector<const Module*>& modules,
                           const std::vector<const SafetyProperty*>& properties,
                           EngineRequest request = {}) {
  const Composition comp = compose_for_engines(modules, request.jobs);
  request.composition = &comp;
  request.properties = properties;
  return engine.run(request);
}

/// Same, on a registry engine ("refine", "zone", "discrete").
inline EngineResult decide(std::string_view engine,
                           const std::vector<const Module*>& modules,
                           const std::vector<const SafetyProperty*>& properties,
                           EngineRequest request = {}) {
  return decide(*engine_registry().find(engine), modules, properties,
                std::move(request));
}

inline const RefineEngineStats& refine_stats(const EngineResult& r) {
  return std::get<RefineEngineStats>(r.stats);
}

}  // namespace rtv::test
