// Test helpers for the engine contract (rtv/verify/engine.hpp): compose an
// obligation the way run_suite() does and decide it on one engine; walk a
// refined system's whole reachable graph.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "rtv/lazy/refined_graph.hpp"
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

/// A request deciding `comp` under `properties`, with default knobs.
inline EngineRequest request(const Composition& comp,
                             std::vector<const SafetyProperty*> properties) {
  EngineRequest req;
  req.composition = &comp;
  req.properties = std::move(properties);
  return req;
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

struct RefinedWalk {
  std::size_t states = 0;           ///< refined states reached
  std::size_t transitions = 0;      ///< unblocked firings among them
  std::size_t blocked_firings = 0;  ///< firings the refinement prunes
  bool truncated = false;
};

/// Expand every state `graph` reaches from its initial state, stopping
/// past `max_states`, deciding blocking through the graph's per-edge memo
/// as the failure search does.  Graph ids are handed out in discovery order,
/// so they double as the BFS queue.
inline RefinedWalk walk_refined(RefinedGraph& graph,
                                std::size_t max_states = 1'000'000) {
  RefinedWalk walk;
  graph.initial();
  for (std::int32_t id = 0; static_cast<std::size_t>(id) < graph.size(); ++id) {
    if (graph.size() > max_states) {
      walk.truncated = true;
      break;
    }
    const auto transitions = graph.base().transitions_from(graph.base_state(id));
    for (std::size_t k = 0; k < transitions.size(); ++k) {
      if (graph.blocked_edge(id, k)) {
        ++walk.blocked_firings;
        continue;
      }
      graph.successor(id, k);
      ++walk.transitions;
    }
  }
  walk.states = graph.size();
  return walk;
}

}  // namespace rtv::test
