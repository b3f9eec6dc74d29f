// Quickstart: verify a timed ordering property with relative timing.
//
// Build a small timed transition system, state a safety property as a
// monitor + invariant, compose the two once, run the iterative
// relative-timing flow on the composition, and read the back-annotated
// constraints.  This is the paper's introductory
// example (Fig. 1) end to end.
//
//   $ ./quickstart
#include <cstdio>
#include <string>

#include "rtv/ts/compose.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/report.hpp"

using namespace rtv;

int main() {
  // 1. The system under verification: five events with delay intervals.
  //    a [2.5,3] triggers c [1,2] which triggers d [0,inf);
  //    b [1,2] triggers g [0.5,0.5]; the two chains are concurrent.
  const Module system = gallery::intro_example();

  // 2. The property: g must always fire before d.  Monitors are ordinary
  //    modules; this one raises its `fail` signal when d comes first.
  const Module monitor = gallery::order_monitor("g", "d");
  const InvariantProperty property("g before d", {{"fail", true}});

  // 3. Compose once: the product of system and monitor over their shared
  //    labels, tracking outputs a participant refuses.  Every engine
  //    below reads this one composition.
  ComposeOptions copts;
  copts.track_chokes = true;
  const Composition product = compose({&system, &monitor}, copts);

  // 4. Run the flow: search failures, prove each failure
  //    timing-inconsistent, refine with the derived constraint, repeat.
  EngineRequest req;
  req.composition = &product;
  req.properties = {&property};
  const EngineResult result = engine_registry().find("refine")->run(req);

  std::printf("%s", format_report("quickstart", result).c_str());
  std::printf("\nrelative timing constraints sufficient for correctness:\n%s",
              format_constraints(result).c_str());

  // 5. Programmatic access to the verdict.
  if (!result.verified()) {
    std::printf("verification failed: %s\n", result.message.c_str());
    return 1;
  }
  std::printf("\nverified in %d refinement iterations.\n",
              std::get<RefineEngineStats>(result.stats).refinements);

  // 6. The same composition through the unified engine seam: every engine
  //    in engine_registry() (relative timing, dense-time zones, digitized
  //    time) answers with the same three-valued Verdict, under a shared
  //    budget (state cap + wall-clock deadline + cancellation).
  std::printf("\ncross-checking with every registered engine:\n");
  req.budget.max_seconds = 10.0;  // generous deadline, same for all engines
  for (const Engine* engine : engine_registry().engines()) {
    const EngineResult r = engine->run(req);
    std::printf("  %-10s %-13s %8zu states  %.3f s\n",
                std::string(engine->name()).c_str(), to_string(r.verdict),
                r.states_explored, r.seconds);
    if (!r.verified()) return 1;
  }
  return 0;
}
