// Ablation: the refinement engine's two pruning mechanisms.
//
//   * ordering pairs, justified per state by the enabling-instant matrix
//     (the operational form of the paper's relative timing constraints),
//   * exact window bans (one trace pattern at a time).
//
// With the ordering rule disabled, every failure interleaving must be
// banned separately — the iteration count explodes, which is why
// generalising a failure to ordering pairs matters.  The pairs are the
// ones TraceTimingModel::explain() (rtv/timing/trace_timing.hpp) derives
// from the failure trace's timing.
#include <cstdio>

#include "rtv/ipcmos/experiments.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/refinement.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

const RefineEngine pairs;
const RefineEngine windows(/*structural_rule=*/false);

/// Compose once, decide on both refinement modes.
void ablate(const char* sys, const std::vector<const Module*>& modules,
            const std::vector<const SafetyProperty*>& properties,
            std::size_t window_cap) {
  ComposeOptions co;
  co.track_chokes = true;
  const Composition comp = compose(modules, co);
  EngineRequest req;
  req.composition = &comp;
  req.properties = properties;
  for (const RefineEngine* engine : {&pairs, &windows}) {
    if (engine == &windows) req.max_refinements = window_cap;
    const EngineResult r = engine->run(req);
    std::printf("%-28s %10s %14s %12d %10.3f\n", sys,
                engine == &pairs ? "pairs" : "windows", to_string(r.verdict),
                std::get<RefineEngineStats>(r.stats).refinements, r.seconds);
  }
}

}  // namespace

int main() {
  std::printf("%-28s %10s %14s %12s %10s\n", "system", "mode", "verdict",
              "refinements", "seconds");

  // Intro example: small enough for both modes.
  {
    const Module sys = gallery::intro_example();
    const Module mon = gallery::order_monitor("g", "d");
    const InvariantProperty bad("g before d", {{"fail", true}});
    ablate("intro example", {&sys, &mon}, {&bad}, 500);
  }

  // Experiment 2 (containment of a transistor-level stage) and experiment
  // 5, window-only mode capped: it diverges.
  constexpr std::size_t kWindowCap = 60;
  const Suite table1 = table1_suite();
  const Obligation& exp2 = table1.obligations()[1];
  ablate("exp2: Ain||I||OUT <= Aout", exp2.modules, exp2.properties,
         kWindowCap);
  std::printf("  (window-only mode capped at %zu iterations: each failure\n"
              "   interleaving needs its own ban — the ordering pairs\n"
              "   explain() derives are what make the flow converge)\n",
              kWindowCap);
  const Obligation& exp5 = table1.obligations()[4];
  ablate("exp5: IN||I||OUT |= S", exp5.modules, exp5.properties, kWindowCap);
  return 0;
}
