// Delay-slack exploration (the paper's back-annotation claim):
//
//   "These constraints indicate the slacks allowable in the delays of the
//    components for which a correct behavior can still be guaranteed."
//
// For selected stage delays, sweep the parameter and report the boundary
// between VERIFIED and VIOLATED — the slack margin of the design.
// The paper's orderings predict the boundaries: e.g. Y- [1,2] must finish
// before CLKE- [3,4] (both triggered by ACK+), so Y-'s upper bound can
// grow to CLKE-'s lower bound (3) and no further.
#include <cstdio>
#include <functional>

#include "rtv/ipcmos/experiments.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

struct Sweep {
  const char* name;
  const char* prediction;
  std::function<void(StageTiming&, double)> set;  // sets [lo, lo+1] at x = hi
  double from, to, step;
};

}  // namespace

int main() {
  const Sweep sweeps[] = {
      {"y_fall.hi (isolation after ACK+)",
       "must stay < clke_fall.lo = 3 (Fig. 13(c): Y- before CLKE-)",
       [](StageTiming& t, double hi) {
         t.y_fall = DelayInterval::units(1, hi);
       },
       2.0, 5.0, 0.5},
      {"z_rise.hi (inverter arming the Y pull-up)",
       "must stay < ack_rise.lo = 8 (Fig. 13(b): Z+ before ACK+)",
       [](StageTiming& t, double hi) {
         t.z_rise = DelayInterval::units(0, hi);
       },
       2.0, 10.0, 1.0},
      {"r_fall.hi (reset switch recording the launch)",
       "must finish inside the CLKE-low window",
       [](StageTiming& t, double hi) {
         t.r_fall = DelayInterval::units(1, hi);
       },
       2.0, 8.0, 1.0},
  };

  for (const Sweep& s : sweeps) {
    std::printf("sweep: %s\n  prediction: %s\n", s.name, s.prediction);
    double last_ok = -1, first_bad = -1;
    for (double v = s.from; v <= s.to + 1e-9; v += s.step) {
      ExperimentConfig cfg;
      s.set(cfg.timing.stage, v);
      const EngineResult r = experiment5(cfg);
      const auto* st = std::get_if<RefineEngineStats>(&r.stats);
      std::printf("  %6.2f : %s (%d refinements)\n", v, to_string(r.verdict),
                  st ? st->refinements : 0);
      if (r.verified()) {
        last_ok = v;
      } else if (first_bad < 0) {
        first_bad = v;
      }
    }
    if (first_bad >= 0) {
      std::printf("  slack boundary between %.2f and %.2f\n\n", last_ok,
                  first_bad);
    } else {
      std::printf("  no failure in the swept range\n\n");
    }
  }
  return 0;
}
