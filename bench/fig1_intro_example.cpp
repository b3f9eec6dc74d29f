// Reproduction of Figures 1 and 2: the introductory refinement example.
//
// Fig. 1 shows a small timed transition system whose untimed state space
// violates "g before d", together with the lazy transition systems after
// each refinement (states pruned as timing-inconsistent).  Fig. 2 shows
// the failure traces and their causal event structures with the derived
// timing arcs.  This bench replays the flow and reports, per iteration,
// the failure trace, the derived constraint, and the size of the refined
// state space (the analogue of the gray vs. white states of Fig. 1).
#include <cstdio>

#include "rtv/lazy/refined_system.hpp"
#include "rtv/timing/ces.hpp"
#include "rtv/timing/orderings.hpp"
#include "rtv/verify/report.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/suite.hpp"

using namespace rtv;

namespace {

/// Decide one obligation on one registry engine.
EngineResult decide(const char* engine, std::vector<const Module*> modules,
                    std::vector<const SafetyProperty*> properties) {
  Suite suite;
  suite.add("intro", std::move(modules), std::move(properties));
  SuiteOptions opts;
  opts.engines = {engine};
  return run_suite(suite, opts).records.front().result;
}

}  // namespace

int main() {
  const Module sys = gallery::intro_example();
  const Module mon = gallery::order_monitor("g", "d");
  const InvariantProperty bad("g before d", {{"fail", true}});

  std::printf("Introductory example (Figs. 1-2): events and delays\n");
  for (const char* l : {"a", "b", "c", "g", "d"}) {
    const EventId e = sys.ts().event_by_label(l);
    std::printf("  %s %s\n", l, sys.ts().delay(e).to_string().c_str());
  }
  std::printf("property: g always fires before d\n\n");

  // The untimed state space violates the property (strip all delays)...
  {
    TransitionSystem stripped = sys.ts();
    for (std::size_t i = 0; i < stripped.num_events(); ++i)
      stripped.set_event_delay(EventId(static_cast<EventId::underlying_type>(i)),
                               DelayInterval::unbounded());
    const Module untimed_sys("intro-untimed", std::move(stripped));
    const EngineResult u = decide("refine", {&untimed_sys, &mon}, {&bad});
    std::printf("untimed check: %s (as in Fig. 1(a): d can fire before g)\n",
                u.verdict == Verdict::kViolated ? "VIOLATED"
                                                : to_string(u.verdict));
  }

  // ...the exact timed state space satisfies it...
  const EngineResult z = decide("zone", {&sys, &mon}, {&bad});
  std::printf("exact timed check (zone graph): %s\n\n",
              z.violated() ? "VIOLATED" : "satisfied");

  // ...and the iterative relative-timing flow proves it.
  const EngineResult r = decide("refine", {&sys, &mon}, {&bad});
  std::printf("%s\n", format_report("relative-timing flow", r).c_str());

  // Fig. 2(c,d): causal event structure of the canonical failure trace
  // with the timing arcs derived by max-separation analysis.
  {
    const TransitionSystem& ts = sys.ts();
    Trace trace;
    StateId s = ts.initial();
    for (const char* l : {"a", "c", "d"}) {
      const EventId e = ts.event_by_label(l);
      TraceStep step{s, e, ts.enabled_events(s)};
      trace.steps.push_back(step);
      s = *ts.successor(s, e);
    }
    trace.final_state = s;
    trace.final_enabled = ts.enabled_events(s);
    const Ces ces = extract_ces(ts, trace);
    std::printf("CES of the failure trace a,c,d (Fig. 2(c) analogue):\n%s",
                ces.to_string().c_str());
    const auto orderings = derive_ces_orderings(ces);
    std::printf("derived timing arcs:\n%s\n",
                format_ces_orderings(ces, orderings).c_str());
  }
  return r.verified() && !z.violated() ? 0 : 1;
}
