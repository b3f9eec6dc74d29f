// Reproduction of Figures 1 and 2: the introductory refinement example.
//
// Fig. 1 shows a small timed transition system whose untimed state space
// violates "g before d", together with the lazy transition systems after
// each refinement (states pruned as timing-inconsistent).  Fig. 2 shows
// the failure traces and their causal event structures with the derived
// timing arcs.  This bench replays the flow and reports, per iteration,
// the failure trace, the derived constraint, and the size of the refined
// state space (the analogue of the gray vs. white states of Fig. 1); it
// then renders the first failure trace's causal arcs and banning orderings
// from the same trace timing model the refinement engine uses.
#include <cstdio>

#include "rtv/lazy/refined_system.hpp"
#include "rtv/timing/trace_timing.hpp"
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

  // Fig. 2(c,d): the causal arcs of the canonical failure trace, each
  // occurrence drawn from the point that enabled it, and the orderings
  // that ban the trace.
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
    const PredecessorIndex preds(ts);
    const TraceTimingModel model(ts, preds, trace);

    const auto arc = [&](EventId e, int point, bool pending) {
      const int m = model.enabling_point(e, point);
      std::printf("  %s %s%s <- %s\n", ts.label(e).c_str(),
                  ts.delay(e).to_string().c_str(), pending ? " (pending)" : "",
                  m == 0 ? "start" : ts.label(model.fired(m - 1)).c_str());
    };
    std::printf("causal arcs of the failure trace a,c,d (Fig. 2(c) analogue):\n");
    for (int k = 0; k < model.num_points(); ++k) arc(model.fired(k), k, false);
    for (EventId e : trace.final_enabled) arc(e, model.num_points(), true);

    if (const std::optional<BanWindow> win = model.find_ban_window()) {
      std::printf("ban window: points [%d..%d] %s\n", win->anchor_point,
                  win->last_point,
                  win->from_start ? "anchored at run start"
                                  : "anchored at any visit");
      std::printf("banning orderings:\n");
      for (const DerivedOrdering& o : model.explain(*win))
        std::printf("  %s before %s\n", o.before.c_str(), o.after.c_str());
    }
  }
  return r.verified() && !z.violated() ? 0 : 1;
}
