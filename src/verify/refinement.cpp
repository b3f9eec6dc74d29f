#include "rtv/verify/refinement.hpp"

#include <algorithm>
#include <sstream>

#include "rtv/base/log.hpp"
#include "rtv/lazy/refined_graph.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/verify/failure_search.hpp"

namespace rtv {

std::vector<DerivedOrdering> RefineEngineStats::constraints() const {
  std::vector<DerivedOrdering> all;
  for (const RefinementRecord& r : records)
    all.insert(all.end(), r.orderings.begin(), r.orderings.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

EngineResult RefineEngine::run(const EngineRequest& request) const {
  obs::Span span("engine:refine", "engine");
  const Composition& comp = checked_composition(request);
  const std::size_t max_states = request.budget.max_states
                                     ? request.budget.max_states
                                     : kDefaultRefineStates;
  RunClock clock(name(), request.budget, request.progress,
                 request.progress_interval);
  EngineResult result;
  RefineEngineStats st;
  st.composed_states = comp.ts.num_states();

  auto finish = [&](const char* truncated_reason) {
    if (truncated_reason) {
      result.truncated_reason = truncated_reason;
      if (result.message.empty()) result.message = truncated_reason;
    }
    result.seconds = clock.seconds();
    result.stats = std::move(st);
    record_engine_run(name(), result);
    return result;
  };

  RTV_INFO << "composed " << comp.ts.num_states() << " states, "
           << comp.chokes.size() << " potential refusals";

  RefinedSystem refined(comp.ts, comp.index());
  refined.enable_age_rule(structural_rule_);
  refined.set_max_waves(max_waves_);
  // Kept for the whole run: the graph drops its states only when the
  // refined-state encoding changes (the first activated pair, an observer);
  // the checks and the predecessor index depend on the composition only.
  RefinedGraph graph(refined);
  const SafetyChecks checks(comp, request.properties);
  const PredecessorIndex preds(comp.ts);
  // The BFS, kept too: each iteration resumes it where the new pairs first
  // change it.
  FailureSearch search;

  std::string last_signature;
  for (std::size_t iter = 0; iter <= request.max_refinements; ++iter) {
    obs::Span iter_span("refine iteration " + std::to_string(iter), "engine");
    FailureSearchStats stats;
    const auto failure = search.run(graph, checks, max_states, &stats, &clock);
    result.states_explored = stats.states_explored;
    st.heads_expanded += stats.heads_expanded;
    RTV_INFO << "iteration " << iter << ": visited " << stats.states_explored
             << ", subsumed " << stats.states_subsumed << ", newly interned "
             << stats.states_interned << ", expanded "
             << stats.heads_expanded;
    if (stats.truncated) {
      const char* reason = stats.stop_reason ? stats.stop_reason
                                             : stop_reason::kStateBudget;
      result.message =
          std::string(reason) + " during failure search";
      return finish(reason);
    }
    if (!failure) {
      result.verdict = Verdict::kVerified;
      result.message = "no failure reachable under derived timing constraints";
      break;
    }

    const TraceTimingModel model(comp.ts, preds, failure->trace,
                                 failure->virtual_event, comp.chokes);
    if (model.consistent()) {
      result.verdict = Verdict::kViolated;
      st.counterexample = failure->trace;
      for (const TraceStep& step : failure->trace.steps)
        result.trace_labels.push_back(comp.ts.label(step.event));
      if (failure->virtual_event.valid())
        result.trace_labels.push_back(comp.ts.label(failure->virtual_event));
      std::ostringstream os;
      os << failure->description << " via "
         << failure->trace.to_string(comp.ts);
      if (failure->virtual_event.valid())
        os << " then " << comp.ts.label(failure->virtual_event);
      result.message = os.str();
      break;
    }

    if (iter == request.max_refinements) {
      result.message = stop_reason::kRefinementBudget;
      return finish(stop_reason::kRefinementBudget);
    }

    const auto window = model.find_ban_window();
    if (!window) {
      // Cannot happen: an inconsistent trace always yields a window.
      result.message = "internal: inconsistent trace without ban window";
      break;
    }

    RefinementRecord rec;
    rec.iteration = static_cast<int>(iter) + 1;
    rec.failure = failure->description;
    rec.from_start = window->from_start;
    rec.orderings = model.explain(*window);

    // Preferred refinement: activate the derived orderings as relative
    // timing constraints (justified per state by the enabling-instant
    // matrix).  Fall back to banning the exact window when no new ordering
    // emerges or the same failure keeps recurring.
    std::string signature = failure->description;
    for (const TraceStep& st : failure->trace.steps)
      signature += "|" + comp.ts.label(st.event);
    bool progressed = false;
    for (const DerivedOrdering& o : rec.orderings) {
      const EventId before = comp.ts.event_by_label(o.before);
      const EventId after = comp.ts.event_by_label(o.after);
      if (before.valid() && after.valid() &&
          refined.activate_pair(before, after)) {
        progressed = true;
        RTV_INFO << "refinement " << rec.iteration << ": " << rec.failure
                 << " -> constraint " << o.before << " before " << o.after;
      }
    }
    if (!progressed || signature == last_signature) {
      rec.used_window = true;
      BanObserver obs;
      obs.from_start = window->from_start;
      obs.anchor_state = model.state_at(window->anchor_point);
      for (int k = window->anchor_point; k <= window->last_point; ++k) {
        obs.window.push_back(model.fired(k));
        rec.window_labels.push_back(comp.ts.label(model.fired(k)));
      }
      rec.anchor = window->from_start
                       ? std::string("run start")
                       : "state " + comp.describe_state(obs.anchor_state);
      {
        std::ostringstream os;
        os << "ban[";
        for (std::size_t i = 0; i < rec.window_labels.size(); ++i) {
          if (i) os << " ";
          os << rec.window_labels[i];
        }
        os << "] @ " << rec.anchor;
        obs.description = os.str();
      }
      RTV_INFO << "refinement " << rec.iteration << ": " << rec.failure
               << " -> " << obs.description;
      refined.add_observer(std::move(obs));
    }
    last_signature = std::move(signature);
    st.records.push_back(std::move(rec));
    st.refinements = static_cast<int>(iter) + 1;
  }

  return finish(nullptr);
}

}  // namespace rtv
