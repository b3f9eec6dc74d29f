#include "rtv/ipcmos/experiments.hpp"

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "rtv/circuit/invariants.hpp"

namespace rtv::ipcmos {

namespace {

using PropertySet = std::vector<std::unique_ptr<SafetyProperty>>;

/// Deadlock-freedom, persistency and the short-circuit invariants of the
/// transistor-level stages I1..In (Section 5.1).
PropertySet stage_properties(int stages, const PipelineTiming& t) {
  PropertySet ps;
  ps.push_back(std::make_unique<DeadlockFreedom>());
  ps.push_back(std::make_unique<PersistencyProperty>());
  for (int k = 1; k <= stages; ++k) {
    const Netlist nl = make_stage_netlist("I" + std::to_string(k),
                                          linear_channels(k), t.stage);
    for (auto& p : short_circuit_properties(nl)) ps.push_back(std::move(p));
  }
  return ps;
}

/// Transfer an owning property bundle into the suite, returning the views
/// an obligation composes over.
std::vector<const SafetyProperty*> own_props(Suite& suite, PropertySet ps) {
  std::vector<const SafetyProperty*> ptrs;
  ptrs.reserve(ps.size());
  for (auto& p : ps) ptrs.push_back(suite.own(std::move(p)));
  return ptrs;
}

void configure(Obligation& ob, const ExperimentConfig& cfg) {
  ob.budget = cfg.budget;
  ob.max_refinements = cfg.max_refinements;
}

/// IN || I1 || ... || In || OUT |= S, both ends pulse-driven.
void add_flat(Suite& suite, std::string name, int n_stages,
              const ExperimentConfig& cfg) {
  ModuleSet set = flat_pipeline(n_stages, cfg.timing);
  std::vector<const Module*> modules;
  for (auto& m : set.owned) modules.push_back(suite.own(std::move(*m)));
  configure(suite.add(std::move(name), std::move(modules),
                      own_props(suite, stage_properties(n_stages, cfg.timing))),
            cfg);
}

SuiteReport run_on_refine(const Suite& suite) {
  SuiteOptions opts;
  opts.engines = {"refine"};
  opts.jobs = 1;
  return run_suite(suite, opts);
}

/// Obligation `index` of table1_suite(cfg), alone, on refine.
EngineResult run_experiment(std::size_t index, const ExperimentConfig& cfg) {
  Suite suite = table1_suite(cfg);
  std::deque<Obligation>& obligations = suite.obligations();
  obligations.erase(obligations.begin() + static_cast<std::ptrdiff_t>(index) + 1,
                    obligations.end());
  obligations.erase(obligations.begin(),
                    obligations.begin() + static_cast<std::ptrdiff_t>(index));
  return run_on_refine(suite).records.front().result;
}

}  // namespace

Suite table1_suite(const ExperimentConfig& cfg) {
  Suite suite;
  // Containment obligations run the abstraction as a passive monitor, the
  // same construction as check_containment().
  const auto monitor_of = [&suite](Module abstraction) {
    const std::string name = abstraction.name() + "'";
    return suite.own(abstraction.as_monitor(name));
  };
  const PipelineTiming& t = cfg.timing;

  {
    // 1. A_in || A_out |= S at boundary 1 (deadlock-freedom; protocol
    // conformance is structural).
    PropertySet ps;
    ps.push_back(std::make_unique<DeadlockFreedom>());
    configure(suite.add("1. Ain || Aout |= S",
                        {suite.own(make_ain(1)), suite.own(make_aout(1))},
                        own_props(suite, std::move(ps))),
              cfg);
  }
  // 2. Guarantee A_out:  A_in || I || OUT  <=  A_out at boundary 1
  // (Fig. 9(a); the checked output is ACK = A1).
  configure(suite.add("2. Ain || I || OUT <= Aout",
                      {suite.own(make_ain(1)), suite.own(make_stage(1, t)),
                       suite.own(make_out_env(1, t)), monitor_of(make_aout(1))},
                      own_props(suite, stage_properties(1, t))),
            cfg);
  // 3. Guarantee A_in (induction base):  IN || I || A_out  <=  A_in at
  // boundary 2 (Fig. 9(b); the checked output is VALID = V2).
  configure(suite.add("3. IN || I || Aout <= Ain",
                      {suite.own(make_in_env(t)), suite.own(make_stage(1, t)),
                       suite.own(make_aout(2)), monitor_of(make_ain(2))},
                      own_props(suite, stage_properties(1, t))),
            cfg);
  // 4. A_in is a behavioural fixed point:  A_in || I || A_out  <=  A_in at
  // boundary 2 (Fig. 9(c)) — the induction step for any pipeline length.
  configure(suite.add("4. Ain || I || Aout <= Ain (fixed point)",
                      {suite.own(make_ain(1)), suite.own(make_stage(1, t)),
                       suite.own(make_aout(2)), monitor_of(make_ain(2))},
                      own_props(suite, stage_properties(1, t))),
            cfg);
  // 5. IN || I || OUT |= S — the 1-stage pipeline, both ends pulsed
  // (Section 5).
  add_flat(suite, "5. IN || I || OUT |= S", 1, cfg);
  return suite;
}

EngineResult experiment1(const ExperimentConfig& cfg) {
  return run_experiment(0, cfg);
}
EngineResult experiment2(const ExperimentConfig& cfg) {
  return run_experiment(1, cfg);
}
EngineResult experiment3(const ExperimentConfig& cfg) {
  return run_experiment(2, cfg);
}
EngineResult experiment4(const ExperimentConfig& cfg) {
  return run_experiment(3, cfg);
}
EngineResult experiment5(const ExperimentConfig& cfg) {
  return run_experiment(4, cfg);
}

std::vector<NamedResult> run_all_experiments(const ExperimentConfig& cfg) {
  std::vector<NamedResult> out;
  for (SuiteRecord& rec : run_on_refine(table1_suite(cfg)).records)
    out.push_back({std::move(rec.obligation), std::move(rec.result)});
  return out;
}

EngineResult flat_experiment(int n_stages, const ExperimentConfig& cfg) {
  Suite suite;
  add_flat(suite, "flat " + std::to_string(n_stages) + "-stage pipeline",
           n_stages, cfg);
  return run_on_refine(suite).records.front().result;
}

}  // namespace rtv::ipcmos
