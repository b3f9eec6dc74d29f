#include "rtv/ipcmos/experiments.hpp"

#include <cstddef>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "rtv/circuit/elaborate.hpp"
#include "rtv/circuit/invariants.hpp"

namespace rtv::ipcmos {

namespace {

using PropertySet = std::vector<std::unique_ptr<SafetyProperty>>;

/// Deadlock-freedom, persistency and the short-circuit invariants of the
/// transistor-level stage I1 (Section 5.1).
PropertySet stage_properties(const Netlist& stage) {
  PropertySet ps;
  ps.push_back(std::make_unique<DeadlockFreedom>());
  ps.push_back(std::make_unique<PersistencyProperty>());
  for (auto& p : short_circuit_properties(stage)) ps.push_back(std::move(p));
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

SuiteReport run_on_refine(const Suite& suite) {
  SuiteOptions opts;
  opts.engines = {"refine"};
  opts.jobs = 1;
  return run_suite(suite, opts);
}

}  // namespace

Suite table1_suite(const ExperimentConfig& cfg) {
  Suite suite;
  // Containment obligations run the abstraction as a passive monitor: it
  // observes every event of its alphabet, constrains neither timing nor
  // enabling, and any output it cannot accept surfaces as a choke.
  const auto monitor_of = [&suite](Module abstraction) {
    const std::string name = abstraction.name() + "'";
    return suite.own(abstraction.as_monitor(name));
  };
  const PipelineTiming& t = cfg.timing;
  // The transistor-level stage I1, elaborated once: obligations 2-5 all
  // compose this one module.
  const Netlist netlist = make_stage_netlist("I1", linear_channels(1), t.stage);
  const Module* stage = suite.own(elaborate(netlist));

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
                      {suite.own(make_ain(1)), stage,
                       suite.own(make_out_env(1, t)), monitor_of(make_aout(1))},
                      own_props(suite, stage_properties(netlist))),
            cfg);
  // 3. Guarantee A_in (induction base):  IN || I || A_out  <=  A_in at
  // boundary 2 (Fig. 9(b); the checked output is VALID = V2).
  configure(suite.add("3. IN || I || Aout <= Ain",
                      {suite.own(make_in_env(t)), stage,
                       suite.own(make_aout(2)), monitor_of(make_ain(2))},
                      own_props(suite, stage_properties(netlist))),
            cfg);
  // 4. A_in is a behavioural fixed point:  A_in || I || A_out  <=  A_in at
  // boundary 2 (Fig. 9(c)) — the induction step for any pipeline length.
  configure(suite.add("4. Ain || I || Aout <= Ain (fixed point)",
                      {suite.own(make_ain(1)), stage,
                       suite.own(make_aout(2)), monitor_of(make_ain(2))},
                      own_props(suite, stage_properties(netlist))),
            cfg);
  // 5. IN || I || OUT |= S — the 1-stage pipeline, both ends pulsed
  // (Section 5), in flat_pipeline(1)'s module order.
  configure(suite.add("5. IN || I || OUT |= S",
                      {suite.own(make_in_env(t)), stage,
                       suite.own(make_out_env(1, t))},
                      own_props(suite, stage_properties(netlist))),
            cfg);
  return suite;
}

EngineResult experiment(std::size_t n, const ExperimentConfig& cfg) {
  Suite suite = table1_suite(cfg);
  std::deque<Obligation>& obligations = suite.obligations();
  if (n < 1 || n > obligations.size())
    throw std::out_of_range("experiment: n must be in 1.." +
                            std::to_string(obligations.size()));
  const std::size_t index = n - 1;
  obligations.erase(obligations.begin() + static_cast<std::ptrdiff_t>(index) + 1,
                    obligations.end());
  obligations.erase(obligations.begin(),
                    obligations.begin() + static_cast<std::ptrdiff_t>(index));
  return run_on_refine(suite).records.front().result;
}

std::vector<NamedResult> run_all_experiments(const ExperimentConfig& cfg) {
  std::vector<NamedResult> out;
  for (SuiteRecord& rec : run_on_refine(table1_suite(cfg)).records)
    out.push_back({std::move(rec.obligation), std::move(rec.result)});
  return out;
}

}  // namespace rtv::ipcmos
