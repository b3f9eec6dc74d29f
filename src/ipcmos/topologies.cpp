#include "rtv/ipcmos/topologies.hpp"

#include "rtv/circuit/elaborate.hpp"
#include "rtv/circuit/invariants.hpp"

namespace rtv::ipcmos {

namespace {

StageChannels join_channels() {
  return {.valid_in = {"Va", "Vb"},
          .ack_out = "A",
          .valid_out = {"Vo"},
          .ack_in = {"Ao"}};
}

StageChannels fork_channels() {
  return {.valid_in = {"Vi"},
          .ack_out = "Ai",
          .valid_out = {"Va", "Vb"},
          .ack_in = {"Aa", "Ab"}};
}

EngineResult verify_topology(const ModuleSet& set, const Netlist& nl,
                             const ExperimentConfig& cfg) {
  DeadlockFreedom dead;
  PersistencyProperty pers;
  std::vector<const SafetyProperty*> props{&dead, &pers};
  const auto scs = short_circuit_properties(nl);
  for (const auto& p : scs) props.push_back(p.get());

  Suite suite;
  Obligation& ob = suite.add(nl.name(), set.ptrs, std::move(props));
  ob.budget = cfg.budget;
  ob.max_refinements = cfg.max_refinements;
  SuiteOptions opts;
  opts.engines = {"refine"};
  opts.jobs = 1;
  return run_suite(suite, opts).records.front().result;
}

}  // namespace

Netlist make_join_netlist(const StageTiming& t) {
  return make_stage_netlist("J", join_channels(), t);
}

Netlist make_fork_netlist(const StageTiming& t) {
  return make_stage_netlist("F", fork_channels(), t);
}

ModuleSet join_system(const PipelineTiming& t) {
  ModuleSet set;
  set.add(stg_library::in_module("Va", "A", t.env));
  set.add(stg_library::in_module("Vb", "A", t.env));
  set.add(elaborate(make_join_netlist(t.stage)));
  set.add(stg_library::out_module("Vo", "Ao", t.env));
  return set;
}

ModuleSet fork_system(const PipelineTiming& t) {
  ModuleSet set;
  set.add(stg_library::in_module("Vi", "Ai", t.env));
  set.add(elaborate(make_fork_netlist(t.stage)));
  set.add(stg_library::out_module("Va", "Aa", t.env));
  set.add(stg_library::out_module("Vb", "Ab", t.env));
  return set;
}

EngineResult verify_join(const ExperimentConfig& cfg) {
  const ModuleSet set = join_system(cfg.timing);
  return verify_topology(set, make_join_netlist(cfg.timing.stage), cfg);
}

EngineResult verify_fork(const ExperimentConfig& cfg) {
  const ModuleSet set = fork_system(cfg.timing);
  return verify_topology(set, make_fork_netlist(cfg.timing.stage), cfg);
}

}  // namespace rtv::ipcmos
