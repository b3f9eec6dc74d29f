#include "rtv/verify/containment.hpp"

#include <utility>

#include "rtv/verify/suite.hpp"

namespace rtv {

EngineResult check_containment(
    const std::vector<const Module*>& system, const Module& abstraction,
    const std::vector<const SafetyProperty*>& extra_properties) {
  // The abstraction participates as a monitor: it observes every event of
  // its alphabet, constrains neither timing nor enabling, and any event it
  // cannot accept surfaces as a choke in the composition.
  Suite suite;
  std::vector<const Module*> modules = system;
  modules.push_back(suite.own(abstraction.as_monitor(abstraction.name() + "'")));
  suite.add(abstraction.name(), std::move(modules), extra_properties);

  SuiteOptions opts;
  opts.engines = {"refine"};
  opts.jobs = 1;
  opts.preflight = false;
  opts.slice = false;
  return run_suite(suite, opts).records.front().result;
}

}  // namespace rtv
