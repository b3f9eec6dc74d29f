// Custom environments from .g (astg) files.
//
// Verifies the IPCMOS stage against an environment the user describes in
// the standard STG interchange format, with the library's non-standard
// `.delay` / `.initial` annotations for timing.  With no argument, a
// built-in demo environment (a slow producer) is used; pass a path to load
// your own.
//
//   $ ./custom_env                 # built-in demo .g
//   $ ./custom_env my_producer.g   # user-provided left environment
#include <cstdio>
#include <fstream>
#include <sstream>

#include "rtv/circuit/invariants.hpp"
#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"
#include "rtv/verify/report.hpp"
#include "rtv/verify/suite.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

// A slower, lazier producer than the paper's IN: it waits for both the
// pulse end and the acknowledge, then idles at least 20 units.
const char* kDemoEnv = R"(
.model slow_producer
.inputs A1
.outputs V1
.initial V1
.graph
V1- V1+          # the VALID pulse
V1- A1+          # each item is acknowledged once
A1+ A1-
V1+ V1-          # next item only after the pulse ended
A1+ V1-          # ... and after the acknowledge
A1- A1+
.marking { <V1+,V1-> <A1+,V1-> <A1-,A1+> }
.delay V1- 20 inf
.delay V1+ 15.25 16
.end
)";

}  // namespace

int main(int argc, char** argv) {
  Stg env_stg = [&] {
    if (argc > 1) {
      std::ifstream in(argv[1]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[1]);
        std::exit(2);
      }
      return parse_astg(in);
    }
    return parse_astg_string(kDemoEnv);
  }();

  std::printf("environment '%s': %zu transitions, %zu places\n",
              env_stg.name().c_str(), env_stg.num_transitions(),
              env_stg.num_places());
  std::printf("%s\n", write_astg(env_stg).c_str());

  const Module env = elaborate(env_stg);
  const PipelineTiming timing;
  const Module stage = make_stage(1, timing);
  const Module out = make_out_env(1, timing);

  DeadlockFreedom dead;
  PersistencyProperty pers;
  const Netlist nl = make_stage_netlist("I1", linear_channels(1), timing.stage);
  const auto scs = short_circuit_properties(nl);
  std::vector<const SafetyProperty*> props{&dead, &pers};
  for (const auto& p : scs) props.push_back(p.get());

  // One obligation, decided by run_suite() on the default "refine" engine.
  Suite suite;
  suite.add("stage against custom environment", {&env, &stage, &out}, props);
  const EngineResult r = run_suite(suite).records.front().result;
  std::printf("%s", format_report("stage against custom environment", r).c_str());
  return r.verified() ? 0 : 1;
}
