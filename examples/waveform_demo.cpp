// Waveform demo: simulate an n-stage IPCMOS pipeline and dump waveforms.
//
//   $ ./waveform_demo            # 2 stages, ASCII waveform to stdout
//   $ ./waveform_demo 3 out.vcd  # 3 stages, also write a VCD file
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "rtv/ipcmos/pipeline.hpp"
#include "rtv/sim/simulator.hpp"
#include "rtv/sim/waveform.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

int main(int argc, char** argv) {
  const int stages = argc > 1 ? std::atoi(argv[1]) : 2;
  const std::string vcd_path = argc > 2 ? argv[2] : "";

  const ModuleSet set = flat_pipeline(stages);
  SimOptions opts;
  opts.max_events = 120 * static_cast<std::size_t>(stages);
  opts.seed = 2026;
  const SimTrace trace = simulate_modules(set.ptrs, opts);

  std::printf("%d-stage IPCMOS pipeline: %zu events over %.2f time units%s\n\n",
              stages, trace.events.size(), units_from_ticks(trace.end_time),
              trace.deadlocked ? " (DEADLOCK)" : "");

  // Boundary signals plus each stage's local clock, as in Fig. 7.
  std::vector<std::string> signals;
  signals.push_back("V1");
  for (int k = 1; k <= stages; ++k) {
    signals.push_back(std::string("I").append(std::to_string(k)) + ".CLKE");
    signals.push_back(std::string("A").append(std::to_string(k)));
    signals.push_back(std::string("V").append(std::to_string(k + 1)));
  }
  signals.push_back(std::string("A").append(std::to_string(stages + 1)));

  TransitionSystem table;
  table.set_signal_names(trace.signal_names);
  std::printf("%s\n", ascii_waveform(table, trace, signals).c_str());

  if (!vcd_path.empty()) {
    std::ofstream out(vcd_path);
    out << to_vcd(table, trace, signals);
    std::printf("VCD written to %s\n", vcd_path.c_str());
  }
  return trace.deadlocked ? 1 : 0;
}
