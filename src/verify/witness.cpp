#include "rtv/verify/witness.hpp"

#include <sstream>

#include "rtv/timing/trace_timing.hpp"

namespace rtv {

std::string TimedWitness::to_string() const {
  std::ostringstream os;
  for (const TimedStep& s : steps) {
    os << "  t=" << units_from_ticks(s.time) << "\t" << s.label << "\n";
  }
  return os.str();
}

std::optional<TimedWitness> make_witness(const TransitionSystem& ts,
                                         const Trace& trace,
                                         EventId virtual_final,
                                         std::span<const ChokeRecord> chokes) {
  const PredecessorIndex preds(ts);
  const TraceTimingModel model(ts, preds, trace, virtual_final, chokes);
  if (model.num_points() == 0) return TimedWitness{};
  const BuiltTraceSystem built =
      model.build_system(0, model.num_points() - 1, /*clamped=*/false);
  const auto solved = built.system.solve();
  if (!solved.feasible) return std::nullopt;

  // Var k+1 is the firing time of point k; shift so the run starts at 0.
  const Time base = solved.solution[0];
  TimedWitness w;
  for (int k = 0; k < model.num_points(); ++k) {
    TimedStep step;
    step.time = solved.solution[static_cast<std::size_t>(k) + 1] - base;
    step.label = ts.label(model.fired(k));
    if (k == model.num_points() - 1 && virtual_final.valid()) {
      step.label += " (refused)";
    }
    w.steps.push_back(std::move(step));
  }
  return w;
}

}  // namespace rtv
