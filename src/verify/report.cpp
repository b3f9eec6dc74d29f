#include "rtv/verify/report.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace rtv {

std::string format_report(const std::string& title,
                          const EngineResult& result) {
  const auto* st = std::get_if<RefineEngineStats>(&result.stats);
  std::ostringstream os;
  os << "== " << title << " ==\n";
  os << "verdict:      " << to_string(result.verdict) << "\n";
  if (st) {
    os << "refinements:  " << st->refinements << "\n";
    os << "composed:     " << st->composed_states << " states\n";
    os << "explored:     " << result.states_explored
       << " refined states (final iteration)\n";
  } else {
    os << "explored:     " << result.states_explored << " states\n";
  }
  os << "time:         " << std::fixed << std::setprecision(3) << result.seconds
     << " s\n";
  if (!result.message.empty())
    os << (result.violated() ? "counterexample: " : "note:         ")
       << result.message << "\n";
  if (!st) return os.str();
  for (const RefinementRecord& r : st->records) {
    os << "  iter " << std::setw(3) << r.iteration << ": " << r.failure << "\n";
    if (r.used_window) {
      os << "           banned [";
      for (std::size_t i = 0; i < r.window_labels.size(); ++i) {
        if (i) os << " ";
        os << r.window_labels[i];
      }
      os << "] anchored at " << (r.from_start ? "run start" : r.anchor)
         << "\n";
    }
    for (const DerivedOrdering& o : r.orderings) {
      os << "           constraint: " << o.before << " before " << o.after
         << "\n";
    }
  }
  return os.str();
}

std::string format_constraints(const EngineResult& result) {
  std::ostringstream os;
  if (const auto* st = std::get_if<RefineEngineStats>(&result.stats))
    for (const DerivedOrdering& o : st->constraints())
      os << o.before << " before " << o.after << "\n";
  return os.str();
}

std::string format_table(const SuiteReport& report) {
  // Column widths adapt to content so long obligation names do not shear
  // the table.
  std::size_t name_w = std::string("Obligation").size();
  std::size_t engine_w = std::string("Engine").size();
  std::size_t reason_w = std::string("Stop reason").size();
  for (const SuiteRecord& rec : report.records) {
    name_w = std::max(name_w, rec.obligation.size());
    engine_w = std::max(engine_w, rec.engine.size());
    reason_w = std::max(reason_w, rec.result.truncated_reason.size());
  }

  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(name_w + 2)) << "Obligation"
     << std::setw(static_cast<int>(engine_w + 2)) << "Engine" << std::setw(16)
     << "Verdict" << std::setw(12) << "States" << std::setw(13)
     << "Refinements" << std::setw(11) << "Wall"
     << std::setw(11) << "CPU" << "Stop reason\n";
  os << std::string(name_w + engine_w + 4 + 16 + 12 + 13 + 22 +
                        std::max<std::size_t>(reason_w, 11),
                    '-')
     << "\n";
  for (const SuiteRecord& rec : report.records) {
    const auto* st = std::get_if<RefineEngineStats>(&rec.result.stats);
    std::ostringstream wall, cpu;
    wall << std::fixed << std::setprecision(3) << rec.result.seconds << " s";
    cpu << std::fixed << std::setprecision(3) << rec.cpu_seconds << " s";
    os << std::left << std::setw(static_cast<int>(name_w + 2))
       << rec.obligation << std::setw(static_cast<int>(engine_w + 2))
       << rec.engine << std::setw(16)
       << (std::string(to_string(rec.result.verdict)) +
           (rec.winner ? " *" : ""))
       << std::setw(12) << rec.result.states_explored << std::setw(13)
       << (st ? std::to_string(st->refinements) : "-") << std::setw(11)
       << wall.str() << std::setw(11) << cpu.str()
       << rec.result.truncated_reason << "\n";
  }
  os << "overall: " << to_string(report.overall()) << "  ("
     << to_string(report.mode) << " mode, " << report.jobs << " job"
     << (report.jobs == 1 ? "" : "s") << ", " << std::fixed
     << std::setprecision(3) << report.wall_seconds << " s wall";
  if (!report.records.empty()) os << ", * = decided the obligation";
  os << ")\n";
  return os.str();
}

}  // namespace rtv
