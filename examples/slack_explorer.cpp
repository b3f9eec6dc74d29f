// Slack explorer: how much can a delay drift before the circuit breaks?
//
// The back-annotated constraints of the verification describe orderings
// that must hold; this tool sweeps one stage delay (by name) and reports
// the verified/failing boundary, i.e. the slack the paper's Section 5.3
// talks about.
//
//   $ ./slack_explorer                 # sweep the default parameter
//   $ ./slack_explorer y_fall 1 6 0.5  # sweep y_fall's upper bound
//
// A bad argument (unknown delay, unparsable or non-finite number, step
// <= 0, more than kMaxPoints points) prints a usage line and exits 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "rtv/ipcmos/experiments.hpp"

using namespace rtv;
using namespace rtv::ipcmos;

namespace {

DelayInterval* select(StageTiming& t, const std::string& name) {
  if (name == "vint_fall") return &t.vint_fall;
  if (name == "vint_rise") return &t.vint_rise;
  if (name == "z_rise") return &t.z_rise;
  if (name == "z_fall") return &t.z_fall;
  if (name == "y_rise") return &t.y_rise;
  if (name == "y_fall") return &t.y_fall;
  if (name == "x_rise") return &t.x_rise;
  if (name == "x_fall") return &t.x_fall;
  if (name == "ack_rise") return &t.ack_rise;
  if (name == "ack_fall") return &t.ack_fall;
  if (name == "a2_rise") return &t.a2_rise;
  if (name == "a2_fall") return &t.a2_fall;
  if (name == "clke_rise") return &t.clke_rise;
  if (name == "clke_fall") return &t.clke_fall;
  if (name == "d_rise") return &t.d_rise;
  if (name == "d_fall") return &t.d_fall;
  if (name == "r_rise") return &t.r_rise;
  if (name == "r_fall") return &t.r_fall;
  if (name == "valid_rise") return &t.valid_rise;
  if (name == "valid_fall") return &t.valid_fall;
  return nullptr;
}

/// Each point re-runs experiment 5.
constexpr int kMaxPoints = 1000;

int usage(const char* why) {
  std::fprintf(stderr,
               "slack_explorer: %s\n"
               "usage: slack_explorer [DELAY [FROM [TO [STEP]]]]  "
               "(finite numbers, STEP > 0)\n",
               why);
  return 2;
}

/// The whole of `text` as a finite number.
bool parse_finite(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string param = argc > 1 ? argv[1] : "y_fall";
  double range[3] = {1.0, 6.0, 0.5};  // from, to, step
  if (argc > 5) return usage("too many arguments");
  for (int i = 2; i < argc; ++i)
    if (!parse_finite(argv[i], &range[i - 2]))
      return usage(("not a finite number: '" + std::string(argv[i]) + "'").c_str());
  const auto [from, to, step] = range;
  if (step <= 0) return usage("STEP must be > 0");
  // Points are from + i * step for i = 0 .. points - 1, up to `to`.
  const double span = to < from ? -1 : std::floor((to - from) / step + 1e-9);
  if (span >= kMaxPoints)
    return usage(("more than " + std::to_string(kMaxPoints) + " points").c_str());
  const int points = static_cast<int>(span) + 1;

  StageTiming probe;
  DelayInterval* slot = select(probe, param);
  if (slot == nullptr)
    return usage(("unknown stage delay '" + param + "'").c_str());
  std::printf("sweeping %s upper bound over [%.2f, %.2f] step %.2f\n"
              "(lower bound kept at %.2f; experiment 5 re-run per point)\n\n",
              param.c_str(), from, to, step, units_from_ticks(slot->lo()));

  double last_ok = -1, first_bad = -1;
  for (int i = 0; i < points; ++i) {
    const double v = from + i * step;
    ExperimentConfig cfg;
    DelayInterval* target = select(cfg.timing.stage, param);
    const Time lo = target->lo();
    const Time hi = ticks_from_units(v);
    if (hi < lo) continue;
    *target = DelayInterval(lo, hi);
    const EngineResult r = experiment(5, cfg);
    std::printf("  %s = [%.2f, %.2f] : %s", param.c_str(),
                units_from_ticks(lo), v, to_string(r.verdict));
    if (r.violated()) {
      // The failure, without the trace that follows " via ".
      std::printf("  (%s)", r.message.substr(0, r.message.find(" via ")).c_str());
    }
    std::printf("\n");
    if (r.verified()) {
      last_ok = v;
    } else if (first_bad < 0) {
      first_bad = v;
    }
  }
  if (first_bad >= 0 && last_ok >= 0) {
    std::printf("\nslack: %s may grow to %.2f units; it breaks at %.2f.\n",
                param.c_str(), last_ok, first_bad);
  } else if (first_bad < 0) {
    std::printf("\nno failure in the swept range.\n");
  } else {
    std::printf("\nthe whole swept range fails.\n");
  }
  return 0;
}
