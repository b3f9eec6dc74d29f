// Engine-range prediction: delay constants vs. engine limits.
//
// The discrete engine digitizes: it steps the composition tick by tick, so
// its exploration cost is linear in the delay constants, and its config
// budget caps how far it can step.  Both facts are knowable from the model
// and the budget alone, so a doomed or slow digitized run becomes a static
// finding instead of a mysterious inconclusive one.
#include <cstddef>
#include <string>
#include <vector>

#include "checks.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv::lint {

namespace {

std::string ticks_with_units(Time t) {
  std::string units = std::to_string(units_from_ticks(t));
  while (units.size() > 1 && units.back() == '0') units.pop_back();
  if (!units.empty() && units.back() == '.') units.pop_back();
  return std::to_string(t) + " ticks (" + units + " units)";
}

}  // namespace

void check_engine_range(CheckContext& ctx) {
  const std::size_t budget = ctx.options.max_states
                                 ? ctx.options.max_states
                                 : kDefaultDiscreteConfigs;

  for (std::size_t mi = 0; mi < ctx.modules.size(); ++mi) {
    const TransitionSystem& ts = ctx.modules[mi]->ts();
    for (std::size_t ei = 0; ei < ts.num_events(); ++ei) {
      const Event& ev = ts.event(EventId(static_cast<std::uint32_t>(ei)));
      if (!ev.delay.valid()) continue;  // RTV-L002 already covers it

      // RTV-L011: a finite bound at or above the infinity sentinel is
      // almost certainly a unit mistake, and arithmetic on it aliases the
      // "unbounded" encoding.  Engine-independent.
      if (ev.delay.lo() >= kTimeInfinity) {
        ctx.emit(check::kInfinityAliasedBound, Severity::kError,
                 ctx.modules[mi]->name(), ev.label,
                 "event '" + ev.label + "' declares lower delay bound " +
                     std::to_string(ev.delay.lo()) +
                     " ticks, at or above the unbounded-delay sentinel (2^60"
                     ") — the bound aliases infinity and the event can "
                     "never fire");
        continue;
      }

      // The remaining checks predict the digitizing engine's behaviour.
      if (!ctx.targets_discrete) continue;
      if (mi < ctx.graph.facts.size() &&
          ei < ctx.graph.facts[mi].fireable.size() && !ctx.fireable(mi, ei))
        continue;  // never enabled: its constants never drive a clock

      // The largest tick count the digitized run must age through before
      // this event's bounds are resolved.
      const Time demand =
          ev.delay.upper_bounded() ? ev.delay.hi() : ev.delay.lo();
      if (demand <= 0) continue;

      // RTV-L012: aging through `demand` ticks creates at least `demand`
      // distinct configs, so a budget at or below it makes truncation
      // certain — the run is guaranteed inconclusive before this event's
      // bounds resolve.  Fatal only when no non-digitizing engine is
      // selected; otherwise a zone/refinement peer can still decide the
      // obligation and the doomed discrete run merely wastes its budget.
      if (static_cast<std::size_t>(demand) >= budget) {
        const Severity sev =
            ctx.only_discrete ? Severity::kError : Severity::kWarning;
        ctx.emit(check::kCertainTruncation, sev, ctx.modules[mi]->name(),
                 ev.label,
                 "event '" + ev.label + "' needs " + ticks_with_units(demand) +
                     " of digitized aging, but the discrete config budget "
                     "is " +
                     std::to_string(budget) +
                     " — truncation is certain and the discrete run can "
                     "only end inconclusive; raise --max-states past " +
                     std::to_string(demand) + " or drop the discrete engine");
        continue;  // L013 would restate the same constant
      }

      // RTV-L013: the model still verifies correctly, but digitized
      // exploration walks every tick — constants this large make the
      // discrete engine the wrong tool.
      if (demand > kDigitizationCostTicks) {
        ctx.emit(check::kDigitizationCost, Severity::kWarning,
                 ctx.modules[mi]->name(), ev.label,
                 "event '" + ev.label + "' declares delay constant " +
                     ticks_with_units(demand) +
                     ", beyond the digitization-cost threshold of " +
                     std::to_string(kDigitizationCostTicks) +
                     " ticks; digitized exploration walks every tick, so "
                     "expect the discrete engine to be slow here — prefer "
                     "the zone or refinement engine");
      }
    }
  }
}

}  // namespace rtv::lint
