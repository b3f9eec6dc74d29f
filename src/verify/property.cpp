#include "rtv/verify/property.hpp"

#include <algorithm>
#include <sstream>

namespace rtv {

InvariantProperty::InvariantProperty(std::string name,
                                     std::vector<Literal> forbidden)
    : name_(std::move(name)), forbidden_(std::move(forbidden)) {}

std::optional<std::string> InvariantProperty::check_state(
    const PropertyContext& ctx) const {
  if (!ctx.ts.has_valuations()) return std::nullopt;
  const BitVec& v = ctx.ts.valuation(ctx.state);
  for (const Literal& lit : forbidden_) {
    const std::size_t idx = ctx.ts.signal_index(lit.signal);
    if (idx == static_cast<std::size_t>(-1)) return std::nullopt;  // unknown signal
    if (v.test(idx) != lit.value) return std::nullopt;
  }
  std::ostringstream os;
  os << "invariant '" << name_ << "' violated: ";
  for (std::size_t i = 0; i < forbidden_.size(); ++i) {
    if (i) os << " & ";
    os << (forbidden_[i].value ? "" : "!") << forbidden_[i].signal;
  }
  return os.str();
}

std::optional<std::string> DeadlockFreedom::check_state(
    const PropertyContext& ctx) const {
  if (ctx.raw_enabled.empty()) return std::string("deadlock");
  return std::nullopt;
}

PersistencyProperty::PersistencyProperty(std::vector<std::string> exempt)
    : exempt_(std::move(exempt)) {
  std::sort(exempt_.begin(), exempt_.end());
}

std::optional<std::string> PersistencyProperty::check_event(
    const PropertyContext& ctx, EventId event, StateId successor,
    std::span<const EventId> successor_enabled) const {
  (void)successor;
  for (EventId x : ctx.raw_enabled) {
    if (x == event) continue;
    if (ctx.ts.event(x).kind == EventKind::kInput) continue;
    if (std::binary_search(exempt_.begin(), exempt_.end(), ctx.ts.label(x)))
      continue;
    if (!std::binary_search(successor_enabled.begin(), successor_enabled.end(),
                            x)) {
      return "persistency violated: " + ctx.ts.label(x) + " disabled by " +
             ctx.ts.label(event);
    }
  }
  return std::nullopt;
}

}  // namespace rtv
