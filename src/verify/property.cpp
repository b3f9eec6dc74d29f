#include "rtv/verify/property.hpp"

#include <algorithm>
#include <atomic>
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

SafetyChecks::SafetyChecks(const Composition& comp,
                           std::span<const SafetyProperty* const> properties)
    : comp_(&comp),
      properties_(properties),
      state_verdict_(comp.ts.num_states(), kUnchecked) {
  const TransitionSystem& ts = comp.ts;
  transition_offset_.reserve(ts.num_states() + 1);
  transition_offset_.push_back(0);
  for (std::size_t i = 0; i < ts.num_states(); ++i)
    transition_offset_.push_back(
        transition_offset_.back() +
        ts.transitions_from(StateId(static_cast<StateId::underlying_type>(i)))
            .size());
  event_verdict_.assign(transition_offset_.back(), kUnchecked);
}

/// First property `check` reports violated, memoised in `slot` (a
/// property index, kClean or kUnchecked).  Threads racing on one slot
/// compute the same verdict, so relaxed order suffices.
template <typename Check>
std::optional<std::string> SafetyChecks::first_violation(
    std::int32_t& slot, const Check& check) const {
  const std::atomic_ref<std::int32_t> verdict(slot);
  const std::int32_t known = verdict.load(std::memory_order_relaxed);
  if (known == kClean) return std::nullopt;
  if (known >= 0) return check(static_cast<std::size_t>(known));
  for (std::size_t p = 0; p < properties_.size(); ++p) {
    if (auto v = check(p)) {
      verdict.store(static_cast<std::int32_t>(p), std::memory_order_relaxed);
      return v;
    }
  }
  verdict.store(kClean, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<std::string> SafetyChecks::first_state_violation(
    StateId s) const {
  const PropertyContext ctx{comp_->ts, s, enabled(s)};
  return first_violation(state_verdict_[s.value()], [&](std::size_t p) {
    return properties_[p]->check_state(ctx);
  });
}

std::optional<std::string> SafetyChecks::first_event_violation(
    StateId s, std::size_t k) const {
  const Transition& t = comp_->ts.transitions_from(s)[k];
  const PropertyContext ctx{comp_->ts, s, enabled(s)};
  return first_violation(event_verdict_[transition_offset_[s.value()] + k],
                         [&](std::size_t p) {
                           return properties_[p]->check_event(
                               ctx, t.event, t.target, enabled(t.target));
                         });
}

std::string SafetyChecks::refusal(const ChokeRecord& c) const {
  return "refusal: output '" + comp_->ts.label(c.event) +
         "' not accepted (containment violation)";
}

}  // namespace rtv
