#include "rtv/ts/module.hpp"

#include <algorithm>

namespace rtv {

std::vector<std::string> Module::alphabet() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < ts_.num_events(); ++i)
    out.push_back(ts_.event(EventId(static_cast<EventId::underlying_type>(i))).label);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

EventKind Module::kind_of(const std::string& label) const {
  const EventId e = ts_.event_by_label(label);
  if (!e.valid()) return EventKind::kInternal;
  return ts_.event(e).kind;
}

Module Module::as_monitor(const std::string& new_name) const {
  Module m(new_name, ts_);
  for (std::size_t i = 0; i < m.ts_.num_events(); ++i) {
    const EventId e(static_cast<EventId::underlying_type>(i));
    m.ts_.set_event_kind(e, EventKind::kInput);
    // A monitor never constrains time: it only observes.
    m.ts_.set_event_delay(e, DelayInterval::unbounded());
  }
  return m;
}

Module Module::mirrored(const std::string& new_name) const {
  Module m(new_name, ts_);
  for (std::size_t i = 0; i < m.ts_.num_events(); ++i) {
    const EventId e(static_cast<EventId::underlying_type>(i));
    const EventKind k = ts_.event(e).kind;
    if (k == EventKind::kInput) {
      m.ts_.set_event_kind(e, EventKind::kOutput);
    } else if (k == EventKind::kOutput) {
      m.ts_.set_event_kind(e, EventKind::kInput);
    }
  }
  return m;
}

}  // namespace rtv
