#include "rtv/timing/trace_timing.hpp"

#include <algorithm>
#include <cassert>

#include "rtv/base/log.hpp"

namespace rtv {

namespace {
bool contains(const std::vector<EventId>& sorted, EventId e) {
  return std::binary_search(sorted.begin(), sorted.end(), e);
}
}  // namespace

PredecessorIndex::PredecessorIndex(const TransitionSystem& ts)
    : offset_(ts.num_states() + 1, 0) {
  auto from_each = [&](auto&& visit) {
    for (std::size_t from = 0; from < ts.num_states(); ++from) {
      const StateId s(static_cast<StateId::underlying_type>(from));
      for (const Transition& t : ts.transitions_from(s)) visit(s, t);
    }
  };
  // Counting sort by target: count, prefix-sum, then place in source order.
  from_each([&](StateId, const Transition& t) { ++offset_[t.target.value() + 1]; });
  for (std::size_t i = 1; i < offset_.size(); ++i) offset_[i] += offset_[i - 1];
  preds_.resize(offset_.back());
  std::vector<std::size_t> next(offset_.begin(), offset_.end() - 1);
  from_each([&](StateId s, const Transition& t) {
    preds_[next[t.target.value()]++] = {s, t.event};
  });
}

std::span<const std::pair<StateId, EventId>> PredecessorIndex::into(
    StateId s) const {
  return std::span<const std::pair<StateId, EventId>>(preds_).subspan(
      offset_[s.value()], offset_[s.value() + 1] - offset_[s.value()]);
}

TraceTimingModel::TraceTimingModel(const TransitionSystem& ts,
                                   const PredecessorIndex& preds,
                                   const Trace& trace, EventId virtual_final,
                                   std::span<const ChokeRecord> chokes)
    : ts_(ts), preds_(preds), trace_(trace), virtual_final_(virtual_final) {
  n_points_ = static_cast<int>(trace.steps.size()) + (virtual_final.valid() ? 1 : 0);

  choked_.reserve(chokes.size());
  for (const ChokeRecord& c : chokes)
    choked_.emplace_back(c.state.value(), c.event.value());
  std::sort(choked_.begin(), choked_.end());

  // Augment each point's enabled set with the events choked at its state:
  // a refused output is still ticking in its producer even though the
  // composed graph has no transition for it.
  if (!choked_.empty()) {
    augmented_.resize(static_cast<std::size_t>(n_points_));
    for (int k = 0; k < n_points_; ++k) {
      const StateId s = state_at(k);
      const auto lo = std::lower_bound(
          choked_.begin(), choked_.end(),
          std::make_pair(s.value(), EventId::underlying_type{0}));
      std::vector<EventId> extra;
      for (auto it = lo; it != choked_.end() && it->first == s.value(); ++it) {
        const EventId e(it->second);
        if (!contains(enabled_at(k), e)) extra.push_back(e);
      }
      if (extra.empty()) continue;
      std::vector<EventId> merged = enabled_at(k);
      merged.insert(merged.end(), extra.begin(), extra.end());
      std::sort(merged.begin(), merged.end());
      augmented_[static_cast<std::size_t>(k)] = std::move(merged);
    }
  }
}

bool TraceTimingModel::enabled_or_choked(StateId state, EventId event) const {
  if (ts_.is_enabled(state, event)) return true;
  return std::binary_search(choked_.begin(), choked_.end(),
                            std::make_pair(state.value(), event.value()));
}

EventId TraceTimingModel::fired(int point) const {
  if (point < static_cast<int>(trace_.steps.size()))
    return trace_.steps[static_cast<std::size_t>(point)].event;
  return virtual_final_;
}

StateId TraceTimingModel::state_at(int point) const {
  if (point < static_cast<int>(trace_.steps.size()))
    return trace_.steps[static_cast<std::size_t>(point)].state;
  return trace_.final_state;
}

const std::vector<EventId>& TraceTimingModel::enabled_at(int point) const {
  if (!augmented_.empty() && !augmented_[static_cast<std::size_t>(point)].empty())
    return augmented_[static_cast<std::size_t>(point)];
  if (point < static_cast<int>(trace_.steps.size()))
    return trace_.steps[static_cast<std::size_t>(point)].enabled;
  return trace_.final_enabled;
}

int TraceTimingModel::enabling_point(EventId event, int point) const {
  int m = point;
  while (m > 0) {
    const int p = m - 1;
    if (fired(p) == event) break;
    if (!contains(enabled_at(p), event)) break;
    --m;
  }
  return m;
}

bool TraceTimingModel::freshly_enabled_at(StateId state, EventId event) const {
  for (const auto& [from, via] : preds_.into(state)) {
    if (via == event) continue;  // the firing itself re-enables it freshly
    if (enabled_or_choked(from, event)) return false;
  }
  return true;
}

BuiltTraceSystem TraceTimingModel::build_system(int win_start, int win_last,
                                                bool clamped) const {
  assert(0 <= win_start && win_start <= win_last && win_last < n_points_);
  // Variables: v[k] = time of arrival at point k (k in [win_start..
  // win_last+1]); v[win_start] is the reference.  We allocate the full
  // range [0..n_points_] for simplicity — unused variables are harmless.
  BuiltTraceSystem built;
  built.system = DiffSystem(n_points_ + 1);
  DiffSystem& sys = built.system;

  auto tag_of = [&](TraceConstraintInfo info) {
    built.info.push_back(info);
    return static_cast<int>(built.info.size() - 1);
  };

  for (int k = win_start; k <= win_last; ++k) {
    // Monotonicity: v[k] <= v[k+1].
    sys.add(k, k + 1, 0,
            tag_of({TraceConstraintInfo::Kind::kMonotonic, k, k, EventId::invalid()}));

    // Firing bounds of the event fired at point k.
    const EventId e = fired(k);
    if (!e.valid()) continue;
    const DelayInterval d = ts_.delay(e);
    const int m = enabling_point(e, k);
    const bool exact =
        m > win_start ||
        (m == win_start &&
         (!clamped || freshly_enabled_at(state_at(win_start), e)));
    if (exact) {
      // Enabling resolved inside the window: exact bounds.
      sys.add(win_start, m, 0, -1);  // vacuous, keeps anchor referenced
      // lower: v[k+1] - v[m] >= lo
      sys.add(m, k + 1, -d.lo(),
              tag_of({TraceConstraintInfo::Kind::kFiringLower, k, m, e}));
      if (d.upper_bounded()) {
        sys.add(k + 1, m, d.hi(),
                tag_of({TraceConstraintInfo::Kind::kFiringUpper, k, m, e}));
      }
    } else if (d.upper_bounded()) {
      // Enabling predates the window: deadline can only be earlier than the
      // clamped one, so the clamped upper bound is sound; the lower bound
      // is dropped.
      sys.add(k + 1, win_start, d.hi(),
              tag_of({TraceConstraintInfo::Kind::kFiringUpper, k, win_start, e}));
    }

    // Deadlines of events pending while this firing happens.  A pending
    // event whose firing self-loops on the current state imposes nothing:
    // it can fire and re-arm freely between trace points (the untimed
    // search interns states, so those firings never appear as steps).
    for (EventId x : enabled_at(k)) {
      if (x == e) continue;
      const DelayInterval dx = ts_.delay(x);
      if (!dx.upper_bounded()) continue;
      if (dx.hi() > 0) {
        const std::optional<StateId> self = ts_.successor(state_at(k), x);
        if (self && *self == state_at(k)) continue;
      }
      const int mx = enabling_point(x, k);
      const int anchor = mx >= win_start ? mx : win_start;
      sys.add(k + 1, anchor, dx.hi(),
              tag_of({TraceConstraintInfo::Kind::kPendingDeadline, k, anchor, x}));
    }
  }
  return built;
}

bool TraceTimingModel::consistent() const {
  if (n_points_ == 0) return true;
  const BuiltTraceSystem built = build_system(0, n_points_ - 1, false);
  return built.system.solve().feasible;
}

std::optional<BanWindow> TraceTimingModel::find_ban_window() const {
  if (n_points_ == 0) return std::nullopt;
  const BuiltTraceSystem full = build_system(0, n_points_ - 1, false);
  const auto solved = full.system.solve();
  if (solved.feasible) return std::nullopt;

  // Points touched by the negative cycle.
  int w0 = n_points_ - 1;
  int last = 0;
  for (std::size_t ci : solved.core) {
    const int tag = full.system.constraints()[ci].tag;
    if (tag < 0) continue;
    const TraceConstraintInfo& info = full.info[static_cast<std::size_t>(tag)];
    w0 = std::min(w0, std::min(info.anchor, info.point));
    last = std::max(last, info.point);
  }

  // Try the anchored (history-independent) flavour starting at the cycle's
  // first point; widen leftwards while the clamped system stays feasible.
  for (int w = w0; w > 0; --w) {
    const BuiltTraceSystem clamped = build_system(w, last, true);
    if (!clamped.system.solve().feasible) {
      return BanWindow{false, w, last};
    }
  }
  // Fall back to a from-start ban: exact anchoring at time 0 over [0..last]
  // is infeasible because it contains the original cycle.
  return BanWindow{true, 0, last};
}

std::vector<DerivedOrdering> TraceTimingModel::explain(const BanWindow& win) const {
  std::vector<DerivedOrdering> out;
  const EventId blocked = fired(win.last_point);
  if (!blocked.valid()) return out;

  const BuiltTraceSystem base =
      build_system(win.anchor_point, win.last_point, !win.from_start);
  if (base.system.solve().feasible) return out;

  // Sufficiency analysis: an event x pending at the blocked point yields
  // the ordering "x before `blocked`" iff the window stays infeasible when
  // every *other* pending event's deadline constraints are dropped — x's
  // urgency alone forbids the blocked firing.  (A pure removal test would
  // miss redundantly-justified orderings.)
  for (EventId x : enabled_at(win.last_point)) {
    if (x == blocked) continue;
    DiffSystem reduced(base.system.num_vars());
    bool has_x_deadline = false;
    for (std::size_t ci = 0; ci < base.system.constraints().size(); ++ci) {
      const DiffConstraint& c = base.system.constraints()[ci];
      if (c.tag >= 0) {
        const TraceConstraintInfo& info = base.info[static_cast<std::size_t>(c.tag)];
        if (info.kind == TraceConstraintInfo::Kind::kPendingDeadline) {
          if (info.event != x) continue;  // drop other pending deadlines
          has_x_deadline = true;
        }
      }
      reduced.add(c.a, c.b, c.w, c.tag);
    }
    if (has_x_deadline && !reduced.solve().feasible) {
      out.push_back(DerivedOrdering{ts_.label(x), ts_.label(blocked)});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rtv
