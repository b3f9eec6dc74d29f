#include "rtv/lazy/refined_system.hpp"

#include <algorithm>
#include <cassert>

namespace rtv {

namespace {

constexpr std::uint16_t kWaveStart = 0x8000;
constexpr std::uint16_t kIdMask = 0x7fff;

/// Codes travel as (observer, position) pairs; packed into one word they
/// sort exactly like the pairs.
std::uint32_t code(std::size_t obs, std::uint32_t pos) {
  return static_cast<std::uint32_t>(obs << 16) | pos;
}

}  // namespace

RefinedSystem::RefinedSystem(const TransitionSystem& base,
                             const ChokeIndex& index)
    : base_(&base), index_(&index) {}

void RefinedSystem::add_observer(BanObserver obs) {
  assert(!obs.window.empty());
  assert(obs.window.size() < 0x10000);
  assert(observers_.size() < 0x10000);
  observers_.push_back(std::move(obs));
}

void RefinedSystem::enable_age_rule(bool on) {
  age_rule_ = on;
  if (on) {
    // Cap for gap entries: anything above the largest finite upper bound
    // can never influence a blocking decision.
    cap_ = 1;
    for (std::size_t i = 0; i < base_->num_events(); ++i) {
      const DelayInterval d =
          base_->delay(EventId(static_cast<EventId::underlying_type>(i)));
      if (d.upper_bounded()) cap_ = std::max<Time>(cap_, d.hi() + 1);
    }
  }
}

std::vector<std::uint16_t> RefinedSystem::initial_order() const {
  std::vector<std::uint16_t> order;
  bool first = true;
  for (EventId e : index_->pseudo_enabled(base_->initial())) {
    order.push_back(static_cast<std::uint16_t>(e.value()) |
                    (first ? kWaveStart : 0));
    first = false;
  }
  return order;
}

RefinedState RefinedSystem::initial() const {
  RefinedState s;
  s.base = base_->initial();
  for (std::size_t i = 0; i < observers_.size(); ++i) {
    const BanObserver& o = observers_[i];
    if (o.from_start || o.anchor_state == s.base) {
      s.codes.push_back(static_cast<std::uint16_t>(i));
      s.codes.push_back(0);
    }
  }
  // Wave bookkeeping only matters once an ordering is active; the first
  // iteration explores the plain untimed product.
  if (age_rule_ && num_pairs_ > 0) {
    s.order = initial_order();
    if (!s.order.empty()) s.gaps.assign(1, encode_gap(0));  // one wave
  }
  return s;
}

namespace {
constexpr std::uint16_t kGapInf = 0xffff;
}  // namespace

Time RefinedSystem::decode_gap(std::uint16_t v) const {
  return static_cast<Time>(v) - cap_;
}

std::uint16_t RefinedSystem::encode_gap(Time v) const {
  // Extrapolation: bounds beyond the cap carry no extra information for
  // any blocking decision, so they are clamped (upper bounds round up to
  // "unbounded", lower bounds saturate).
  if (v >= cap_) return kGapInf;
  if (v < -cap_) v = -cap_;
  return static_cast<std::uint16_t>(v + cap_);
}

bool RefinedSystem::activate_pair(EventId before, EventId after) {
  const std::size_t n = base_->num_events();
  if (pairs_.empty()) {
    pairs_.assign(n * n, false);
    befores_.assign(n, 0);
  }
  const std::size_t bit = after.value() * n + before.value();
  if (pairs_[bit]) return false;
  pairs_[bit] = true;
  ++befores_[after.value()];
  ++num_pairs_;
  return true;
}

bool RefinedSystem::blocked_by_age(RefinedStateView s, EventId e) const {
  if (num_pairs_ == 0 || befores_[e.value()] == 0) return false;
  // Wave count and e's wave, in one pass over the order.
  std::size_t n = 0;
  std::size_t e_wave = static_cast<std::size_t>(-1);
  for (std::uint16_t entry : s.order) {
    if (entry & kWaveStart) ++n;
    if (e_wave == static_cast<std::size_t>(-1) && EventId(entry & kIdMask) == e)
      e_wave = n - 1;
  }
  if (e_wave == static_cast<std::size_t>(-1)) return false;

  // An activated pair (x before e) blocks e when x is pending and e's
  // earliest firing provably exceeds x's deadline:
  //   lower(t(wave_e) - t(wave_x)) + lo(e) > hi(x).
  // In every consistent timing x then fires (or is disabled) strictly
  // first, so pruning e only removes timing-inconsistent runs.
  const Time lo = base_->delay(e).lo();
  const std::size_t row = e.value() * base_->num_events();
  std::size_t w = static_cast<std::size_t>(-1);
  for (std::uint16_t entry : s.order) {
    if (entry & kWaveStart) ++w;
    const EventId x(entry & kIdMask);
    if (x == e || !pairs_[row + x.value()]) continue;
    const DelayInterval dx = base_->delay(x);
    if (!dx.upper_bounded()) continue;
    Time lower = 0;
    if (w != e_wave) {
      const std::uint16_t ub = s.gaps[w * n + e_wave];  // t(w) - t(e_wave) <= ub
      // Extrapolated ("unbounded") gaps carry no lower bound on
      // t(e_wave) - t(w).  Substituting -cap_ here would be unsound for
      // events whose *lower* bound exceeds the cap (cap_ only covers the
      // finite upper bounds): the true gap may be anywhere above cap_,
      // and the run where x fires late is exactly the failure.
      if (ub == kGapInf) continue;
      lower = -decode_gap(ub);
    }
    if (lower + lo > dx.hi()) return true;
  }
  return false;
}

bool RefinedSystem::blocked(RefinedStateView s, EventId e) const {
  if (age_rule_ && blocked_by_age(s, e)) return true;
  for (std::size_t i = 0; i < s.codes.size(); i += 2) {
    const BanObserver& o = observers_[s.codes[i]];
    const std::uint16_t pos = s.codes[i + 1];
    if (pos + 1u == o.window.size() && o.window[pos] == e) return true;
  }
  return false;
}

namespace {

/// advance_age's working buffers, reused across calls on one thread so the
/// hot path allocates nothing once they have grown.
struct AgeScratch {
  std::vector<Time> wave_hi;  ///< per old wave, the least deadline pending in it
  std::vector<Time> m;        ///< working DBM
  std::vector<std::pair<EventId, std::size_t>> survivors;  ///< (event, wave)
  std::vector<EventId> fresh;
  std::vector<std::size_t> kept;
  /// Per event id: `epoch` when enabled at the successor, `epoch + 1` once
  /// it survives; anything older is stale.
  std::vector<std::uint32_t> mark;
  std::uint32_t epoch = 0;
};

/// Shortest-path closure of the n x n matrix `m`, branch-free: no test for
/// kTimeInfinity.  Entries only ever fall from <= 2^60, and the finite ones
/// stay far from it, so a sum through an unbounded entry is still far above
/// cap_ (and far below overflow): it encodes to kGapInf, and the merge's
/// max keeps it there, exactly as the skipped sum would have left
/// kTimeInfinity.  ri[k] is re-read for every j on purpose: when (k, k) is
/// negative, (i, k) itself falls at j == k, and the later entries of the
/// row must see the lowered value, as the textbook relaxation order does.
void close_matrix(Time* m, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const Time* rk = m + k * n;
    for (std::size_t i = 0; i < n; ++i) {
      Time* ri = m + i * n;
      for (std::size_t j = 0; j < n; ++j) ri[j] = std::min(ri[j], ri[k] + rk[j]);
    }
  }
}

/// The same closure with n fixed at compile time, on a local copy.
template <std::size_t N>
void close_fixed(Time* m) {
  Time a[N * N];
  std::copy_n(m, N * N, a);
  close_matrix(a, N);
  std::copy_n(a, N * N, m);
}

/// Matrices of 2 .. 7 instants (up to the default six waves plus W) close
/// on a fixed size; larger ones on the generic loop.
void close_gaps(Time* m, std::size_t n) {
  switch (n) {
    case 2: return close_fixed<2>(m);
    case 3: return close_fixed<3>(m);
    case 4: return close_fixed<4>(m);
    case 5: return close_fixed<5>(m);
    case 6: return close_fixed<6>(m);
    case 7: return close_fixed<7>(m);
    default: return close_matrix(m, n);
  }
}

}  // namespace

void RefinedSystem::advance_age(RefinedStateView s, EventId fired,
                                StateId succ, RefinedState* out) const {
  thread_local AgeScratch scratch;
  const std::span<const EventId> enabled = index_->pseudo_enabled(succ);
  std::vector<std::uint32_t>& mark = scratch.mark;
  if (mark.size() < base_->num_events()) mark.resize(base_->num_events(), 0);
  if (scratch.epoch >= 0xfffffff0u) {
    std::fill(mark.begin(), mark.end(), 0);
    scratch.epoch = 0;
  }
  const std::uint32_t epoch = scratch.epoch += 2;
  for (EventId e : enabled) mark[e.value()] = epoch;

  // One pass over the order: the fired event's wave, each wave's least
  // deadline of another pending event, and the survivors (pending events
  // other than the fired one that stay enabled).
  std::vector<Time>& wave_hi = scratch.wave_hi;
  auto& survivors = scratch.survivors;
  wave_hi.clear();
  survivors.clear();
  std::size_t n_old = 0;
  std::size_t fired_wave = static_cast<std::size_t>(-1);
  bool other_bounded = false;
  for (std::size_t i = 0; i < s.order.size(); ++i) {
    if (s.order[i] & kWaveStart) {
      ++n_old;
      wave_hi.push_back(kTimeInfinity);
    }
    const std::size_t w = n_old - 1;
    const EventId e(s.order[i] & kIdMask);
    if (e == fired) {
      if (fired_wave == static_cast<std::size_t>(-1)) fired_wave = w;
      continue;
    }
    const DelayInterval d = base_->delay(e);
    if (d.upper_bounded()) {
      other_bounded = true;
      wave_hi[w] = std::min(wave_hi[w], d.hi());
    }
    if (mark[e.value()] == epoch) {
      mark[e.value()] = epoch + 1;
      survivors.emplace_back(e, w);
    }
  }
  if (fired_wave == static_cast<std::size_t>(-1)) fired_wave = 0;

  // The fresh wave: events newly enabled at the firing instant W.
  std::vector<EventId>& fresh = scratch.fresh;
  fresh.clear();
  for (EventId e : enabled)
    if (mark[e.value()] != epoch + 1) fresh.push_back(e);

  // Old wave indices with survivors (ascending), then W (index n_old).
  std::vector<std::size_t>& kept = scratch.kept;
  kept.clear();
  for (const auto& en : survivors) {
    if (kept.empty() || kept.back() != en.second) kept.push_back(en.second);
  }
  if (!fresh.empty()) kept.push_back(n_old);

  // Bound the tracked waves: merge the oldest two into one pseudo-instant
  // whose bounds cover both (elementwise weaker), reassigning the older
  // wave's events.  Sound: every constraint stated about the merged
  // instant holds for both original instants.  After `merges` rounds the
  // oldest tracked wave is kept[merges], covering kept[0 .. merges].
  const std::size_t cap = std::max<std::size_t>(2, max_waves_);
  const std::size_t merges = kept.size() > cap ? kept.size() - cap : 0;
  const std::size_t n_new = kept.size() - merges;
  auto wave = [&](std::size_t a) { return kept[merges + a]; };

  // A timing-dead source: at least two waves, every off-diagonal gap at
  // the -cap_ clamp (encoded 0), and a firing instant W with a finite
  // outgoing bound — the fired event, or another pending one, is
  // upper-bounded (see the bounds placed on row W below).
  const DelayInterval df = base_->delay(fired);
  bool dead = n_old >= 2;
  for (std::size_t i = 0; dead && i < n_old; ++i)
    for (std::size_t j = 0; dead && j < n_old; ++j)
      dead = i == j || s.gaps[i * n_old + j] == 0;
  if (dead && !df.upper_bounded()) dead = other_bounded;

  out->gaps.assign(n_new * n_new, 0);
  if (dead) {
    // Closed form for a timing-dead source: every off-diagonal entry of
    // the closed matrix is <= -cap_, so the successor's gaps are the
    // saturated matrix (encode_gap(0) on the diagonal, 0 elsewhere) and
    // the decode, the closure and the merge arithmetic are skipped.  Let
    // f be an old wave with a finite bound (W, f) <= hi < cap_:
    //   * old (i, j), i != j: <= -cap_ from the start, and the closure
    //     only lowers entries.  Each old pair is a 2-cycle of weight
    //     -2 cap_, so every old diagonal (i, i) falls to <= -2 cap_;
    //   * (i, W) <= (i, k) + (k, W) <= -cap_ + 0 for an old k != i;
    //   * (W, j) <= hi + (f, j) for old j != f, where (f, j) reaches
    //     -2 cap_ once the closure adds a negative diagonal to it, and
    //     (W, f) <= hi + (f, f) <= hi - 2 cap_: both are < -cap_;
    //   * the max-join merges combine off-diagonal entries only, so no
    //     merged entry rises above -cap_.
    for (std::size_t a = 0; a < n_new; ++a)
      out->gaps[a * n_new + a] = encode_gap(0);
  } else {
    // Working DBM over the old waves plus W = index n_old, in plain Time
    // with kTimeInfinity for "unbounded".
    const std::size_t n = n_old + 1;
    std::vector<Time>& m = scratch.m;
    m.assign(n * n, kTimeInfinity);
    auto at = [&](std::size_t i, std::size_t j) -> Time& {
      return m[i * n + j];
    };
    for (std::size_t i = 0; i < n_old; ++i) {
      for (std::size_t j = 0; j < n_old; ++j) {
        const std::uint16_t v = s.gaps[i * n_old + j];
        at(i, j) = (v == kGapInf) ? kTimeInfinity : decode_gap(v);
      }
    }
    for (std::size_t i = 0; i < n; ++i) at(i, i) = 0;

    // The firing instant: within the fired event's delay window of its
    // enabling wave, no earlier than any existing instant, and no later
    // than any pending event's deadline (maximal progress).
    at(n_old, fired_wave) =
        std::min(at(n_old, fired_wave),
                 df.upper_bounded() ? df.hi() : kTimeInfinity);
    at(fired_wave, n_old) = std::min(at(fired_wave, n_old), -df.lo());
    for (std::size_t j = 0; j < n_old; ++j)
      at(j, n_old) = std::min(at(j, n_old), Time{0});
    for (std::size_t w = 0; w < n_old; ++w)
      at(n_old, w) = std::min(at(n_old, w), wave_hi[w]);

    close_gaps(m.data(), n);

    for (std::size_t t = 0; t < merges; ++t) {
      const std::size_t w0 = kept[t], w1 = kept[t + 1];
      for (std::size_t j = 0; j < n; ++j) {
        at(w1, j) = std::max(at(w1, j), at(w0, j));
        at(j, w1) = std::max(at(j, w1), at(j, w0));
      }
      at(w1, w1) = 0;
    }
    for (std::size_t a = 0; a < n_new; ++a)
      for (std::size_t b = 0; b < n_new; ++b)
        out->gaps[a * n_new + b] = a == b ? encode_gap(0)
                                          : encode_gap(at(wave(a), wave(b)));
  }

  // Order entries per tracked wave.
  out->order.clear();
  bool first = true;
  auto emit = [&](std::size_t src) {
    if (src == n_old) {
      for (EventId e : fresh) {
        out->order.push_back(static_cast<std::uint16_t>(e.value()) |
                             (first ? kWaveStart : 0));
        first = false;
      }
      return;
    }
    for (const auto& en : survivors) {
      if (en.second != src) continue;
      out->order.push_back(static_cast<std::uint16_t>(en.first.value()) |
                           (first ? kWaveStart : 0));
      first = false;
    }
  };
  for (std::size_t a = 0; a < n_new; ++a) {
    first = true;
    if (a > 0) {
      emit(wave(a));
      continue;
    }
    // The merged oldest wave lists its sources newest first.
    for (std::size_t t = merges + 1; t-- > 0;) emit(kept[t]);
  }
}

RefinedState RefinedSystem::advance(RefinedStateView s, EventId e) const {
  RefinedState out;
  advance(s, e, &out);
  return out;
}

void RefinedSystem::advance(RefinedStateView s, EventId e,
                            RefinedState* out) const {
  assert(!blocked(s, e));
  const auto succ = base_->successor(s.base, e);
  assert(succ.has_value());
  out->base = *succ;
  out->codes.clear();
  out->order.clear();
  out->gaps.clear();
  if (!observers_.empty()) {
    std::vector<std::uint32_t> codes;
    for (std::size_t i = 0; i < s.codes.size(); i += 2) {
      const BanObserver& o = observers_[s.codes[i]];
      const std::uint32_t pos = s.codes[i + 1];
      if (o.window[pos] == e && pos + 1 < o.window.size())
        codes.push_back(code(s.codes[i], pos + 1));
      // Non-matching positions die: the run diverged from the window.
    }
    for (std::size_t i = 0; i < observers_.size(); ++i) {
      const BanObserver& o = observers_[i];
      if (!o.from_start && o.anchor_state == out->base)
        codes.push_back(code(i, 0));
    }
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    for (std::uint32_t c : codes) {
      out->codes.push_back(static_cast<std::uint16_t>(c >> 16));
      out->codes.push_back(static_cast<std::uint16_t>(c & 0xffffu));
    }
  }
  if (age_rule_ && num_pairs_ > 0) advance_age(s, e, out->base, out);
}

}  // namespace rtv
