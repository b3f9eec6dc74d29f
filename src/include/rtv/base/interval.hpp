// Time values and delay intervals.
//
// Time is modelled as a fixed-point integer number of "ticks"
// (4 ticks == 1 delay unit of the paper).  Integer arithmetic keeps the
// difference-constraint solver and the zone/discrete engines exact; the
// paper's fractional constants (0.5, 2.5, 15+eps) are all representable,
// with eps == one tick == 0.25 units.  The coarse grid also keeps the
// refined-state timing annotations (wave matrices) compact.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace rtv {

/// Scalar time in ticks (see kTicksPerUnit).
using Time = std::int64_t;

/// Ticks per user-facing time unit.
inline constexpr Time kTicksPerUnit = 4;

/// Sentinel for an unbounded upper delay.  Chosen far below INT64_MAX so
/// sums of a few infinities never overflow.
inline constexpr Time kTimeInfinity = (std::int64_t{1} << 60);

/// Smallest representable positive time; used to encode the paper's
/// "15 + eps" style strict bounds.
inline constexpr Time kTimeEpsilon = 1;

/// Convert user units (e.g. 2.5) to ticks (250).  Rounds to nearest tick.
Time ticks_from_units(double units);

/// Convert ticks back to user units for reporting.
double units_from_ticks(Time t);

/// A closed delay interval [lo, hi] with hi possibly infinite.
///
/// Invariant: 0 <= lo <= hi.
class DelayInterval {
 public:
  /// Default: the completely unconstrained delay [0, inf).
  constexpr DelayInterval() = default;

  constexpr DelayInterval(Time lo, Time hi) : lo_(lo), hi_(hi) {}

  /// [lo, hi] given in user units.
  static DelayInterval units(double lo, double hi);
  /// [lo, inf) given in user units.
  static DelayInterval at_least_units(double lo);
  /// The unconstrained interval [0, inf).
  static constexpr DelayInterval unbounded() { return DelayInterval(0, kTimeInfinity); }
  /// The exact delay [d, d].
  static DelayInterval exactly_units(double d);

  constexpr Time lo() const { return lo_; }
  constexpr Time hi() const { return hi_; }
  constexpr bool upper_bounded() const { return hi_ < kTimeInfinity; }
  constexpr bool valid() const { return 0 <= lo_ && lo_ <= hi_; }

  /// True iff this interval imposes no constraint at all.
  constexpr bool is_unbounded() const { return lo_ == 0 && !upper_bounded(); }

  /// Tightest interval containing behaviours allowed by both: used when a
  /// synchronised event carries bounds in several components.
  DelayInterval intersect(const DelayInterval& other) const;

  /// Widen both bounds by the given relative slack (for robustness sweeps):
  /// lo * (1 - s), hi * (1 + s).  Unbounded hi stays unbounded.
  DelayInterval widened(double slack) const;

  std::string to_string() const;

  friend constexpr bool operator==(const DelayInterval& a, const DelayInterval& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  Time lo_ = 0;
  Time hi_ = kTimeInfinity;
};

std::ostream& operator<<(std::ostream& os, const DelayInterval& d);

}  // namespace rtv
