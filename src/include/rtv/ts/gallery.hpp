// Small hand-built timed transition systems used throughout tests, examples
// and benches — most importantly the paper's introductory example
// (Figures 1 and 2): a system where event `g` precedes event `d` in every
// *timed* run although the untimed state space admits `d` first.
#pragma once

#include "rtv/ts/module.hpp"

namespace rtv::gallery {

/// The introductory example, spirit of Fig. 1:
///
///   a [2.5,3] and b [1,2] are concurrent from the initial state;
///   c [1,2] is triggered by a; g [0.5,0.5] is triggered by b;
///   d [0,inf) is triggered by c.
///
/// Untimed, `d` may fire before `g`; with delays, g's latest firing
/// (2 + 0.5) precedes d's earliest (2.5 + 1), so "g before d" holds.
Module intro_example();

/// Monitor for "g always fires before d": exposes a `fail` signal that goes
/// high iff d fires while g has not fired yet.  Compose with the system and
/// check the invariant !fail.
Module order_monitor(const std::string& first, const std::string& then,
                     const std::string& fail_signal = "fail");

/// A linear chain s0 -e1-> s1 -e2-> ... useful in unit tests.
Module chain(const std::vector<std::pair<std::string, DelayInterval>>& events);

/// A cyclic ring s0 -e1-> s1 -e2-> ... -en-> s0: the smallest always-live
/// shape (the fuzz generator's repeating-producer family).
Module ring(const std::vector<std::pair<std::string, DelayInterval>>& events);

/// Fork-join: `a` and `b` concurrent from the initial state, `c` enabled
/// once both have fired, looping back to the start — a C-element in the
/// inertial-delay model (the fuzz generator's gate-level family).
Module fork_join(const std::string& a, DelayInterval a_delay,
                 const std::string& b, DelayInterval b_delay,
                 const std::string& c, DelayInterval c_delay);

/// Two concurrent events x [x_delay] and y [y_delay] in a diamond.
Module diamond(const std::string& x, DelayInterval x_delay,
               const std::string& y, DelayInterval y_delay);

/// A 3-way race with delay constants scaled by `k`: a [1,2]·k, b [1,3]·k
/// and c [2,3]·k concurrent from the initial state (a 2×2×2 cube of
/// interleavings).  Zones and relative timing decide it in a handful of
/// states no matter the scale, while the digitized engine's work grows
/// linearly with k — the asymmetry the EngineParity scaled-race test and
/// the portfolio-cancellation tests rely on.  "a before c" is genuinely
/// violated (c may fire together with a at exactly 2k).
Module scaled_race(int k);

}  // namespace rtv::gallery
