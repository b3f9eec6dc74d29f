// Difference-constraint systems.
//
// Every timing question this library asks — is a failure trace timing
// consistent? which window of it is impossible, and why? — reduces to
// systems of constraints  t[a] - t[b] <= w  solved with Bellman-Ford.
// Infeasibility witnesses (negative cycles) are reported as sets of
// constraint indices; the refinement engine maps them back to trace steps
// to localise *why* a trace cannot happen in time.
#pragma once

#include <cstdint>
#include <vector>

#include "rtv/base/interval.hpp"

namespace rtv {

struct DiffConstraint {
  int a = 0;       ///< constrained as t[a] - t[b] <= w
  int b = 0;
  Time w = 0;
  int tag = -1;    ///< caller-defined provenance
};

class DiffSystem {
 public:
  explicit DiffSystem(int num_vars) : n_(num_vars) {}

  int num_vars() const { return n_; }
  std::size_t num_constraints() const { return cs_.size(); }
  const std::vector<DiffConstraint>& constraints() const { return cs_; }

  /// Add t[a] - t[b] <= w.  Constraints with w >= kTimeInfinity are ignored.
  void add(int a, int b, Time w, int tag = -1);

  /// Add l <= t[a] - t[b] <= u (two constraints; infinite u ignored).
  void add_bounds(int a, int b, Time l, Time u, int tag = -1);

  struct SolveResult {
    bool feasible = false;
    /// A satisfying assignment (one of many) when feasible.
    std::vector<Time> solution;
    /// Indices into constraints() forming a negative cycle when infeasible.
    std::vector<std::size_t> core;
  };

  /// Feasibility via Bellman-Ford; extracts a negative cycle on failure.
  SolveResult solve() const;

 private:
  int n_;
  std::vector<DiffConstraint> cs_;
};

}  // namespace rtv
