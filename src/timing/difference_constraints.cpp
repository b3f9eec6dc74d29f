#include "rtv/timing/difference_constraints.hpp"

#include <algorithm>
#include <cassert>

namespace rtv {

void DiffSystem::add(int a, int b, Time w, int tag) {
  assert(0 <= a && a < n_ && 0 <= b && b < n_);
  if (w >= kTimeInfinity) return;  // vacuous
  cs_.push_back(DiffConstraint{a, b, w, tag});
}

void DiffSystem::add_bounds(int a, int b, Time l, Time u, int tag) {
  // l <= t[a] - t[b]  ==  t[b] - t[a] <= -l
  add(b, a, -l, tag);
  add(a, b, u, tag);
}

DiffSystem::SolveResult DiffSystem::solve() const {
  SolveResult r;
  // Bellman-Ford from a virtual source connected to all vars with weight 0.
  std::vector<Time> dist(n_, 0);
  // Edge that last relaxed each var, for negative-cycle extraction.
  std::vector<std::ptrdiff_t> pred_edge(n_, -1);

  int updated_var = -1;
  for (int iter = 0; iter <= n_; ++iter) {
    updated_var = -1;
    for (std::size_t ci = 0; ci < cs_.size(); ++ci) {
      const DiffConstraint& c = cs_[ci];  // edge b -> a, weight w
      if (dist[c.b] + c.w < dist[c.a]) {
        dist[c.a] = dist[c.b] + c.w;
        pred_edge[c.a] = static_cast<std::ptrdiff_t>(ci);
        updated_var = c.a;
      }
    }
    if (updated_var < 0) break;
  }

  if (updated_var < 0) {
    r.feasible = true;
    r.solution = std::move(dist);
    return r;
  }

  // A relaxation happened on the n-th pass: walk predecessors n steps to
  // land inside a negative cycle, then collect it.
  int v = updated_var;
  for (int i = 0; i < n_; ++i) {
    assert(pred_edge[v] >= 0);
    v = cs_[static_cast<std::size_t>(pred_edge[v])].b;
  }
  const int cycle_start = v;
  do {
    const std::size_t e = static_cast<std::size_t>(pred_edge[v]);
    r.core.push_back(e);
    v = cs_[e].b;
  } while (v != cycle_start);
  std::reverse(r.core.begin(), r.core.end());
  r.feasible = false;
  return r;
}

}  // namespace rtv
