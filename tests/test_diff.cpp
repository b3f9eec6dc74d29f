#include "rtv/timing/difference_constraints.hpp"

#include <gtest/gtest.h>

namespace rtv {
namespace {

TEST(DiffSystem, EmptySystemIsFeasible) {
  DiffSystem sys(3);
  const auto r = sys.solve();
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.solution.size(), 3u);
}

TEST(DiffSystem, SimpleChainFeasible) {
  // t1 - t0 in [1, 2], t2 - t1 in [1, 2].
  DiffSystem sys(3);
  sys.add_bounds(1, 0, 1, 2);
  sys.add_bounds(2, 1, 1, 2);
  const auto r = sys.solve();
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.solution[1] - r.solution[0], 1);
  EXPECT_LE(r.solution[1] - r.solution[0], 2);
  EXPECT_GE(r.solution[2] - r.solution[1], 1);
  EXPECT_LE(r.solution[2] - r.solution[1], 2);
}

TEST(DiffSystem, ContradictionDetected) {
  // t1 - t0 >= 5 and t1 - t0 <= 3.
  DiffSystem sys(2);
  sys.add(0, 1, -5);  // t0 - t1 <= -5
  sys.add(1, 0, 3);   // t1 - t0 <= 3
  const auto r = sys.solve();
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.core.empty());
}

TEST(DiffSystem, NegativeCycleCoreIsACycle) {
  DiffSystem sys(3);
  sys.add(1, 0, 2, 100);    // t1 <= t0 + 2
  sys.add(2, 1, 2, 101);    // t2 <= t1 + 2
  sys.add(0, 2, -5, 102);   // t0 <= t2 - 5  => cycle weight -1
  const auto r = sys.solve();
  ASSERT_FALSE(r.feasible);
  // The reported edges must chain head-to-tail and sum negative.
  Time total = 0;
  for (std::size_t k = 0; k < r.core.size(); ++k) {
    const DiffConstraint& c = sys.constraints()[r.core[k]];
    const DiffConstraint& next =
        sys.constraints()[r.core[(k + 1) % r.core.size()]];
    EXPECT_EQ(c.a, next.b);
    total += c.w;
  }
  EXPECT_LT(total, 0);
}

TEST(DiffSystem, InfiniteConstraintsIgnored) {
  DiffSystem sys(2);
  sys.add(1, 0, kTimeInfinity);
  EXPECT_EQ(sys.num_constraints(), 0u);
  sys.add_bounds(1, 0, 1, kTimeInfinity);  // only the lower bound lands
  EXPECT_EQ(sys.num_constraints(), 1u);
}

TEST(DiffSystem, TagsPreserved) {
  DiffSystem sys(2);
  sys.add(1, 0, 5, 42);
  EXPECT_EQ(sys.constraints()[0].tag, 42);
}

}  // namespace
}  // namespace rtv
