#include "rtv/expr/expr.hpp"

#include <gtest/gtest.h>

namespace rtv {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprPool pool;
  NodeId a{0}, b{1}, c{2};
  std::vector<std::string> names{"a", "b", "c"};

  BitVec val(bool va, bool vb, bool vc) {
    BitVec v(3);
    v.set(0, va);
    v.set(1, vb);
    v.set(2, vc);
    return v;
  }
};

TEST_F(ExprTest, Constants) {
  EXPECT_TRUE(pool.eval(pool.true_expr(), val(0, 0, 0)));
  EXPECT_FALSE(pool.eval(pool.false_expr(), val(1, 1, 1)));
  EXPECT_EQ(pool.constant(true), pool.true_expr());
}

TEST_F(ExprTest, LiteralEvaluation) {
  const Expr pa = pool.lit(a, true);
  const Expr na = pool.lit(a, false);
  EXPECT_TRUE(pool.eval(pa, val(1, 0, 0)));
  EXPECT_FALSE(pool.eval(pa, val(0, 0, 0)));
  EXPECT_TRUE(pool.eval(na, val(0, 0, 0)));
}

TEST_F(ExprTest, LiteralsAreInterned) {
  EXPECT_EQ(pool.lit(a, true), pool.lit(a, true));
  EXPECT_NE(pool.lit(a, true), pool.lit(a, false));
}

TEST_F(ExprTest, ConjunctionSemantics) {
  const Expr e = pool.conj2(pool.lit(a, true), pool.lit(b, false));
  EXPECT_TRUE(pool.eval(e, val(1, 0, 0)));
  EXPECT_FALSE(pool.eval(e, val(1, 1, 0)));
  EXPECT_FALSE(pool.eval(e, val(0, 0, 0)));
}

TEST_F(ExprTest, DisjunctionSemantics) {
  const Expr e = pool.disj2(pool.lit(a, true), pool.lit(c, true));
  EXPECT_TRUE(pool.eval(e, val(1, 0, 0)));
  EXPECT_TRUE(pool.eval(e, val(0, 0, 1)));
  EXPECT_FALSE(pool.eval(e, val(0, 1, 0)));
}

TEST_F(ExprTest, ConstantFolding) {
  EXPECT_EQ(pool.conj2(pool.true_expr(), pool.lit(a, true)), pool.lit(a, true));
  EXPECT_EQ(pool.conj2(pool.false_expr(), pool.lit(a, true)), pool.false_expr());
  EXPECT_EQ(pool.disj2(pool.false_expr(), pool.lit(a, true)), pool.lit(a, true));
  EXPECT_EQ(pool.disj2(pool.true_expr(), pool.lit(a, true)), pool.true_expr());
  EXPECT_EQ(pool.conj({}), pool.true_expr());
  EXPECT_EQ(pool.disj({}), pool.false_expr());
}

TEST_F(ExprTest, NegationDeMorgan) {
  // !(a & !b) == !a | b
  const Expr e = pool.conj2(pool.lit(a, true), pool.lit(b, false));
  const Expr ne = pool.negate(e);
  for (int va = 0; va < 2; ++va) {
    for (int vb = 0; vb < 2; ++vb) {
      const BitVec v = val(va, vb, 0);
      EXPECT_EQ(pool.eval(ne, v), !pool.eval(e, v));
    }
  }
}

TEST_F(ExprTest, NestedNegation) {
  const Expr e =
      pool.disj2(pool.conj2(pool.lit(a, true), pool.lit(b, true)), pool.lit(c, false));
  const Expr ne = pool.negate(e);
  for (int m = 0; m < 8; ++m) {
    const BitVec v = val(m & 1, (m >> 1) & 1, (m >> 2) & 1);
    EXPECT_EQ(pool.eval(ne, v), !pool.eval(e, v)) << m;
  }
}

TEST_F(ExprTest, SupportIsSortedUnique) {
  const Expr e = pool.conj2(pool.disj2(pool.lit(c, true), pool.lit(a, false)),
                            pool.lit(a, true));
  const auto sup = pool.support(e);
  ASSERT_EQ(sup.size(), 2u);
  EXPECT_EQ(sup[0], a);
  EXPECT_EQ(sup[1], c);
  EXPECT_TRUE(pool.depends_on(e, a));
  EXPECT_FALSE(pool.depends_on(e, b));
}

TEST_F(ExprTest, ToString) {
  const Expr e = pool.conj2(pool.lit(a, true), pool.lit(b, false));
  EXPECT_EQ(pool.to_string(e, names), "(a & !b)");
  EXPECT_EQ(pool.to_string(pool.true_expr(), names), "1");
}

TEST_F(ExprTest, FlatteningNestedSameOps) {
  const Expr e =
      pool.conj2(pool.conj2(pool.lit(a, true), pool.lit(b, true)), pool.lit(c, true));
  EXPECT_TRUE(pool.eval(e, val(1, 1, 1)));
  EXPECT_FALSE(pool.eval(e, val(1, 1, 0)));
  EXPECT_EQ(pool.support(e).size(), 3u);
}

TEST_F(ExprTest, CubesAgreeWithEval) {
  // An AND over ORs expands to the product of their cubes, dropping the
  // contradictory ones; constants are {{}} (true) and {} (false).
  EXPECT_EQ(pool.cubes(pool.true_expr()).size(), 1u);
  EXPECT_TRUE(pool.cubes(pool.true_expr())[0].empty());
  EXPECT_TRUE(pool.cubes(pool.false_expr()).empty());
  const Expr e = pool.conj2(pool.disj2(pool.lit(a, true), pool.lit(b, false)),
                            pool.disj2(pool.lit(a, false), pool.lit(c, true)));
  EXPECT_EQ(pool.cubes(e).size(), 3u);  // a&!a is dropped
  for (const Expr g : {e, pool.negate(e), pool.lit(b, true)}) {
    const auto cubes = pool.cubes(g);
    for (int bits = 0; bits < 8; ++bits) {
      const BitVec v = val(bits & 1, bits & 2, bits & 4);
      bool any = false;
      for (const auto& cube : cubes) {
        bool all = true;
        for (const ExprPool::Literal& l : cube)
          all &= v.test(l.node.value()) == l.value;
        any |= all;
      }
      EXPECT_EQ(any, pool.eval(g, v)) << pool.to_string(g, names) << " at " << bits;
    }
  }
}

}  // namespace
}  // namespace rtv
