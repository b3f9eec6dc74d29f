// Boolean guard expressions over circuit nodes.
//
// Transistor stacks are described by guards: a series (AND) / parallel (OR)
// network of gate literals.  Guards are immutable DAG nodes managed by an
// arena (ExprPool) so copies are cheap handles.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtv/base/bitvec.hpp"
#include "rtv/base/ids.hpp"

namespace rtv {

class ExprPool;

/// Handle to an expression node inside an ExprPool.
class Expr {
 public:
  Expr() = default;

  bool valid() const { return index_ != kInvalid; }
  std::uint32_t index() const { return index_; }

  friend bool operator==(Expr a, Expr b) { return a.index_ == b.index_; }
  friend bool operator!=(Expr a, Expr b) { return a.index_ != b.index_; }

 private:
  friend class ExprPool;
  explicit Expr(std::uint32_t i) : index_(i) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t index_ = kInvalid;
};

/// Arena of hash-consed boolean expressions.
///
/// Supported forms: constants, positive/negative literals over NodeId,
/// n-ary AND, n-ary OR.  Negation is pushed to the literals on construction
/// (guards arising from transistor networks are unate, so this loses no
/// expressiveness and keeps evaluation branch-free).
class ExprPool {
 public:
  ExprPool();

  Expr constant(bool value) const { return value ? true_ : false_; }
  Expr true_expr() const { return true_; }
  Expr false_expr() const { return false_; }

  /// Literal: node == value.  `lit(n, true)` is "n is high".
  Expr lit(NodeId node, bool value);

  Expr conj(std::vector<Expr> operands);
  Expr disj(std::vector<Expr> operands);

  Expr conj2(Expr a, Expr b) { return conj({a, b}); }
  Expr disj2(Expr a, Expr b) { return disj({a, b}); }

  /// Negation via De Morgan push-down to literals.
  Expr negate(Expr e);

  /// Evaluate under a node valuation (bit i = value of NodeId(i)).
  bool eval(Expr e, const BitVec& valuation) const;

  /// A literal of a cube: `node` has value `value`.
  struct Literal {
    NodeId node;
    bool value;
  };
  /// e as a disjunction of cubes, each the conjunction of its literals:
  /// {} is false, {{}} is true; contradictory cubes are dropped.  An AND
  /// over ORs multiplies their cube counts, which stays small for the
  /// series/parallel networks of a transistor stack.
  std::vector<std::vector<Literal>> cubes(Expr e) const;

  /// Union of the NodeIds appearing in e.
  std::vector<NodeId> support(Expr e) const;

  /// True iff the node appears (with either polarity) in e.
  bool depends_on(Expr e, NodeId node) const;

  /// Human-readable rendering using the given node-name lookup.
  std::string to_string(Expr e,
                        const std::vector<std::string>& node_names) const;

  std::size_t size() const { return nodes_.size(); }

 private:
  enum class Kind : std::uint8_t { kConst, kLit, kAnd, kOr };

  struct Node {
    Kind kind;
    bool value;           // kConst: constant; kLit: required node value
    NodeId node;          // kLit only
    std::vector<Expr> operands;  // kAnd / kOr
  };

  Expr intern(Node n);
  const Node& node(Expr e) const { return nodes_[e.index()]; }

  std::vector<Node> nodes_;
  Expr true_, false_;
};

}  // namespace rtv
