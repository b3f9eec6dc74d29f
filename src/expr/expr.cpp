#include "rtv/expr/expr.hpp"

#include <algorithm>
#include <cassert>

namespace rtv {

ExprPool::ExprPool() {
  false_ = intern(Node{Kind::kConst, false, NodeId::invalid(), {}});
  true_ = intern(Node{Kind::kConst, true, NodeId::invalid(), {}});
}

Expr ExprPool::intern(Node n) {
  // Linear structural hashing would be overkill here: pools stay small
  // (tens of guards per netlist).  Dedup only identical literals/constants.
  if (n.kind == Kind::kConst || n.kind == Kind::kLit) {
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      const Node& m = nodes_[i];
      if (m.kind != n.kind) continue;
      if (n.kind == Kind::kConst && m.value == n.value) return Expr(i);
      if (n.kind == Kind::kLit && m.node == n.node && m.value == n.value)
        return Expr(i);
    }
  }
  nodes_.push_back(std::move(n));
  return Expr(static_cast<std::uint32_t>(nodes_.size() - 1));
}

Expr ExprPool::lit(NodeId node, bool value) {
  assert(node.valid());
  return intern(Node{Kind::kLit, value, node, {}});
}

Expr ExprPool::conj(std::vector<Expr> operands) {
  std::vector<Expr> flat;
  for (Expr e : operands) {
    assert(e.valid());
    const Node& n = node(e);
    if (n.kind == Kind::kConst) {
      if (!n.value) return false_;
      continue;  // drop true
    }
    if (n.kind == Kind::kAnd) {
      flat.insert(flat.end(), n.operands.begin(), n.operands.end());
    } else {
      flat.push_back(e);
    }
  }
  if (flat.empty()) return true_;
  if (flat.size() == 1) return flat[0];
  return intern(Node{Kind::kAnd, false, NodeId::invalid(), std::move(flat)});
}

Expr ExprPool::disj(std::vector<Expr> operands) {
  std::vector<Expr> flat;
  for (Expr e : operands) {
    assert(e.valid());
    const Node& n = node(e);
    if (n.kind == Kind::kConst) {
      if (n.value) return true_;
      continue;  // drop false
    }
    if (n.kind == Kind::kOr) {
      flat.insert(flat.end(), n.operands.begin(), n.operands.end());
    } else {
      flat.push_back(e);
    }
  }
  if (flat.empty()) return false_;
  if (flat.size() == 1) return flat[0];
  return intern(Node{Kind::kOr, false, NodeId::invalid(), std::move(flat)});
}

Expr ExprPool::negate(Expr e) {
  const Node n = node(e);  // copy: intern() may reallocate nodes_
  switch (n.kind) {
    case Kind::kConst:
      return constant(!n.value);
    case Kind::kLit:
      return lit(n.node, !n.value);
    case Kind::kAnd: {
      std::vector<Expr> ops;
      ops.reserve(n.operands.size());
      for (Expr op : n.operands) ops.push_back(negate(op));
      return disj(std::move(ops));
    }
    case Kind::kOr: {
      std::vector<Expr> ops;
      ops.reserve(n.operands.size());
      for (Expr op : n.operands) ops.push_back(negate(op));
      return conj(std::move(ops));
    }
  }
  return false_;
}

bool ExprPool::eval(Expr e, const BitVec& valuation) const {
  const Node& n = node(e);
  switch (n.kind) {
    case Kind::kConst:
      return n.value;
    case Kind::kLit:
      return valuation.test(n.node.value()) == n.value;
    case Kind::kAnd:
      for (Expr op : n.operands)
        if (!eval(op, valuation)) return false;
      return true;
    case Kind::kOr:
      for (Expr op : n.operands)
        if (eval(op, valuation)) return true;
      return false;
  }
  return false;
}

std::vector<std::vector<ExprPool::Literal>> ExprPool::cubes(Expr e) const {
  const Node& n = node(e);
  switch (n.kind) {
    case Kind::kConst:
      return n.value ? std::vector<std::vector<Literal>>(1)
                     : std::vector<std::vector<Literal>>();
    case Kind::kLit:
      return {{Literal{n.node, n.value}}};
    case Kind::kOr: {
      std::vector<std::vector<Literal>> out;
      for (Expr op : n.operands)
        for (auto& c : cubes(op)) out.push_back(std::move(c));
      return out;
    }
    case Kind::kAnd: {
      std::vector<std::vector<Literal>> out(1);
      for (Expr op : n.operands) {
        const std::vector<std::vector<Literal>> rights = cubes(op);
        std::vector<std::vector<Literal>> product;
        for (const auto& left : out)
          for (const auto& right : rights) {
            std::vector<Literal> c = left;
            bool contradictory = false;
            for (const Literal& l : right) {
              for (const Literal& k : c)
                contradictory |= k.node == l.node && k.value != l.value;
              c.push_back(l);
            }
            if (!contradictory) product.push_back(std::move(c));
          }
        out = std::move(product);
      }
      return out;
    }
  }
  return {};
}

std::vector<NodeId> ExprPool::support(Expr e) const {
  std::vector<NodeId> out;
  const Node& n = node(e);
  switch (n.kind) {
    case Kind::kConst:
      break;
    case Kind::kLit:
      out.push_back(n.node);
      break;
    case Kind::kAnd:
    case Kind::kOr:
      for (Expr op : n.operands) {
        auto sub = support(op);
        out.insert(out.end(), sub.begin(), sub.end());
      }
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ExprPool::depends_on(Expr e, NodeId target) const {
  const auto sup = support(e);
  return std::binary_search(sup.begin(), sup.end(), target);
}

std::string ExprPool::to_string(Expr e,
                                const std::vector<std::string>& node_names) const {
  const Node& n = node(e);
  auto name = [&](NodeId id) -> std::string {
    if (id.value() < node_names.size()) return node_names[id.value()];
    return std::string("n") + std::to_string(id.value());
  };
  switch (n.kind) {
    case Kind::kConst:
      return n.value ? "1" : "0";
    case Kind::kLit:
      return std::string(n.value ? "" : "!") + name(n.node);
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = n.kind == Kind::kAnd ? " & " : " | ";
      std::string s = "(";
      for (std::size_t i = 0; i < n.operands.size(); ++i) {
        if (i) s += sep;
        s += to_string(n.operands[i], node_names);
      }
      return s + ")";
    }
  }
  return "?";
}

}  // namespace rtv
