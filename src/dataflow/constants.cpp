#include "dataflow/constants.h"

#include <algorithm>
#include <cmath>

namespace ps::dataflow {

using cfg::FlowGraph;
using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using fortran::UnOp;
using ir::RefKind;

ConstVal ConstVal::meet(const ConstVal& o) const {
  if (kind == Kind::Top) return o;
  if (o.kind == Kind::Top) return *this;
  if (*this == o) return *this;
  return bottom();
}

namespace {

std::optional<double> asReal(const ConstVal& v) {
  switch (v.kind) {
    case ConstVal::Kind::IntConst: return static_cast<double>(v.i);
    case ConstVal::Kind::RealConst: return v.r;
    default: return std::nullopt;
  }
}

}  // namespace

std::optional<ConstVal> ConstantAnalysis::fold(BinOp op, const ConstVal& l,
                                               const ConstVal& r) {
  const bool bothInt = l.kind == ConstVal::Kind::IntConst &&
                       r.kind == ConstVal::Kind::IntConst;
  // Logical operators.
  if (op == BinOp::And || op == BinOp::Or || op == BinOp::Eqv ||
      op == BinOp::Neqv) {
    if (l.kind != ConstVal::Kind::LogicalConst ||
        r.kind != ConstVal::Kind::LogicalConst) {
      return std::nullopt;
    }
    switch (op) {
      case BinOp::And: return ConstVal::ofLogical(l.b && r.b);
      case BinOp::Or: return ConstVal::ofLogical(l.b || r.b);
      case BinOp::Eqv: return ConstVal::ofLogical(l.b == r.b);
      default: return ConstVal::ofLogical(l.b != r.b);
    }
  }
  auto lr = asReal(l), rr = asReal(r);
  if (!lr || !rr) return std::nullopt;
  // Relational operators.
  switch (op) {
    case BinOp::Lt: return ConstVal::ofLogical(*lr < *rr);
    case BinOp::Le: return ConstVal::ofLogical(*lr <= *rr);
    case BinOp::Gt: return ConstVal::ofLogical(*lr > *rr);
    case BinOp::Ge: return ConstVal::ofLogical(*lr >= *rr);
    case BinOp::Eq: return ConstVal::ofLogical(*lr == *rr);
    case BinOp::Ne: return ConstVal::ofLogical(*lr != *rr);
    default: break;
  }
  // Arithmetic.
  if (bothInt) {
    switch (op) {
      case BinOp::Add: return ConstVal::ofInt(l.i + r.i);
      case BinOp::Sub: return ConstVal::ofInt(l.i - r.i);
      case BinOp::Mul: return ConstVal::ofInt(l.i * r.i);
      case BinOp::Div:
        if (r.i == 0) return std::nullopt;
        return ConstVal::ofInt(l.i / r.i);
      case BinOp::Pow: {
        if (r.i < 0) return std::nullopt;
        long long acc = 1;
        for (long long k = 0; k < r.i; ++k) acc *= l.i;
        return ConstVal::ofInt(acc);
      }
      default: return std::nullopt;
    }
  }
  switch (op) {
    case BinOp::Add: return ConstVal::ofReal(*lr + *rr);
    case BinOp::Sub: return ConstVal::ofReal(*lr - *rr);
    case BinOp::Mul: return ConstVal::ofReal(*lr * *rr);
    case BinOp::Div:
      if (*rr == 0.0) return std::nullopt;
      return ConstVal::ofReal(*lr / *rr);
    case BinOp::Pow: return ConstVal::ofReal(std::pow(*lr, *rr));
    default: return std::nullopt;
  }
}

std::optional<ConstVal> ConstantAnalysis::fold(UnOp op, const ConstVal& v) {
  switch (op) {
    case UnOp::Plus: return v;
    case UnOp::Neg:
      if (v.kind == ConstVal::Kind::IntConst) return ConstVal::ofInt(-v.i);
      if (v.kind == ConstVal::Kind::RealConst) return ConstVal::ofReal(-v.r);
      return std::nullopt;
    case UnOp::Not:
      if (v.kind == ConstVal::Kind::LogicalConst) {
        return ConstVal::ofLogical(!v.b);
      }
      return std::nullopt;
  }
  return std::nullopt;
}

ConstantAnalysis ConstantAnalysis::build(
    const VarIndex& index, const std::map<std::string, long long>& inherited) {
  ConstantAnalysis ca;
  ca.index_ = &index;
  const FlowGraph& g = index.graph();
  const auto n = static_cast<std::size_t>(g.numNodes());
  const auto nv = static_cast<std::size_t>(index.size());
  ca.in_.assign(n * nv, ConstVal::top());
  std::vector<ConstVal> out(n * nv, ConstVal::top());
  auto valuesIn = [&index](const ConstVal* row) {
    return [&index, row](const std::string& name) {
      const int v = index.idOf(name);
      return v < 0 ? ConstVal::top() : row[v];
    };
  };

  // Entry row: what callers pass in through dummy arguments and COMMON is
  // unknown unless every caller passes the same constant; PARAMETER
  // constants are known.
  ConstVal* entry = ca.in_.data() + FlowGraph::kEntry * nv;
  for (int v = 0; v < index.size(); ++v) {
    if (index.isFormal(v) || index.inCommon(v)) entry[v] = ConstVal::bottom();
  }
  for (const auto& [name, value] : inherited) {
    const int v = index.idOf(name);
    if (v >= 0) entry[v] = ConstVal::ofInt(value);
  }
  for (const auto& d : index.model().procedure().decls) {
    if (!d.isParameter || !d.parameterValue) continue;
    if (auto value = evaluate(*d.parameterValue, valuesIn(entry))) {
      entry[index.idOf(d.name)] = *value;
    }
  }
  std::copy(entry, entry + nv, out.data() + FlowGraph::kEntry * nv);

  // Transfer function for one node, in place on its row.
  auto transfer = [&](int node, ConstVal* row) {
    const Stmt* s = g.stmtOf(node);
    if (!s) return;
    const auto refs = index.refs(node);
    auto isVarRef = [](const IndexedRef& r) {
      return r.expr && r.expr->kind == ExprKind::VarRef;
    };
    switch (s->kind) {
      case StmtKind::Assign:
        // The first reference of an assignment is its target.
        if (isVarRef(refs[0])) {
          auto v = evaluate(*s->rhs, valuesIn(row));
          row[refs[0].var] = v ? *v : ConstVal::bottom();
        }
        break;
      case StmtKind::Do:
        // The DO variable varies across iterations.
        row[refs[0].var] = ConstVal::bottom();
        break;
      case StmtKind::Read:
        for (const IndexedRef& r : refs) {
          if (r.kind == RefKind::Write && isVarRef(r)) {
            row[r.var] = ConstVal::bottom();
          }
        }
        break;
      case StmtKind::Call:
        // Without MOD information, any variable passed to a call (or in
        // COMMON) may change.
        for (const IndexedRef& r : refs) {
          if (r.kind == RefKind::CallActual && isVarRef(r)) {
            row[r.var] = ConstVal::bottom();
          }
        }
        for (int v : index.commonVars()) row[v] = ConstVal::bottom();
        break;
      default:
        break;
    }
  };

  // A missing predecessor value is Top, so the meet over predecessors is
  // elementwise.
  const std::vector<int> order = g.reversePostOrder();
  std::vector<ConstVal> cur(nv);
  auto copyIfChanged = [&](ConstVal* row) {
    if (std::equal(cur.begin(), cur.end(), row)) return false;
    std::copy(cur.begin(), cur.end(), row);
    return true;
  };
  bool changed = true;
  int iterations = 0;
  while (changed && iterations < 100) {
    changed = false;
    ++iterations;
    for (int node : order) {
      if (node == FlowGraph::kEntry) continue;
      const auto un = static_cast<std::size_t>(node);
      const std::vector<int>& preds = g.predecessors(node);
      if (preds.empty()) {
        std::fill(cur.begin(), cur.end(), ConstVal::top());
      } else {
        const ConstVal* first =
            out.data() + static_cast<std::size_t>(preds[0]) * nv;
        std::copy(first, first + nv, cur.begin());
        for (std::size_t k = 1; k < preds.size(); ++k) {
          const ConstVal* po =
              out.data() + static_cast<std::size_t>(preds[k]) * nv;
          for (std::size_t v = 0; v < nv; ++v) cur[v] = cur[v].meet(po[v]);
        }
      }
      if (copyIfChanged(ca.in_.data() + un * nv)) changed = true;
      transfer(node, cur.data());
      if (copyIfChanged(out.data() + un * nv)) changed = true;
    }
  }
  return ca;
}

const ConstVal* ConstantAnalysis::rowAt(StmtId stmt) const {
  const int node = index_->graph().nodeOf(stmt);
  if (node < 0) return nullptr;
  return in_.data() + static_cast<std::size_t>(node) *
                          static_cast<std::size_t>(index_->size());
}

std::optional<ConstVal> ConstantAnalysis::evaluateAt(StmtId stmt,
                                                     const Expr& e) const {
  const ConstVal* row = rowAt(stmt);
  return evaluate(e, [&](const std::string& name) {
    const int v = row ? index_->idOf(name) : -1;
    return v < 0 ? ConstVal::top() : row[v];
  });
}

}  // namespace ps::dataflow
