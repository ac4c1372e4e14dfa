#ifndef PS_DATAFLOW_CONSTANTS_H
#define PS_DATAFLOW_CONSTANTS_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/varindex.h"

namespace ps::dataflow {

/// Lattice value for constant propagation.
struct ConstVal {
  enum class Kind { Top, IntConst, RealConst, LogicalConst, Bottom };
  Kind kind = Kind::Top;
  long long i = 0;
  double r = 0.0;
  bool b = false;

  static ConstVal top() { return {}; }
  static ConstVal bottom() { return {Kind::Bottom, 0, 0.0, false}; }
  static ConstVal ofInt(long long v) { return {Kind::IntConst, v, 0.0, false}; }
  static ConstVal ofReal(double v) { return {Kind::RealConst, 0, v, false}; }
  static ConstVal ofLogical(bool v) {
    return {Kind::LogicalConst, 0, 0.0, v};
  }

  [[nodiscard]] bool isConst() const {
    return kind == Kind::IntConst || kind == Kind::RealConst ||
           kind == Kind::LogicalConst;
  }
  [[nodiscard]] bool operator==(const ConstVal& o) const {
    if (kind != o.kind) return false;
    switch (kind) {
      case Kind::IntConst: return i == o.i;
      case Kind::RealConst: return r == o.r;
      case Kind::LogicalConst: return b == o.b;
      default: return true;
    }
  }

  /// Lattice meet: Top meets anything = anything; unequal constants = Bottom.
  [[nodiscard]] ConstVal meet(const ConstVal& o) const;
};

/// Flow-sensitive scalar constant propagation over the statement CFG, one
/// row of values per node over the variable index (Top where nothing is
/// known yet). PARAMETER declarations and interprocedurally inherited
/// constants seed the entry row — the paper's "interprocedural constants are
/// inherited from a procedure's callers and directly incorporated into the
/// intraprocedural constants". Every other dummy argument and COMMON member
/// enters with the unknown value its caller passes (Bottom).
class ConstantAnalysis {
 public:
  static ConstantAnalysis build(
      const VarIndex& index,
      const std::map<std::string, long long>& inherited = {});

  /// Evaluate an expression in the environment at `stmt`; nullopt when not
  /// a compile-time constant there.
  [[nodiscard]] std::optional<ConstVal> evaluateAt(
      fortran::StmtId stmt, const fortran::Expr& e) const;

  /// Calls fn(name, value) for every variable that holds an integer
  /// constant at the entry of the statement, in name order.
  template <typename Fn>
  void forEachIntConst(fortran::StmtId stmt, Fn&& fn) const {
    const ConstVal* row = rowAt(stmt);
    if (!row) return;
    for (int v = 0; v < index_->size(); ++v) {
      if (row[v].kind == ConstVal::Kind::IntConst) {
        fn(index_->name(v), row[v].i);
      }
    }
  }

  /// Evaluate `e` given each variable's value, `valueOf(name)` -> ConstVal;
  /// nullopt when `e` is not a compile-time constant.
  template <typename ValueOf>
  static std::optional<ConstVal> evaluate(const fortran::Expr& e,
                                          const ValueOf& valueOf);

 private:
  /// Fold one operator over constant operands; nullopt when the result is
  /// not a tracked constant (mixed logical/arithmetic, division by zero).
  static std::optional<ConstVal> fold(fortran::BinOp op, const ConstVal& l,
                                      const ConstVal& r);
  static std::optional<ConstVal> fold(fortran::UnOp op, const ConstVal& v);

  /// The values at entry to the statement's node, or null.
  [[nodiscard]] const ConstVal* rowAt(fortran::StmtId stmt) const;

  const VarIndex* index_ = nullptr;
  std::vector<ConstVal> in_;  // node * index size + variable
};

template <typename ValueOf>
std::optional<ConstVal> ConstantAnalysis::evaluate(const fortran::Expr& e,
                                                   const ValueOf& valueOf) {
  switch (e.kind) {
    case fortran::ExprKind::IntConst: return ConstVal::ofInt(e.intValue);
    case fortran::ExprKind::RealConst: return ConstVal::ofReal(e.realValue);
    case fortran::ExprKind::LogicalConst:
      return ConstVal::ofLogical(e.logicalValue);
    case fortran::ExprKind::VarRef: {
      ConstVal v = valueOf(e.name);
      if (v.isConst()) return v;
      return std::nullopt;
    }
    case fortran::ExprKind::Binary: {
      auto l = evaluate(*e.lhs, valueOf);
      auto r = evaluate(*e.rhs, valueOf);
      if (!l || !r) return std::nullopt;
      return fold(e.binOp, *l, *r);
    }
    case fortran::ExprKind::Unary: {
      auto v = evaluate(*e.lhs, valueOf);
      if (!v) return std::nullopt;
      return fold(e.unOp, *v);
    }
    default:
      // Array references, function calls, strings: not tracked.
      return std::nullopt;
  }
}

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_CONSTANTS_H
