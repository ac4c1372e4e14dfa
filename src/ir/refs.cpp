#include "ir/refs.h"

#include <algorithm>

namespace ps::ir {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

bool isIntrinsic(const std::string& name) {
  static const char* kIntrinsics[] = {
      "ABS",   "IABS",  "DABS", "MAX",   "AMAX1", "MAX0",  "MIN",   "AMIN1",
      "MIN0",  "MOD",   "AMOD", "SQRT",  "DSQRT", "SIN",   "COS",   "TAN",
      "ATAN",  "ATAN2", "EXP",  "DEXP",  "LOG",   "ALOG",  "DLOG",  "LOG10",
      "FLOAT", "REAL",  "INT",  "IFIX",  "NINT",  "DBLE",  "SNGL",  "SIGN",
      "ISIGN", "DIM",   "IDIM", "DFLOAT",
  };
  return std::find_if(std::begin(kIntrinsics), std::end(kIntrinsics),
                      [&](const char* k) { return name == k; }) !=
         std::end(kIntrinsics);
}

namespace {

/// Walk an expression tree collecting reads. An ArrayRef contributes a read
/// of the array plus reads inside its subscripts; a FuncCall contributes
/// reads of its arguments (we conservatively treat user-function actuals as
/// reads only here; CALL statements use CallActual — Fortran functions with
/// side effects through arguments are refined by interprocedural analysis at
/// the call-graph layer).
void collectReads(const Expr& e, const Stmt& stmt, std::vector<Ref>& out) {
  switch (e.kind) {
    case ExprKind::VarRef:
      out.push_back({&e, &stmt, e.name, RefKind::Read});
      return;
    case ExprKind::ArrayRef:
      out.push_back({&e, &stmt, e.name, RefKind::Read});
      for (const auto& sub : e.args) collectReads(*sub, stmt, out);
      return;
    case ExprKind::FuncCall:
      for (const auto& a : e.args) collectReads(*a, stmt, out);
      return;
    case ExprKind::Binary:
      collectReads(*e.lhs, stmt, out);
      collectReads(*e.rhs, stmt, out);
      return;
    case ExprKind::Unary:
      collectReads(*e.lhs, stmt, out);
      return;
    default:
      return;  // literals
  }
}

void collectWriteTarget(const Expr& e, const Stmt& stmt,
                        std::vector<Ref>& out) {
  // LHS of an assignment: the variable/array is written; subscripts are read.
  out.push_back({&e, &stmt, e.name, RefKind::Write});
  if (e.kind == ExprKind::ArrayRef) {
    for (const auto& sub : e.args) collectReads(*sub, stmt, out);
  }
}

}  // namespace

std::vector<Ref> collectRefs(const Stmt& stmt) {
  std::vector<Ref> out;
  appendRefs(stmt, out);
  return out;
}

void appendRefs(const Stmt& stmt, std::vector<Ref>& out) {
  switch (stmt.kind) {
    case StmtKind::Assign:
      collectWriteTarget(*stmt.lhs, stmt, out);
      collectReads(*stmt.rhs, stmt, out);
      break;
    case StmtKind::Do:
      out.push_back({nullptr, &stmt, stmt.doVar, RefKind::DoVarDef});
      collectReads(*stmt.doLo, stmt, out);
      collectReads(*stmt.doHi, stmt, out);
      if (stmt.doStep) collectReads(*stmt.doStep, stmt, out);
      break;
    case StmtKind::If:
      for (const auto& arm : stmt.arms) {
        if (arm.condition) collectReads(*arm.condition, stmt, out);
      }
      break;
    case StmtKind::ArithmeticIf:
      collectReads(*stmt.condExpr, stmt, out);
      break;
    case StmtKind::Call:
      for (const auto& a : stmt.args) {
        // A whole variable or array passed by reference may be read and/or
        // written by the callee.
        if (a->kind == ExprKind::VarRef || a->kind == ExprKind::ArrayRef) {
          out.push_back({a.get(), &stmt, a->name, RefKind::CallActual});
          if (a->kind == ExprKind::ArrayRef) {
            for (const auto& sub : a->args) collectReads(*sub, stmt, out);
          }
        } else {
          collectReads(*a, stmt, out);
        }
      }
      break;
    case StmtKind::Read:
      for (const auto& item : stmt.args) {
        collectWriteTarget(*item, stmt, out);
      }
      break;
    case StmtKind::Write:
      for (const auto& item : stmt.args) collectReads(*item, stmt, out);
      break;
    default:
      break;  // Goto, Continue, Return, Stop, Assertion: no refs
  }
}

std::vector<Ref> collectRefsRecursive(const std::vector<Stmt*>& stmts) {
  std::vector<Ref> out;
  for (const Stmt* s : stmts) appendRefs(*s, out);
  return out;
}

std::vector<std::string> calledFunctions(const Stmt& stmt) {
  std::vector<std::string> out;
  stmt.forEachExpr([&](const Expr& e) {
    if (e.kind == ExprKind::FuncCall && !isIntrinsic(e.name)) {
      if (std::find(out.begin(), out.end(), e.name) == out.end()) {
        out.push_back(e.name);
      }
    }
  });
  if (stmt.kind == StmtKind::Call) {
    if (std::find(out.begin(), out.end(), stmt.callee) == out.end()) {
      out.push_back(stmt.callee);
    }
  }
  return out;
}

}  // namespace ps::ir
