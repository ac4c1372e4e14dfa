#ifndef PS_IR_REFS_H
#define PS_IR_REFS_H

#include <string>
#include <vector>

#include "fortran/ast.h"

namespace ps::ir {

enum class RefKind {
  Read,
  Write,
  /// An actual argument at a call site. Whether it is read, written, or both
  /// depends on the callee; interprocedural MOD/REF analysis refines it.
  /// Without that refinement, analyses must treat it as a read+write.
  CallActual,
  /// The implicit definition of a DO variable by its loop header.
  DoVarDef,
};

/// One variable occurrence inside a statement. `expr` is the VarRef or
/// ArrayRef node (null for DoVarDef). Subscript expressions of an ArrayRef
/// are reported as separate Read refs of their own variables.
struct Ref {
  const fortran::Expr* expr = nullptr;
  const fortran::Stmt* stmt = nullptr;
  std::string name;
  RefKind kind = RefKind::Read;

  [[nodiscard]] bool isWrite() const {
    return kind == RefKind::Write || kind == RefKind::DoVarDef ||
           kind == RefKind::CallActual;
  }
  [[nodiscard]] bool isRead() const {
    return kind == RefKind::Read || kind == RefKind::CallActual;
  }
  [[nodiscard]] bool isArrayRef() const {
    return expr && expr->kind == fortran::ExprKind::ArrayRef;
  }
};

/// Collect every variable occurrence in one statement (not descending into
/// nested statements of DO bodies / IF arms — their occurrences belong to
/// those statements). DO statements report their bound/step reads and the
/// induction-variable definition; CALL statements report actuals as
/// CallActual; READ reports its items as writes.
[[nodiscard]] std::vector<Ref> collectRefs(const fortran::Stmt& stmt);
/// The same, appended to `out`, so a walk over many statements can reuse
/// one buffer.
void appendRefs(const fortran::Stmt& stmt, std::vector<Ref>& out);

/// Collect refs for every statement in a list of statements, recursively.
[[nodiscard]] std::vector<Ref> collectRefsRecursive(
    const std::vector<fortran::Stmt*>& stmts);

/// Names of user functions invoked in the statement's expressions (FuncCall
/// nodes whose name is not a Fortran intrinsic).
[[nodiscard]] std::vector<std::string> calledFunctions(
    const fortran::Stmt& stmt);

/// True for names of Fortran intrinsics we understand (SQRT, MAX, MOD, ...).
[[nodiscard]] bool isIntrinsic(const std::string& name);

}  // namespace ps::ir

#endif  // PS_IR_REFS_H
