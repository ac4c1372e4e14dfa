#ifndef PS_FORTRAN_AST_H
#define PS_FORTRAN_AST_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "support/source_loc.h"

namespace ps::fortran {

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

enum class TypeKind {
  Integer,
  Real,
  DoublePrecision,
  Logical,
  Character,
  Unknown,  // implicitly typed before resolution
};

const char* typeName(TypeKind t);

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntConst,
  RealConst,
  LogicalConst,
  StringConst,
  VarRef,    // scalar variable reference
  ArrayRef,  // subscripted reference A(i, j, ...)
  Binary,
  Unary,
  FuncCall,  // intrinsic or user function call F(args)
};

enum class BinOp {
  Add, Sub, Mul, Div, Pow,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or, Eqv, Neqv,
};

enum class UnOp { Neg, Plus, Not };

const char* binOpName(BinOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression node. A single struct with a kind tag rather than a class
/// hierarchy: analyses and transformations pattern-match on `kind` and the
/// flat fields, which keeps clone/equality/traversal simple and fast.
struct Expr {
  ExprKind kind;
  SourceLoc loc;

  // Literals.
  long long intValue = 0;
  double realValue = 0.0;
  bool logicalValue = false;
  std::string stringValue;

  // VarRef / ArrayRef / FuncCall.
  std::string name;

  // ArrayRef subscripts or FuncCall arguments.
  std::vector<ExprPtr> args;

  // Binary / Unary.
  BinOp binOp = BinOp::Add;
  UnOp unOp = UnOp::Neg;
  ExprPtr lhs;  // also the single operand of Unary
  ExprPtr rhs;

  [[nodiscard]] ExprPtr clone() const;
  [[nodiscard]] bool structurallyEquals(const Expr& other) const;

  /// Visit this expression and all sub-expressions, pre-order.
  void forEach(const std::function<void(const Expr&)>& fn) const;
  void forEachMutable(const std::function<void(Expr&)>& fn);

  [[nodiscard]] bool isIntConst(long long v) const {
    return kind == ExprKind::IntConst && intValue == v;
  }
};

// Factory helpers. These are used pervasively by the parser, the
// transformations (which synthesize code), and tests.
ExprPtr makeIntConst(long long v, SourceLoc loc = {});
ExprPtr makeRealConst(double v, SourceLoc loc = {});
ExprPtr makeLogicalConst(bool v, SourceLoc loc = {});
ExprPtr makeStringConst(std::string s, SourceLoc loc = {});
ExprPtr makeVarRef(std::string name, SourceLoc loc = {});
ExprPtr makeArrayRef(std::string name, std::vector<ExprPtr> subs,
                     SourceLoc loc = {});
ExprPtr makeFuncCall(std::string name, std::vector<ExprPtr> args,
                     SourceLoc loc = {});
ExprPtr makeBinary(BinOp op, ExprPtr l, ExprPtr r, SourceLoc loc = {});
ExprPtr makeUnary(UnOp op, ExprPtr operand, SourceLoc loc = {});

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  Assign,
  Do,
  If,            // block IF with arms; logical IF is a one-arm, one-stmt IF
  ArithmeticIf,  // IF (e) l1, l2, l3
  Goto,
  Call,
  Continue,
  Return,
  Stop,
  Read,
  Write,
  Assertion,     // a PED$ ASSERT directive attached at a program point
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Stable statement identity. Assigned once at parse (or synthesis) time and
/// preserved by transformations that move statements; cloned statements get
/// fresh ids. Dependences, reaching definitions and pane rows all key on
/// StmtId.
using StmtId = std::uint32_t;
inline constexpr StmtId kInvalidStmt = 0;

/// One arm of a block IF: condition + body. The final ELSE arm has a null
/// condition.
struct IfArm {
  ExprPtr condition;  // null for ELSE
  std::vector<StmtPtr> body;
};

struct Stmt {
  StmtKind kind;
  StmtId id = kInvalidStmt;
  int label = 0;  // 0 = unlabeled
  SourceLoc loc;

  // Assign.
  ExprPtr lhs;  // VarRef or ArrayRef
  ExprPtr rhs;

  // Do.
  std::string doVar;
  ExprPtr doLo, doHi, doStep;  // doStep null => 1
  std::vector<StmtPtr> body;
  int doEndLabel = 0;     // label of the terminating statement, 0 for ENDDO
  bool isParallel = false;  // sequential<->parallel marking (PARALLEL DO)

  // If.
  std::vector<IfArm> arms;   // first arms have conditions; optional ELSE last
  bool isLogicalIf = false;  // printed as one-line IF (cond) stmt

  // ArithmeticIf.
  ExprPtr condExpr;
  int aifLabels[3] = {0, 0, 0};

  // Goto.
  int gotoTarget = 0;

  // Call / Read / Write: name + items.
  std::string callee;
  std::vector<ExprPtr> args;  // CALL args, or I/O list items

  // Assertion: raw directive text (parsed further by ped::AssertionParser).
  std::string assertionText;

  [[nodiscard]] StmtPtr clone() const;  // deep copy; ids are NOT copied

  /// Visit this statement and all nested statements, pre-order.
  void forEach(const std::function<void(const Stmt&)>& fn) const;
  void forEachMutable(const std::function<void(Stmt&)>& fn);

  /// Visit every expression in this one statement (not nested statements).
  void forEachExpr(const std::function<void(const Expr&)>& fn) const;
  void forEachExprMutable(const std::function<void(Expr&)>& fn);
  /// Visit the top-level expression slots of this statement (lhs, rhs,
  /// bounds, conditions, args) without descending into sub-expressions.
  void forEachTopExpr(const std::function<void(const ExprPtr&)>& fn) const;
};

StmtPtr makeStmt(StmtKind kind, SourceLoc loc = {});

// ---------------------------------------------------------------------------
// Declarations & program units
// ---------------------------------------------------------------------------

/// One dimension of an array declaration: lower defaults to 1.
struct Dimension {
  ExprPtr lower;  // null => 1
  ExprPtr upper;  // null => assumed size '*'
  [[nodiscard]] Dimension clone() const;
};

struct VarDecl {
  std::string name;
  TypeKind type = TypeKind::Unknown;
  std::vector<Dimension> dims;  // empty => scalar
  std::string commonBlock;      // "" => local
  bool isParameter = false;
  ExprPtr parameterValue;       // for PARAMETER (NAME = expr)
  SourceLoc loc;

  [[nodiscard]] bool isArray() const { return !dims.empty(); }
  [[nodiscard]] VarDecl clone() const;
};

enum class ProcKind { Program, Subroutine, Function };

struct Procedure {
  ProcKind kind = ProcKind::Subroutine;
  std::string name;
  std::vector<std::string> params;
  TypeKind returnType = TypeKind::Unknown;  // functions only
  std::vector<VarDecl> decls;
  std::vector<StmtPtr> body;
  SourceLoc loc;

  [[nodiscard]] const VarDecl* findDecl(const std::string& name) const;
  [[nodiscard]] VarDecl* findDecl(const std::string& name);
  [[nodiscard]] bool isParam(const std::string& name) const;

  /// Visit every statement in the body, pre-order, including nested ones.
  void forEachStmt(const std::function<void(const Stmt&)>& fn) const;
  void forEachStmtMutable(const std::function<void(Stmt&)>& fn);
};

using ProcedurePtr = std::unique_ptr<Procedure>;

/// Deep copy of one unit that keeps every statement's id (Stmt::clone()
/// drops them): a rollback or a sandbox names the same statements by the
/// same ids.
[[nodiscard]] ProcedurePtr cloneUnit(const Procedure& unit);

/// A whole Fortran program: one or more program units plus the next free
/// statement id (the counter travels with the program so transformations can
/// mint fresh ids).
struct Program {
  std::vector<ProcedurePtr> units;
  StmtId nextStmtId = 1;

  [[nodiscard]] StmtId freshId() { return nextStmtId++; }
  [[nodiscard]] Procedure* findUnit(const std::string& name);
  [[nodiscard]] const Procedure* findUnit(const std::string& name) const;

  /// Assign fresh ids to any statement with an invalid id (after cloning or
  /// synthesizing statements).
  void assignIds();
  /// The same for one unit's statements, when only that unit gained some.
  void assignIds(Procedure& unit);
};

/// Implicit Fortran typing: I-N => INTEGER, else REAL.
TypeKind implicitType(const std::string& name);

}  // namespace ps::fortran

#endif  // PS_FORTRAN_AST_H
