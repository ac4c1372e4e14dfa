#include "fortran/ast.h"

namespace ps::fortran {

const char* typeName(TypeKind t) {
  switch (t) {
    case TypeKind::Integer: return "INTEGER";
    case TypeKind::Real: return "REAL";
    case TypeKind::DoublePrecision: return "DOUBLE PRECISION";
    case TypeKind::Logical: return "LOGICAL";
    case TypeKind::Character: return "CHARACTER";
    case TypeKind::Unknown: return "UNKNOWN";
  }
  return "?";
}

const char* binOpName(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Pow: return "**";
    case BinOp::Lt: return ".LT.";
    case BinOp::Le: return ".LE.";
    case BinOp::Gt: return ".GT.";
    case BinOp::Ge: return ".GE.";
    case BinOp::Eq: return ".EQ.";
    case BinOp::Ne: return ".NE.";
    case BinOp::And: return ".AND.";
    case BinOp::Or: return ".OR.";
    case BinOp::Eqv: return ".EQV.";
    case BinOp::Neqv: return ".NEQV.";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Expr
// ---------------------------------------------------------------------------

ExprPtr Expr::clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->loc = loc;
  e->intValue = intValue;
  e->realValue = realValue;
  e->logicalValue = logicalValue;
  e->stringValue = stringValue;
  e->name = name;
  e->binOp = binOp;
  e->unOp = unOp;
  for (const auto& a : args) e->args.push_back(a->clone());
  if (lhs) e->lhs = lhs->clone();
  if (rhs) e->rhs = rhs->clone();
  return e;
}

bool Expr::structurallyEquals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::IntConst:
      return intValue == other.intValue;
    case ExprKind::RealConst:
      return realValue == other.realValue;
    case ExprKind::LogicalConst:
      return logicalValue == other.logicalValue;
    case ExprKind::StringConst:
      return stringValue == other.stringValue;
    case ExprKind::VarRef:
      return name == other.name;
    case ExprKind::ArrayRef:
    case ExprKind::FuncCall: {
      if (name != other.name || args.size() != other.args.size()) return false;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (!args[i]->structurallyEquals(*other.args[i])) return false;
      }
      return true;
    }
    case ExprKind::Binary:
      return binOp == other.binOp && lhs->structurallyEquals(*other.lhs) &&
             rhs->structurallyEquals(*other.rhs);
    case ExprKind::Unary:
      return unOp == other.unOp && lhs->structurallyEquals(*other.lhs);
  }
  return false;
}

void Expr::forEach(const std::function<void(const Expr&)>& fn) const {
  fn(*this);
  for (const auto& a : args) a->forEach(fn);
  if (lhs) lhs->forEach(fn);
  if (rhs) rhs->forEach(fn);
}

void Expr::forEachMutable(const std::function<void(Expr&)>& fn) {
  fn(*this);
  for (auto& a : args) a->forEachMutable(fn);
  if (lhs) lhs->forEachMutable(fn);
  if (rhs) rhs->forEachMutable(fn);
}

ExprPtr makeIntConst(long long v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntConst;
  e->intValue = v;
  e->loc = loc;
  return e;
}

ExprPtr makeRealConst(double v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::RealConst;
  e->realValue = v;
  e->loc = loc;
  return e;
}

ExprPtr makeLogicalConst(bool v, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::LogicalConst;
  e->logicalValue = v;
  e->loc = loc;
  return e;
}

ExprPtr makeStringConst(std::string s, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::StringConst;
  e->stringValue = std::move(s);
  e->loc = loc;
  return e;
}

ExprPtr makeVarRef(std::string name, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::VarRef;
  e->name = std::move(name);
  e->loc = loc;
  return e;
}

ExprPtr makeArrayRef(std::string name, std::vector<ExprPtr> subs,
                     SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::ArrayRef;
  e->name = std::move(name);
  e->args = std::move(subs);
  e->loc = loc;
  return e;
}

ExprPtr makeFuncCall(std::string name, std::vector<ExprPtr> args,
                     SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::FuncCall;
  e->name = std::move(name);
  e->args = std::move(args);
  e->loc = loc;
  return e;
}

ExprPtr makeBinary(BinOp op, ExprPtr l, ExprPtr r, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->binOp = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  e->loc = loc;
  return e;
}

ExprPtr makeUnary(UnOp op, ExprPtr operand, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->unOp = op;
  e->lhs = std::move(operand);
  e->loc = loc;
  return e;
}

// ---------------------------------------------------------------------------
// Stmt
// ---------------------------------------------------------------------------

StmtPtr makeStmt(StmtKind kind, SourceLoc loc) {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->loc = loc;
  return s;
}

StmtPtr Stmt::clone() const {
  auto s = std::make_unique<Stmt>();
  s->kind = kind;
  s->id = kInvalidStmt;  // clones get fresh ids via Program::assignIds
  s->label = label;
  s->loc = loc;
  if (lhs) s->lhs = lhs->clone();
  if (rhs) s->rhs = rhs->clone();
  s->doVar = doVar;
  if (doLo) s->doLo = doLo->clone();
  if (doHi) s->doHi = doHi->clone();
  if (doStep) s->doStep = doStep->clone();
  for (const auto& b : body) s->body.push_back(b->clone());
  s->doEndLabel = doEndLabel;
  s->isParallel = isParallel;
  for (const auto& arm : arms) {
    IfArm a;
    if (arm.condition) a.condition = arm.condition->clone();
    for (const auto& b : arm.body) a.body.push_back(b->clone());
    s->arms.push_back(std::move(a));
  }
  s->isLogicalIf = isLogicalIf;
  if (condExpr) s->condExpr = condExpr->clone();
  s->aifLabels[0] = aifLabels[0];
  s->aifLabels[1] = aifLabels[1];
  s->aifLabels[2] = aifLabels[2];
  s->gotoTarget = gotoTarget;
  s->callee = callee;
  for (const auto& a : args) s->args.push_back(a->clone());
  s->assertionText = assertionText;
  return s;
}

void Stmt::forEach(const std::function<void(const Stmt&)>& fn) const {
  fn(*this);
  for (const auto& b : body) b->forEach(fn);
  for (const auto& arm : arms) {
    for (const auto& b : arm.body) b->forEach(fn);
  }
}

void Stmt::forEachMutable(const std::function<void(Stmt&)>& fn) {
  fn(*this);
  for (auto& b : body) b->forEachMutable(fn);
  for (auto& arm : arms) {
    for (auto& b : arm.body) b->forEachMutable(fn);
  }
}

void Stmt::forEachTopExpr(
    const std::function<void(const ExprPtr&)>& fn) const {
  if (lhs) fn(lhs);
  if (rhs) fn(rhs);
  if (doLo) fn(doLo);
  if (doHi) fn(doHi);
  if (doStep) fn(doStep);
  for (const auto& arm : arms) {
    if (arm.condition) fn(arm.condition);
  }
  if (condExpr) fn(condExpr);
  for (const auto& a : args) fn(a);
}

void Stmt::forEachExpr(const std::function<void(const Expr&)>& fn) const {
  forEachTopExpr([&](const ExprPtr& e) { e->forEach(fn); });
}

void Stmt::forEachExprMutable(const std::function<void(Expr&)>& fn) {
  if (lhs) lhs->forEachMutable(fn);
  if (rhs) rhs->forEachMutable(fn);
  if (doLo) doLo->forEachMutable(fn);
  if (doHi) doHi->forEachMutable(fn);
  if (doStep) doStep->forEachMutable(fn);
  for (auto& arm : arms) {
    if (arm.condition) arm.condition->forEachMutable(fn);
  }
  if (condExpr) condExpr->forEachMutable(fn);
  for (auto& a : args) a->forEachMutable(fn);
}

// ---------------------------------------------------------------------------
// Declarations & units
// ---------------------------------------------------------------------------

Dimension Dimension::clone() const {
  Dimension d;
  if (lower) d.lower = lower->clone();
  if (upper) d.upper = upper->clone();
  return d;
}

VarDecl VarDecl::clone() const {
  VarDecl v;
  v.name = name;
  v.type = type;
  for (const auto& d : dims) v.dims.push_back(d.clone());
  v.commonBlock = commonBlock;
  v.isParameter = isParameter;
  if (parameterValue) v.parameterValue = parameterValue->clone();
  v.loc = loc;
  return v;
}

const VarDecl* Procedure::findDecl(const std::string& name) const {
  for (const auto& d : decls) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

VarDecl* Procedure::findDecl(const std::string& name) {
  for (auto& d : decls) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

bool Procedure::isParam(const std::string& name) const {
  for (const auto& p : params) {
    if (p == name) return true;
  }
  return false;
}

void Procedure::forEachStmt(const std::function<void(const Stmt&)>& fn) const {
  for (const auto& s : body) s->forEach(fn);
}

void Procedure::forEachStmtMutable(const std::function<void(Stmt&)>& fn) {
  for (auto& s : body) s->forEachMutable(fn);
}

Procedure* Program::findUnit(const std::string& name) {
  for (auto& u : units) {
    if (u->name == name) return u.get();
  }
  return nullptr;
}

const Procedure* Program::findUnit(const std::string& name) const {
  for (const auto& u : units) {
    if (u->name == name) return u.get();
  }
  return nullptr;
}

ProcedurePtr cloneUnit(const Procedure& unit) {
  auto copy = std::make_unique<Procedure>();
  copy->kind = unit.kind;
  copy->name = unit.name;
  copy->params = unit.params;
  copy->returnType = unit.returnType;
  copy->loc = unit.loc;
  for (const auto& d : unit.decls) copy->decls.push_back(d.clone());
  for (const auto& s : unit.body) copy->body.push_back(s->clone());
  // Restore the ids by parallel pre-order traversal (clone preserves
  // shape).
  std::vector<StmtId> ids;
  unit.forEachStmt([&](const Stmt& s) { ids.push_back(s.id); });
  std::size_t i = 0;
  copy->forEachStmtMutable([&](Stmt& s) {
    if (i < ids.size()) s.id = ids[i];
    ++i;
  });
  return copy;
}

void Program::assignIds() {
  for (auto& u : units) assignIds(*u);
}

void Program::assignIds(Procedure& unit) {
  unit.forEachStmtMutable([&](Stmt& s) {
    if (s.id == kInvalidStmt) s.id = freshId();
  });
}

TypeKind implicitType(const std::string& name) {
  if (name.empty()) return TypeKind::Real;
  char c = name[0];
  return (c >= 'I' && c <= 'N') ? TypeKind::Integer : TypeKind::Real;
}

}  // namespace ps::fortran
