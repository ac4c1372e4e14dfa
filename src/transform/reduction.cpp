#include <set>

#include "ir/refs.h"
#include "transform/catalog.h"

namespace ps::transform {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::StmtPtr;
using ir::Loop;

namespace {

/// A recognized sum reduction: S = S + <term> (or S = <term> + S, or
/// S = S - <term>), where S is a scalar not otherwise assigned in the loop.
struct ReductionMatch {
  Stmt* update = nullptr;
  std::string accumulator;
  const Expr* term = nullptr;  // points into the update's RHS
  bool subtract = false;
};

bool matchSumUpdate(Stmt& s, ReductionMatch* m) {
  if (s.kind != StmtKind::Assign || s.lhs->kind != ExprKind::VarRef) {
    return false;
  }
  const std::string& acc = s.lhs->name;
  Expr& rhs = *s.rhs;
  if (rhs.kind != ExprKind::Binary) return false;
  if (rhs.binOp != BinOp::Add && rhs.binOp != BinOp::Sub) return false;
  if (rhs.lhs->kind == ExprKind::VarRef && rhs.lhs->name == acc) {
    m->update = &s;
    m->accumulator = acc;
    m->term = rhs.rhs.get();
    m->subtract = (rhs.binOp == BinOp::Sub);
    return true;
  }
  if (rhs.binOp == BinOp::Add && rhs.rhs->kind == ExprKind::VarRef &&
      rhs.rhs->name == acc) {
    m->update = &s;
    m->accumulator = acc;
    m->term = rhs.lhs.get();
    m->subtract = false;
    return true;
  }
  return false;
}

bool findReduction(Loop* loop, ReductionMatch* m) {
  // Exactly one statement in the loop body (possibly with a terminating
  // CONTINUE) updating the accumulator, and the accumulator appears nowhere
  // else in the loop.
  Stmt& ls = *loop->stmt;
  ReductionMatch found;
  int updates = 0;
  for (const auto& b : ls.body) {
    Stmt* raw = b.get();
    ReductionMatch candidate;
    if (matchSumUpdate(*raw, &candidate)) {
      ++updates;
      found = candidate;
    }
  }
  if (updates != 1) return false;
  // The accumulator must not occur in any other statement of the loop, nor
  // in the reduction term itself.
  bool clean = true;
  for (const Stmt* s : loop->bodyStmts) {
    if (s == found.update) continue;
    s->forEachExpr([&](const Expr& e) {
      if (e.kind == ExprKind::VarRef && e.name == found.accumulator) {
        clean = false;
      }
    });
  }
  found.term->forEach([&](const Expr& e) {
    if (e.kind == ExprKind::VarRef && e.name == found.accumulator) {
      clean = false;
    }
  });
  if (!clean) return false;
  *m = found;
  return true;
}

/// Reduction Recognition — "five of the programs contain sum reductions
/// which go unrecognized by PED" (§4.3). Recognizes S = S + term and
/// restructures the accumulation into a per-iteration partial array plus a
/// separate sum loop, making the main loop parallelizable. (Floating-point
/// reassociation caveat documented in DESIGN.md.)
class ReductionRecognition : public Transformation {
 public:
  std::string name() const override { return "Reduction Recognition"; }
  Category category() const override {
    return Category::DependenceBreaking;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    const Stmt& s = *loop->stmt;
    if (s.doStep && !s.doStep->isIntConst(1)) {
      return Advice::no("only unit-step loops");
    }
    ReductionMatch m;
    if (!findReduction(loop, &m)) {
      return Advice::no("no sum-reduction update in the loop body");
    }
    // The partial array takes the loop's bounds, and Fortran evaluates an
    // array's bounds at procedure entry: they may read no variable that a
    // statement of the procedure writes (assignment, DO control, READ or
    // CALL actual), nor a COMMON member that a call may write (an unknown
    // callee, or no oracle at all, counts as a writer).
    std::set<std::string> boundVars;
    auto collect = [&](const Expr& e) {
      if (e.kind == ExprKind::VarRef || e.kind == ExprKind::ArrayRef) {
        boundVars.insert(e.name);
      }
    };
    s.doLo->forEach(collect);
    s.doHi->forEach(collect);
    std::set<std::string> commonBounds;
    for (const std::string& v : boundVars) {
      const fortran::VarDecl* d = ws.proc.findDecl(v);
      if (d && !d->commonBlock.empty()) commonBounds.insert(v);
    }
    const dep::SideEffectOracle* oracle = ws.actx.oracle;
    auto callWrites = [&](const Stmt& st, const std::string& callee,
                          const std::string& var) {
      if (!oracle || !oracle->knowsCallee(callee)) return true;
      for (const dep::CallEffect& e : oracle->effectsOfCall(st, callee)) {
        if (e.var == var && e.mayWrite) return true;
      }
      return false;
    };
    auto refuse = [](const std::string& var, const char* writer) {
      return Advice::unsafe("the loop bounds read " + var + ", which " +
                            writer +
                            " writes; a partial-sum array sized at "
                            "procedure entry would not match the loop");
    };
    for (const Stmt* st : ws.model->allStmts()) {
      for (const ir::Ref& r : ir::collectRefs(*st)) {
        if (r.isWrite() && boundVars.count(r.name)) {
          return refuse(r.name, "the procedure");
        }
      }
      if (commonBounds.empty()) continue;
      for (const std::string& callee : ir::calledFunctions(*st)) {
        for (const std::string& v : commonBounds) {
          if (callWrites(*st, callee, v)) return refuse(v, "a callee");
        }
      }
    }
    // Check the rest of the loop is otherwise parallel: reductions are
    // profitable when they are the only impediment.
    bool onlyImpediment = true;
    for (const auto* d : ws.graph->parallelismInhibitors(*loop)) {
      if (d->variable != m.accumulator) onlyImpediment = false;
    }
    return Advice::ok(onlyImpediment,
                      "accumulation of " + m.accumulator +
                          " is reorderable (associative +)");
  }

  bool apply(Workspace& ws, const Target& t,
             std::string* error) const override {
    Advice a = advise(ws, t);
    if (!a.safe) {
      if (error) *error = a.explanation;
      return false;
    }
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    ReductionMatch m;
    findReduction(loop, &m);

    // Partial array P(lo:hi); update becomes P(iv) = [-]term; a sum loop
    // follows the main loop.
    std::string part = freshName(ws.proc, m.accumulator + "$P");
    fortran::VarDecl decl;
    decl.name = part;
    const fortran::VarDecl* orig = ws.proc.findDecl(m.accumulator);
    decl.type = orig ? orig->type : fortran::TypeKind::Real;
    fortran::Dimension dim;
    dim.lower = s.doLo->clone();
    dim.upper = s.doHi->clone();
    decl.dims.push_back(std::move(dim));
    ws.proc.decls.push_back(std::move(decl));

    auto partRef = [&]() {
      std::vector<fortran::ExprPtr> subs;
      subs.push_back(fortran::makeVarRef(s.doVar));
      return fortran::makeArrayRef(part, std::move(subs));
    };

    // Rewrite the update statement.
    fortran::ExprPtr term = m.term->clone();
    if (m.subtract) {
      term = fortran::makeUnary(fortran::UnOp::Neg, std::move(term));
    }
    m.update->lhs = partRef();
    m.update->rhs = std::move(term);

    // Sum loop after the main loop:  DO iv = lo, hi ; ACC = ACC + P(iv).
    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);
    auto sumLoop = fortran::makeStmt(StmtKind::Do, s.loc);
    sumLoop->doVar = s.doVar;
    sumLoop->doLo = s.doLo->clone();
    sumLoop->doHi = s.doHi->clone();
    auto add = fortran::makeStmt(StmtKind::Assign, s.loc);
    add->lhs = fortran::makeVarRef(m.accumulator);
    add->rhs = fortran::makeBinary(
        BinOp::Add, fortran::makeVarRef(m.accumulator), partRef());
    sumLoop->body.push_back(std::move(add));
    container->insert(container->begin() + static_cast<long>(index + 1),
                      std::move(sumLoop));
    ws.reanalyze();
    return true;
  }
};

}  // namespace

bool findSumReduction(const ir::Loop& loop, SumReduction* out) {
  // findReduction takes a mutable loop because apply() reuses the match to
  // rewrite; the search itself never mutates.
  ReductionMatch m;
  if (!findReduction(const_cast<Loop*>(&loop), &m)) return false;
  out->update = m.update->id;
  out->accumulator = m.accumulator;
  out->subtract = m.subtract;
  return true;
}

void addReductionTransforms(
    std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<ReductionRecognition>());
}

}  // namespace ps::transform
