#include <set>

#include "transform/catalog.h"

namespace ps::transform {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::StmtPtr;
using ir::Loop;

namespace {

// ===========================================================================
// Strip Mining
// ===========================================================================

class StripMining : public Transformation {
 public:
  std::string name() const override { return "Strip Mining"; }
  Category category() const override { return Category::MemoryOptimizing; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (!unitStep(*loop->stmt)) {
      return Advice::no("only unit-step loops are strip mined");
    }
    if (t.factor < 2) return Advice::no("strip size must be at least 2");
    return Advice::ok(false, "always legal (iteration order preserved)");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    normalizeLoopForm(s);
    std::string stripIv = freshName(ws.proc, s.doVar + "$S");
    fortran::VarDecl d;
    d.name = stripIv;
    d.type = fortran::TypeKind::Integer;
    ws.proc.decls.push_back(std::move(d));

    // DO s = lo, hi, B / DO iv = s, MIN(s + B - 1, hi).
    auto inner = fortran::makeStmt(StmtKind::Do, s.loc);
    inner->doVar = s.doVar;
    inner->doLo = fortran::makeVarRef(stripIv);
    std::vector<fortran::ExprPtr> minArgs;
    minArgs.push_back(fortran::makeBinary(
        fortran::BinOp::Sub,
        fortran::makeBinary(fortran::BinOp::Add,
                            fortran::makeVarRef(stripIv),
                            fortran::makeIntConst(t.factor)),
        fortran::makeIntConst(1)));
    minArgs.push_back(s.doHi->clone());
    inner->doLo = fortran::makeVarRef(stripIv);
    inner->doHi = fortran::makeFuncCall("MIN0", std::move(minArgs));
    inner->body = std::move(s.body);

    s.doVar = stripIv;
    s.doStep = fortran::makeIntConst(t.factor);
    s.body.clear();
    s.body.push_back(std::move(inner));
    return true;
  }
};

// ===========================================================================
// Loop Unrolling
// ===========================================================================

class LoopUnrolling : public Transformation {
 public:
  std::string name() const override { return "Loop Unrolling"; }
  Category category() const override { return Category::MemoryOptimizing; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (!unitStep(*loop->stmt)) {
      return Advice::no("only unit-step loops are unrolled");
    }
    if (t.factor < 2) return Advice::no("unroll factor must be at least 2");
    bool hasGoto = false;
    for (const auto& b : loop->stmt->body) {
      b->forEach([&](const Stmt& inner) {
        if (inner.kind == StmtKind::Goto ||
            inner.kind == StmtKind::ArithmeticIf) {
          hasGoto = true;
        }
      });
    }
    if (hasGoto) return Advice::unsafe("body has unstructured control flow");
    return Advice::ok(false, "always legal (plus a remainder loop)");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    normalizeLoopForm(s);
    long long u = t.factor;
    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);

    // Remainder loop runs the tail iterations with the original body:
    //   DO iv = lo + ((hi - lo + 1)/u)*u, hi.
    auto remainder = fortran::makeStmt(StmtKind::Do, s.loc);
    remainder->doVar = s.doVar;
    remainder->doHi = s.doHi->clone();
    remainder->doLo = fortran::makeBinary(
        fortran::BinOp::Add, s.doLo->clone(),
        fortran::makeBinary(
            fortran::BinOp::Mul,
            fortran::makeBinary(
                fortran::BinOp::Div,
                fortran::makeBinary(
                    fortran::BinOp::Add,
                    fortran::makeBinary(fortran::BinOp::Sub, s.doHi->clone(),
                                        s.doLo->clone()),
                    fortran::makeIntConst(1)),
                fortran::makeIntConst(u)),
            fortran::makeIntConst(u)));
    for (const auto& b : s.body) remainder->body.push_back(b->clone());

    // Main loop: step u, body replicated with iv, iv+1, ..., iv+u-1.
    std::vector<StmtPtr> original = std::move(s.body);
    s.body.clear();
    for (long long k = 0; k < u; ++k) {
      for (const auto& b : original) {
        StmtPtr copy = b->clone();
        if (k > 0) {
          auto repl = fortran::makeBinary(fortran::BinOp::Add,
                                          fortran::makeVarRef(s.doVar),
                                          fortran::makeIntConst(k));
          substituteVar(*copy, s.doVar, *repl);
        }
        s.body.push_back(std::move(copy));
      }
    }
    // hi of main loop: lo + (trip/u)*u - 1; easier: remainderLo - 1.
    s.doHi = fortran::makeBinary(fortran::BinOp::Sub,
                                 remainder->doLo->clone(),
                                 fortran::makeIntConst(1));
    s.doStep = fortran::makeIntConst(u);
    container->insert(container->begin() + static_cast<long>(index + 1),
                      std::move(remainder));
    return true;
  }
};

// ===========================================================================
// Unroll and Jam
// ===========================================================================

class UnrollAndJam : public Transformation {
 public:
  std::string name() const override { return "Unroll and Jam"; }
  Category category() const override { return Category::MemoryOptimizing; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* outer = ws.loopOf(t.loop);
    if (!outer) return Advice::no("target is not a loop");
    if (!unitStep(*outer->stmt)) {
      return Advice::no("only unit-step outer loops");
    }
    if (outer->stmt->body.size() != 1 ||
        outer->stmt->body[0]->kind != StmtKind::Do) {
      return Advice::no("not a perfect two-level nest");
    }
    // Legality matches interchange: jamming moves outer iterations inside.
    const Transformation* interchange =
        Registry::instance().byName("Loop Interchange");
    Advice ia = interchange->advise(ws, t);
    if (!ia.safe) {
      return Advice::unsafe("jamming unsafe: " + ia.explanation);
    }
    return Advice::ok(false, "improves register reuse across outer "
                             "iterations");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* outer = ws.loopOf(t.loop);
    Stmt& o = *outer->stmt;
    Stmt& inner = *o.body[0];
    long long u = t.factor;
    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);

    // Remainder outer loop with the original nest.
    auto remainder = o.clone();
    remainder->doLo = fortran::makeBinary(
        fortran::BinOp::Add, o.doLo->clone(),
        fortran::makeBinary(
            fortran::BinOp::Mul,
            fortran::makeBinary(
                fortran::BinOp::Div,
                fortran::makeBinary(
                    fortran::BinOp::Add,
                    fortran::makeBinary(fortran::BinOp::Sub, o.doHi->clone(),
                                        o.doLo->clone()),
                    fortran::makeIntConst(1)),
                fortran::makeIntConst(u)),
            fortran::makeIntConst(u)));

    // Jam: replicate the inner body for iv, iv+1, ... inside one inner
    // loop.
    std::vector<StmtPtr> jammed;
    for (long long k = 0; k < u; ++k) {
      for (const auto& b : inner.body) {
        StmtPtr copy = b->clone();
        if (k > 0) {
          auto repl = fortran::makeBinary(fortran::BinOp::Add,
                                          fortran::makeVarRef(o.doVar),
                                          fortran::makeIntConst(k));
          substituteVar(*copy, o.doVar, *repl);
        }
        jammed.push_back(std::move(copy));
      }
    }
    inner.body = std::move(jammed);
    o.doHi = fortran::makeBinary(fortran::BinOp::Sub,
                                 remainder->doLo->clone(),
                                 fortran::makeIntConst(1));
    o.doStep = fortran::makeIntConst(u);
    container->insert(container->begin() + static_cast<long>(index + 1),
                      std::move(remainder));
    return true;
  }
};

// ===========================================================================
// Scalar Replacement
// ===========================================================================

class ScalarReplacement : public Transformation {
 public:
  std::string name() const override { return "Scalar Replacement"; }
  Category category() const override { return Category::MemoryOptimizing; }

  /// Find a loop-invariant array reference of the named array in the loop.
  static const Expr* invariantRef(Workspace&, Loop* loop,
                                  const std::string& var, bool* written) {
    const Expr* found = nullptr;
    *written = false;
    for (const Stmt* s : loop->bodyStmts) {
      s->forEachExpr([&](const Expr& e) {
        if (e.kind == ExprKind::ArrayRef && e.name == var) {
          if (!found) found = &e;
        }
      });
      if (s->kind == StmtKind::Assign &&
          s->lhs->kind == ExprKind::ArrayRef && s->lhs->name == var) {
        *written = true;
      }
    }
    if (!found) return nullptr;
    // All refs must be structurally identical and subscripts must not use
    // any variable assigned in the loop.
    bool uniform = true;
    for (const Stmt* s : loop->bodyStmts) {
      s->forEachExpr([&](const Expr& e) {
        if (e.kind == ExprKind::ArrayRef && e.name == var &&
            !e.structurallyEquals(*found)) {
          uniform = false;
        }
      });
    }
    if (!uniform) return nullptr;
    std::set<std::string> defined;
    defined.insert(loop->inductionVar());
    for (const Stmt* s : loop->bodyStmts) {
      if (s->kind == StmtKind::Do) defined.insert(s->doVar);
      if (s->kind == StmtKind::Assign &&
          s->lhs->kind == ExprKind::VarRef) {
        defined.insert(s->lhs->name);
      }
    }
    bool invariant = true;
    for (const auto& sub : found->args) {
      sub->forEach([&](const Expr& e) {
        if (e.kind == ExprKind::VarRef && defined.count(e.name)) {
          invariant = false;
        }
      });
    }
    return invariant ? found : nullptr;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    bool written = false;
    const Expr* ref = invariantRef(ws, loop, t.variable, &written);
    if (!ref) {
      return Advice::no(
          "no single loop-invariant reference of the array in the loop");
    }
    return Advice::ok(false, written
                                 ? "load before, store after the loop"
                                 : "load once before the loop");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    bool written = false;
    const Expr* ref = invariantRef(ws, loop, t.variable, &written);
    fortran::ExprPtr refCopy = ref->clone();

    std::string scalar = freshName(ws.proc, t.variable + "$R");
    fortran::VarDecl d;
    d.name = scalar;
    const fortran::VarDecl* orig = ws.proc.findDecl(t.variable);
    d.type = orig ? orig->type : fortran::TypeKind::Real;
    ws.proc.decls.push_back(std::move(d));

    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);
    // Load before the loop.
    auto load = fortran::makeStmt(StmtKind::Assign, s.loc);
    load->lhs = fortran::makeVarRef(scalar);
    load->rhs = refCopy->clone();
    container->insert(container->begin() + static_cast<long>(index),
                      std::move(load));
    // Store after (if written).
    if (written) {
      auto storeBack = fortran::makeStmt(StmtKind::Assign, s.loc);
      storeBack->lhs = refCopy->clone();
      storeBack->rhs = fortran::makeVarRef(scalar);
      container->insert(container->begin() + static_cast<long>(index + 2),
                        std::move(storeBack));
    }
    // Replace refs in the body.
    auto scalarRef = fortran::makeVarRef(scalar);
    for (auto& b : s.body) {
      b->forEachMutable([&](Stmt& st) {
        st.forEachExprMutable([&](Expr& e) {
          if (e.kind == ExprKind::ArrayRef && e.name == t.variable &&
              e.structurallyEquals(*refCopy)) {
            e = std::move(*scalarRef->clone());
          }
        });
        if (st.kind == StmtKind::Assign &&
            st.lhs->kind == ExprKind::ArrayRef &&
            st.lhs->structurallyEquals(*refCopy)) {
          st.lhs = scalarRef->clone();
        }
      });
    }
    return true;
  }
};

}  // namespace

void addMemoryTransforms(std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<StripMining>());
  out.push_back(std::make_unique<LoopUnrolling>());
  out.push_back(std::make_unique<UnrollAndJam>());
  out.push_back(std::make_unique<ScalarReplacement>());
}

}  // namespace ps::transform
