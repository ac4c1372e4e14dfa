#include "transform/catalog.h"

namespace ps::transform {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Procedure;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::StmtPtr;
using ir::Loop;

namespace {

/// The callee's single outermost loop, or null. Tolerates leading
/// declarations-only shape (procedure body = one DO, possibly followed by
/// RETURN).
Stmt* soleOuterLoop(Procedure& callee) {
  Stmt* loop = nullptr;
  for (auto& s : callee.body) {
    switch (s->kind) {
      case StmtKind::Do:
        if (loop) return nullptr;  // more than one top-level loop
        loop = s.get();
        break;
      case StmtKind::Return:
      case StmtKind::Continue:
        break;
      default:
        return nullptr;  // other executable work outside the loop
    }
  }
  return loop;
}

// ===========================================================================
// Loop Extraction (§5.3): move the callee's outer loop out into the caller,
// so its (many) iterations become the caller's parallel work. The paper's
// spec77/gloop request; "embedding and extraction are not currently
// implemented in PED" — they are here.
// ===========================================================================

class LoopExtraction : public Transformation {
 public:
  std::string name() const override { return "Loop Extraction"; }
  Category category() const override { return Category::Miscellaneous; }

  static Procedure* findCallee(Workspace& ws, const Target& t,
                               Stmt** callSite) {
    Stmt* s = ws.model->stmt(t.stmt);
    if (!s || s->kind != StmtKind::Call) return nullptr;
    *callSite = s;
    return ws.program.findUnit(s->callee);
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Stmt* callSite = nullptr;
    Procedure* callee = findCallee(ws, t, &callSite);
    if (!callee) return Advice::no("target is not a CALL to a known unit");
    Stmt* loop = soleOuterLoop(*callee);
    if (!loop) {
      return Advice::no("callee body is not a single outer loop");
    }
    // The loop bounds must be expressible in the caller: they may only use
    // the callee's formals (translated to actuals) or constants.
    bool expressible = true;
    auto check = [&](const Expr& e) {
      e.forEach([&](const Expr& sub) {
        if (sub.kind == ExprKind::VarRef && !callee->isParam(sub.name)) {
          expressible = false;
        }
        if (sub.kind == ExprKind::ArrayRef || sub.kind == ExprKind::FuncCall) {
          expressible = false;
        }
      });
    };
    check(*loop->doLo);
    check(*loop->doHi);
    if (loop->doStep) check(*loop->doStep);
    if (!expressible) {
      return Advice::no("callee loop bounds not expressible at the call "
                        "site");
    }
    // Every actual must be a plain variable or array name (so the new
    // call's arguments stay well-defined across iterations).
    for (const auto& arg : callSite->args) {
      if (arg->kind != ExprKind::VarRef && arg->kind != ExprKind::ArrayRef &&
          arg->kind != ExprKind::IntConst && arg->kind != ExprKind::RealConst) {
        return Advice::no("call arguments must be simple variables");
      }
    }
    return Advice::ok(true,
                      "exposes the callee's iterations at the call site "
                      "(interchange/fusion across the boundary becomes "
                      "possible)");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Stmt* callSite = nullptr;
    Procedure* callee = findCallee(ws, t, &callSite);
    Stmt* loop = soleOuterLoop(*callee);

    // 1. Create the extracted-body procedure <NAME>$B with the loop
    //    variable as an extra formal.
    std::string bodyName = callee->name + "$B";
    if (!ws.program.findUnit(bodyName)) {
      auto bodyProc = std::make_unique<Procedure>();
      bodyProc->kind = fortran::ProcKind::Subroutine;
      bodyProc->name = bodyName;
      bodyProc->params = callee->params;
      bodyProc->params.push_back(loop->doVar);
      for (const auto& d : callee->decls) {
        bodyProc->decls.push_back(d.clone());
      }
      for (const auto& b : loop->body) {
        bodyProc->body.push_back(b->clone());
      }
      ws.program.units.push_back(std::move(bodyProc));
    }

    // 2. Replace the call with: DO iv$ = lo', hi' ; CALL NAME$B(args, iv$).
    //    Bounds are the callee's, with formals replaced by actuals.
    std::map<std::string, const Expr*> formalToActual;
    for (std::size_t i = 0;
         i < callee->params.size() && i < callSite->args.size(); ++i) {
      formalToActual[callee->params[i]] = callSite->args[i].get();
    }
    auto translate = [&](const Expr& e) -> fortran::ExprPtr {
      fortran::ExprPtr out = e.clone();
      // Substitute formal names with actual expressions.
      out->forEachMutable([&](Expr& sub) {
        if (sub.kind == ExprKind::VarRef) {
          auto it = formalToActual.find(sub.name);
          if (it != formalToActual.end()) {
            fortran::ExprPtr repl = it->second->clone();
            sub = std::move(*repl);
          }
        }
      });
      return out;
    };

    std::string iv = freshName(ws.proc, loop->doVar + "$");
    fortran::VarDecl ivDecl;
    ivDecl.name = iv;
    ivDecl.type = fortran::TypeKind::Integer;
    ws.proc.decls.push_back(std::move(ivDecl));

    auto newLoop = fortran::makeStmt(StmtKind::Do, callSite->loc);
    newLoop->label = callSite->label;
    newLoop->doVar = iv;
    newLoop->doLo = translate(*loop->doLo);
    newLoop->doHi = translate(*loop->doHi);
    if (loop->doStep) newLoop->doStep = translate(*loop->doStep);

    auto newCall = fortran::makeStmt(StmtKind::Call, callSite->loc);
    newCall->callee = bodyName;
    for (const auto& arg : callSite->args) {
      newCall->args.push_back(arg->clone());
    }
    newCall->args.push_back(fortran::makeVarRef(iv));
    newLoop->body.push_back(std::move(newCall));

    std::size_t index = 0;
    auto* container = containerOf(ws, t.stmt, &index);
    (*container)[index] = std::move(newLoop);
    return true;
  }
};

// ===========================================================================
// Loop Embedding: the converse — move the caller's loop into the callee.
// ===========================================================================

class LoopEmbedding : public Transformation {
 public:
  std::string name() const override { return "Loop Embedding"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    Stmt& s = *loop->stmt;
    // The loop body must be exactly one CALL (plus optional terminator).
    Stmt* call = nullptr;
    for (const auto& b : s.body) {
      if (b->kind == StmtKind::Continue && b->label == s.doEndLabel) {
        continue;
      }
      if (b->kind == StmtKind::Call && !call) {
        call = b.get();
        continue;
      }
      return Advice::no("loop body is not a single CALL");
    }
    if (!call) return Advice::no("loop body is not a single CALL");
    Procedure* callee = ws.program.findUnit(call->callee);
    if (!callee) return Advice::no("callee source not available");
    // The induction variable must be passed so the callee can iterate; we
    // require it to appear as a plain actual.
    bool ivPassed = false;
    for (const auto& argExpr : call->args) {
      if (argExpr->kind == ExprKind::VarRef && argExpr->name == s.doVar) {
        ivPassed = true;
      }
    }
    if (!ivPassed) {
      return Advice::no("induction variable is not an argument");
    }
    // Bounds must be simple variables/constants passable to the callee.
    auto simple = [](const Expr& e) {
      return e.kind == ExprKind::VarRef || e.kind == ExprKind::IntConst;
    };
    if (!simple(*s.doLo) || !simple(*s.doHi) || !unitStep(s)) {
      return Advice::no("loop bounds too complex to pass");
    }
    return Advice::ok(true, "amortizes call overhead; enables fusion "
                            "inside the callee");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    Stmt* call = nullptr;
    for (const auto& b : s.body) {
      if (b->kind == StmtKind::Call) call = b.get();
    }
    Procedure* callee = ws.program.findUnit(call->callee);

    // Create <NAME>$E taking (formals..., lo, hi); its body wraps the
    // original callee body in DO iv = lo, hi where iv is the formal bound
    // to the caller's induction variable.
    std::string emName = callee->name + "$E";
    // Which formal receives the induction variable?
    std::string ivFormal;
    for (std::size_t i = 0;
         i < call->args.size() && i < callee->params.size(); ++i) {
      if (call->args[i]->kind == ExprKind::VarRef &&
          call->args[i]->name == s.doVar) {
        ivFormal = callee->params[i];
      }
    }
    if (!ws.program.findUnit(emName)) {
      auto em = std::make_unique<Procedure>();
      em->kind = fortran::ProcKind::Subroutine;
      em->name = emName;
      em->params = callee->params;
      em->params.push_back("LO$");
      em->params.push_back("HI$");
      for (const auto& d : callee->decls) em->decls.push_back(d.clone());
      fortran::VarDecl lod;
      lod.name = "LO$";
      lod.type = fortran::TypeKind::Integer;
      em->decls.push_back(std::move(lod));
      fortran::VarDecl hid;
      hid.name = "HI$";
      hid.type = fortran::TypeKind::Integer;
      em->decls.push_back(std::move(hid));
      auto inner = fortran::makeStmt(StmtKind::Do, s.loc);
      inner->doVar = ivFormal;
      inner->doLo = fortran::makeVarRef("LO$");
      inner->doHi = fortran::makeVarRef("HI$");
      for (const auto& b : callee->body) inner->body.push_back(b->clone());
      em->body.push_back(std::move(inner));
      ws.program.units.push_back(std::move(em));
    }

    // Replace the loop with CALL NAME$E(args..., lo, hi).
    auto newCall = fortran::makeStmt(StmtKind::Call, s.loc);
    newCall->label = s.label;
    newCall->callee = emName;
    for (const auto& argExpr : call->args) {
      newCall->args.push_back(argExpr->clone());
    }
    newCall->args.push_back(s.doLo->clone());
    newCall->args.push_back(s.doHi->clone());

    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);
    (*container)[index] = std::move(newCall);
    return true;
  }
};

}  // namespace

void addInterproceduralTransforms(
    std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<LoopExtraction>());
  out.push_back(std::make_unique<LoopEmbedding>());
}

}  // namespace ps::transform
