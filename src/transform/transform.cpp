#include "transform/transform.h"

#include <set>

#include "ir/refs.h"

namespace ps::transform {

const char* categoryName(Category c) {
  switch (c) {
    case Category::Reordering: return "Reordering";
    case Category::DependenceBreaking: return "Dependence Breaking";
    case Category::MemoryOptimizing: return "Memory Optimizing";
    case Category::Miscellaneous: return "Miscellaneous";
  }
  return "?";
}

Workspace::Workspace(fortran::Program& programIn, fortran::Procedure& procIn,
                     dep::AnalysisContext actxIn)
    : program(programIn), proc(procIn), actx(std::move(actxIn)) {
  reanalyze();
}

Workspace::Workspace(fortran::Program& programIn, fortran::Procedure& procIn,
                     dep::AnalysisContext actxIn,
                     std::unique_ptr<ir::ProcedureModel> modelIn,
                     std::unique_ptr<dep::DependenceGraph> graphIn)
    : program(programIn),
      proc(procIn),
      actx(std::move(actxIn)),
      model(std::move(modelIn)),
      graph(std::move(graphIn)) {}

void Workspace::reanalyze() {
  model = std::make_unique<ir::ProcedureModel>(proc);
  // A whole-procedure build; the memo in actx answers every test whose
  // inputs the edit left unchanged.
  graph = std::make_unique<dep::DependenceGraph>(
      dep::DependenceGraph::build(*model, actx));
}

bool Transformation::apply(Workspace& ws, const Target& t,
                           std::string* error) const {
  const Advice advice = advise(ws, t);
  if (!advice.safe) {
    if (error) *error = advice.explanation;
    return false;
  }
  const std::size_t units = ws.program.units.size();
  if (!rewrite(ws, t, error)) return false;
  // Number what the mechanics minted, in unit order: the rewritten unit's
  // statements, then those of any unit it appended. Every other statement
  // of the program has its id already.
  ws.program.assignIds(ws.proc);
  for (std::size_t i = units; i < ws.program.units.size(); ++i) {
    ws.program.assignIds(*ws.program.units[i]);
  }
  ws.reanalyze();
  return true;
}

namespace {

/// Replace VarRef(name) nodes without descending into the replacement (a
/// replacement like I -> I + 1 must not be rewritten again).
void substExpr(fortran::ExprPtr& e, const std::string& name,
               const fortran::Expr& replacement) {
  if (!e) return;
  if (e->kind == fortran::ExprKind::VarRef && e->name == name) {
    e = replacement.clone();
    return;
  }
  for (auto& a : e->args) substExpr(a, name, replacement);
  substExpr(e->lhs, name, replacement);
  substExpr(e->rhs, name, replacement);
}

}  // namespace

void substituteVar(fortran::Stmt& stmt, const std::string& name,
                   const fortran::Expr& replacement) {
  stmt.forEachMutable([&](fortran::Stmt& s) {
    substExpr(s.lhs, name, replacement);
    substExpr(s.rhs, name, replacement);
    substExpr(s.doLo, name, replacement);
    substExpr(s.doHi, name, replacement);
    substExpr(s.doStep, name, replacement);
    for (auto& arm : s.arms) substExpr(arm.condition, name, replacement);
    substExpr(s.condExpr, name, replacement);
    for (auto& a : s.args) substExpr(a, name, replacement);
    if (s.kind == fortran::StmtKind::Do && s.doVar == name &&
        replacement.kind == fortran::ExprKind::VarRef) {
      s.doVar = replacement.name;
    }
  });
}

bool unitStep(const fortran::Stmt& loopStmt) {
  return !loopStmt.doStep || loopStmt.doStep->isIntConst(1);
}

void normalizeLoopForm(fortran::Stmt& loopStmt) {
  if (loopStmt.doEndLabel == 0) return;
  if (!loopStmt.body.empty() &&
      loopStmt.body.back()->kind == fortran::StmtKind::Continue &&
      loopStmt.body.back()->label == loopStmt.doEndLabel) {
    loopStmt.body.pop_back();
  }
  loopStmt.doEndLabel = 0;
}

std::string boundsChangeAfterEntry(Workspace& ws,
                                   const fortran::Stmt& loopStmt) {
  std::set<std::string> boundVars;
  auto collect = [&](const fortran::Expr& e) {
    if (e.kind == fortran::ExprKind::VarRef ||
        e.kind == fortran::ExprKind::ArrayRef) {
      boundVars.insert(e.name);
    }
  };
  loopStmt.doLo->forEach(collect);
  loopStmt.doHi->forEach(collect);
  std::set<std::string> commonBounds;
  for (const std::string& v : boundVars) {
    const fortran::VarDecl* d = ws.proc.findDecl(v);
    if (d && !d->commonBlock.empty()) commonBounds.insert(v);
  }
  const dep::SideEffectOracle* oracle = ws.actx.oracle;
  auto callWrites = [&](const fortran::Stmt& st, const std::string& callee,
                        const std::string& var) {
    if (!oracle || !oracle->knowsCallee(callee)) return true;
    for (const dep::CallEffect& e : oracle->effectsOfCall(st, callee)) {
      if (e.var == var && e.mayWrite) return true;
    }
    return false;
  };
  auto why = [](const std::string& var, const char* writer) {
    return "the loop bounds read " + var + ", which " + writer + " writes";
  };
  for (const fortran::Stmt* st : ws.model->allStmts()) {
    for (const ir::Ref& r : ir::collectRefs(*st)) {
      if (r.isWrite() && boundVars.count(r.name)) {
        return why(r.name, "the procedure");
      }
    }
    if (commonBounds.empty()) continue;
    for (const std::string& callee : ir::calledFunctions(*st)) {
      for (const std::string& v : commonBounds) {
        if (callWrites(*st, callee, v)) return why(v, "a callee");
      }
    }
  }
  return {};
}

std::vector<fortran::StmtPtr>* containerOf(Workspace& ws, fortran::StmtId id,
                                           std::size_t* index) {
  return ws.model->containerOf(id, index);
}

std::string freshName(const fortran::Procedure& proc,
                      const std::string& base) {
  for (int i = 0; i < 1000; ++i) {
    std::string candidate = base + (i == 0 ? "X" : std::to_string(i));
    if (!proc.findDecl(candidate) && !proc.isParam(candidate)) {
      return candidate;
    }
  }
  return base + "XX";
}

Trial::Trial(const Workspace& ws) {
  // The clone keeps the unit's ids, so targets, overrides and graph
  // endpoints name the same statements in the sandbox; ids it mints come
  // after every id of the workspace's program.
  program_.units.push_back(fortran::cloneUnit(ws.proc));
  program_.nextStmtId = ws.program.nextStmtId;
  // The sandbox sees the same user context but no interprocedural oracle
  // (it owns only this one unit).
  dep::AnalysisContext actx = ws.actx;
  actx.oracle = nullptr;
  ws_ = std::make_unique<Workspace>(program_, *program_.units.back(),
                                    std::move(actx));
}

}  // namespace ps::transform
