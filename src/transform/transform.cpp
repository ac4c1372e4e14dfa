#include "transform/transform.h"

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
      graph(std::move(graphIn)) {
  // Count as one (re)analysis so restored workspaces report like freshly
  // built ones without inflating the session's incremental-reanalysis tally.
  reanalyses = 1;
}

void Workspace::reanalyze() {
  // The parallel driver assigns ids once before fanning out per-procedure
  // tasks (the Program is shared across them); everywhere else the
  // assignment is idempotent and cheap.
  if (!actx.idsPreassigned) program.assignIds();
  model = std::make_unique<ir::ProcedureModel>(proc);
  // A whole-procedure build; the memo in actx answers every test whose
  // inputs the edit left unchanged.
  graph = std::make_unique<dep::DependenceGraph>(
      dep::DependenceGraph::build(*model, actx));
  ++reanalyses;
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
  auto clone = std::make_unique<fortran::Procedure>();
  clone->kind = ws.proc.kind;
  clone->name = ws.proc.name;
  clone->params = ws.proc.params;
  clone->returnType = ws.proc.returnType;
  for (const auto& d : ws.proc.decls) clone->decls.push_back(d.clone());
  for (const auto& s : ws.proc.body) clone->body.push_back(s->clone());
  fortran::Procedure* raw = clone.get();
  program_.units.push_back(std::move(clone));
  program_.assignIds();
  // Map ids by parallel pre-order traversal (clone preserves shape).
  std::vector<fortran::StmtId> originalIds, cloneIds;
  ws.proc.forEachStmt(
      [&](const fortran::Stmt& s) { originalIds.push_back(s.id); });
  raw->forEachStmt(
      [&](const fortran::Stmt& s) { cloneIds.push_back(s.id); });
  for (std::size_t i = 0; i < originalIds.size() && i < cloneIds.size();
       ++i) {
    idMap_[originalIds[i]] = cloneIds[i];
  }
  // The sandbox sees the same user context but no interprocedural oracle
  // (it owns only this one unit).
  dep::AnalysisContext actx = ws.actx;
  actx.oracle = nullptr;
  // Translate classification overrides to sandbox ids.
  actx.classificationOverrides.clear();
  for (const auto& [loopId, overrides] : ws.actx.classificationOverrides) {
    auto it = idMap_.find(loopId);
    if (it != idMap_.end()) {
      actx.classificationOverrides[it->second] = overrides;
    }
  }
  ws_ = std::make_unique<Workspace>(program_, *raw, std::move(actx));
}

fortran::StmtId Trial::mapped(fortran::StmtId original) const {
  auto it = idMap_.find(original);
  return it == idMap_.end() ? fortran::kInvalidStmt : it->second;
}

}  // namespace ps::transform
