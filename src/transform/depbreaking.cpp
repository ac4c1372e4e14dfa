#include <set>

#include "cfg/flow_graph.h"
#include "dataflow/liveness.h"
#include "dataflow/privatize.h"
#include "transform/catalog.h"

namespace ps::transform {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;
using fortran::StmtPtr;
using ir::Loop;

namespace {

dataflow::PrivatizationAnalysis privAnalysis(Workspace& ws) {
  cfg::FlowGraph fg = cfg::FlowGraph::build(*ws.model);
  auto lv = dataflow::Liveness::build(fg, *ws.model);
  return dataflow::PrivatizationAnalysis::build(*ws.model, fg, lv);
}

// ===========================================================================
// Privatization — realized as PED's variable classification edit: the
// variable is recorded private for the loop and the dependence graph is
// rebuilt without its edges.
// ===========================================================================

class Privatization : public Transformation {
 public:
  std::string name() const override { return "Privatization"; }
  Category category() const override {
    return Category::DependenceBreaking;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (t.variable.empty()) return Advice::no("no variable named");
    const fortran::VarDecl* d = ws.proc.findDecl(t.variable);
    if (d && d->isArray()) {
      return Advice::no(
          "array privatization requires array kill analysis (see "
          "interproc/array_kill)");
    }
    auto priv = privAnalysis(ws);
    auto status = priv.statusOf(*loop, t.variable);
    switch (status) {
      case dataflow::PrivatizationStatus::Private:
      case dataflow::PrivatizationStatus::PrivateNeedsLastValue:
        return Advice::ok(true, "scalar is killed on every iteration");
      case dataflow::PrivatizationStatus::Shared:
        return Advice::unsafe(
            "scalar has an upward-exposed read (value crosses iterations)");
      case dataflow::PrivatizationStatus::Unused:
        return Advice::no("variable not accessed in the loop");
    }
    return Advice::no("unknown status");
  }

  bool apply(Workspace& ws, const Target& t,
             std::string* error) const override {
    Advice a = advise(ws, t);
    if (!a.safe) {
      if (error) *error = a.explanation;
      return false;
    }
    ws.actx.classificationOverrides[t.loop][t.variable] = true;
    ws.reanalyze();
    return true;
  }
};

// ===========================================================================
// Scalar Expansion — S becomes S$(iv) inside the loop, eliminating the
// anti/output dependences a reused temporary creates. The most-used
// transformation in the workshop (Table 4).
// ===========================================================================

class ScalarExpansion : public Transformation {
 public:
  std::string name() const override { return "Scalar Expansion"; }
  Category category() const override {
    return Category::DependenceBreaking;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (t.variable.empty()) return Advice::no("no variable named");
    const fortran::VarDecl* d = ws.proc.findDecl(t.variable);
    if (d && d->isArray()) return Advice::no("variable is already an array");
    const Stmt& s = *loop->stmt;
    if (s.doStep && !s.doStep->isIntConst(1)) {
      return Advice::no("only unit-step loops are expanded");
    }
    // A DO statement keeps assigning its control variable by name, so the
    // rewritten uses would read an expansion array nothing writes.
    if (s.doVar == t.variable) {
      return Advice::no("variable is the loop's control variable");
    }
    for (const Stmt* inner : loop->bodyStmts) {
      if (inner->kind == StmtKind::Do && inner->doVar == t.variable) {
        return Advice::no("variable is the control variable of a nested loop");
      }
    }
    auto priv = privAnalysis(ws);
    bool exposed = false, written = false, accessed = false;
    for (const auto& vc : priv.classesFor(*loop)) {
      if (vc.name != t.variable) continue;
      accessed = vc.readInLoop || vc.writtenInLoop;
      exposed = vc.upwardExposedRead;
      written = vc.writtenInLoop;
    }
    if (!accessed) return Advice::no("variable not accessed in the loop");
    if (!written) return Advice::no("variable never assigned in the loop");
    if (exposed) {
      return Advice::unsafe(
          "value flows across iterations (expansion would change it)");
    }
    bool prof = !ws.graph->parallelizable(*loop);
    return Advice::ok(prof, "expansion removes the scalar's anti/output "
                            "dependences");
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
    std::string expanded = freshName(ws.proc, t.variable + "$");

    // Declare the expansion array with the loop's upper bound as extent
    // (lower bound = the loop's lower bound).
    fortran::VarDecl decl;
    decl.name = expanded;
    const fortran::VarDecl* orig = ws.proc.findDecl(t.variable);
    decl.type = orig ? orig->type : fortran::implicitType(t.variable);
    fortran::Dimension dim;
    dim.lower = s.doLo->clone();
    dim.upper = s.doHi->clone();
    decl.dims.push_back(std::move(dim));
    ws.proc.decls.push_back(std::move(decl));

    // Rewrite S -> S$(iv) inside the loop body.
    auto replacement = fortran::makeArrayRef(
        expanded, [&] {
          std::vector<fortran::ExprPtr> subs;
          subs.push_back(fortran::makeVarRef(s.doVar));
          return subs;
        }());
    for (auto& b : s.body) substituteVar(*b, t.variable, *replacement);

    // Last-value copy-out when the scalar is live after the loop.
    cfg::FlowGraph fg = cfg::FlowGraph::build(*ws.model);
    auto lv = dataflow::Liveness::build(fg, *ws.model);
    if (lv.liveAfterLoop(*loop, t.variable)) {
      std::size_t index = 0;
      auto* container = containerOf(ws, t.loop, &index);
      auto copy = fortran::makeStmt(StmtKind::Assign, s.loc);
      copy->lhs = fortran::makeVarRef(t.variable);
      std::vector<fortran::ExprPtr> subs;
      subs.push_back(s.doHi->clone());
      copy->rhs = fortran::makeArrayRef(expanded, std::move(subs));
      container->insert(container->begin() + static_cast<long>(index + 1),
                        std::move(copy));
    }
    ws.reanalyze();
    return true;
  }
};

// ===========================================================================
// Array Renaming (node splitting) — breaks loop-carried anti dependences by
// reading from a pre-loop copy of the array.
// ===========================================================================

class ArrayRenaming : public Transformation {
 public:
  std::string name() const override { return "Array Renaming"; }
  Category category() const override {
    return Category::DependenceBreaking;
  }

  /// The transformation applies when every carried dependence on the array
  /// within the loop is an anti dependence (reads of old values).
  static bool antiOnly(Workspace& ws, Loop* loop, const std::string& var,
                       bool* anyCarried) {
    *anyCarried = false;
    for (const auto* d : ws.graph->parallelismInhibitors(*loop)) {
      if (d->variable != var) continue;
      *anyCarried = true;
      if (d->type != dep::DepType::Anti) return false;
    }
    return true;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    const fortran::VarDecl* d = ws.proc.findDecl(t.variable);
    if (!d || !d->isArray()) return Advice::no("variable is not an array");
    for (const auto& dim : d->dims) {
      if (!dim.upper) return Advice::no("array extent unknown");
    }
    bool anyCarried = false;
    if (!antiOnly(ws, loop, t.variable, &anyCarried)) {
      return Advice::unsafe(
          "array has carried flow/output dependences; copying stale values "
          "would change semantics");
    }
    if (!anyCarried) return Advice::no("no carried anti dependences");
    return Advice::ok(true, "reads redirect to a pre-loop copy");
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
    // Copy the declaration first: push_back below may reallocate decls and
    // invalidate any pointer into it.
    fortran::VarDecl origDecl = ws.proc.findDecl(t.variable)->clone();
    const fortran::VarDecl* orig = &origDecl;
    std::string copyName = freshName(ws.proc, t.variable + "$");

    fortran::VarDecl decl = origDecl.clone();
    decl.name = copyName;
    decl.commonBlock.clear();
    ws.proc.decls.push_back(std::move(decl));

    // Pre-loop copy nest: one loop per dimension.
    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);
    std::vector<std::string> ivs;
    StmtPtr innermost = fortran::makeStmt(StmtKind::Assign, s.loc);
    std::vector<fortran::ExprPtr> lhsSubs, rhsSubs;
    for (std::size_t dmn = 0; dmn < orig->dims.size(); ++dmn) {
      std::string iv = freshName(ws.proc, "I$" + std::to_string(dmn));
      fortran::VarDecl ivDecl;
      ivDecl.name = iv;
      ivDecl.type = fortran::TypeKind::Integer;
      ws.proc.decls.push_back(std::move(ivDecl));
      ivs.push_back(iv);
      lhsSubs.push_back(fortran::makeVarRef(iv));
      rhsSubs.push_back(fortran::makeVarRef(iv));
    }
    innermost->lhs = fortran::makeArrayRef(copyName, std::move(lhsSubs));
    innermost->rhs = fortran::makeArrayRef(t.variable, std::move(rhsSubs));
    StmtPtr nest = std::move(innermost);
    for (std::size_t dmn = orig->dims.size(); dmn-- > 0;) {
      auto loopStmt = fortran::makeStmt(StmtKind::Do, s.loc);
      loopStmt->doVar = ivs[dmn];
      loopStmt->doLo = orig->dims[dmn].lower
                           ? orig->dims[dmn].lower->clone()
                           : fortran::makeIntConst(1);
      loopStmt->doHi = orig->dims[dmn].upper->clone();
      loopStmt->body.push_back(std::move(nest));
      nest = std::move(loopStmt);
    }
    container->insert(container->begin() + static_cast<long>(index),
                      std::move(nest));

    // Redirect reads inside the target loop to the copy (writes stay).
    for (auto& b : s.body) {
      b->forEachMutable([&](Stmt& st) {
        auto rewriteReads = [&](fortran::ExprPtr& e) {
          if (!e) return;
          e->forEachMutable([&](Expr& sub) {
            if (sub.kind == ExprKind::ArrayRef && sub.name == t.variable) {
              sub.name = copyName;
            }
          });
        };
        // Everything except the assignment target is a read position.
        if (st.kind == StmtKind::Assign) {
          // Subscripts of the LHS are reads; the base array is a write.
          if (st.lhs->kind == ExprKind::ArrayRef) {
            for (auto& subExpr : st.lhs->args) rewriteReads(subExpr);
          }
          rewriteReads(st.rhs);
        } else {
          st.forEachExprMutable([&](Expr& sub) {
            if (sub.kind == ExprKind::ArrayRef && sub.name == t.variable) {
              sub.name = copyName;
            }
          });
        }
      });
    }
    ws.reanalyze();
    return true;
  }
};

}  // namespace

void addDependenceBreakingTransforms(
    std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<Privatization>());
  out.push_back(std::make_unique<ScalarExpansion>());
  out.push_back(std::make_unique<ArrayRenaming>());
}

}  // namespace ps::transform
