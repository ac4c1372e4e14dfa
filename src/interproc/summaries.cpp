#include "interproc/summaries.h"

#include <algorithm>
#include <set>

#include "cfg/flow_graph.h"
#include "dataflow/constants.h"
#include "dataflow/linear.h"
#include "ir/model.h"
#include "ir/refs.h"

namespace ps::interproc {

using dataflow::LinearExpr;
using fortran::Expr;
using fortran::ExprKind;
using fortran::ExprPtr;
using fortran::Procedure;
using fortran::Stmt;
using fortran::StmtKind;
using ir::Ref;
using ir::RefKind;

namespace {

/// Convert a linear form back into an expression tree. Fails (returns null)
/// when the form carries opaque or tagged symbols.
ExprPtr exprFromLinear(const LinearExpr& f) {
  if (!f.affine) return nullptr;
  ExprPtr acc;
  for (const auto& [v, c] : f.coef) {
    if (v.find('@') != std::string::npos ||
        v.find('#') != std::string::npos) {
      return nullptr;
    }
    ExprPtr term;
    if (c == 1) {
      term = fortran::makeVarRef(v);
    } else if (c == -1) {
      term = fortran::makeUnary(fortran::UnOp::Neg, fortran::makeVarRef(v));
    } else {
      term = fortran::makeBinary(fortran::BinOp::Mul, fortran::makeIntConst(c),
                                 fortran::makeVarRef(v));
    }
    acc = acc ? fortran::makeBinary(fortran::BinOp::Add, std::move(acc),
                                    std::move(term))
              : std::move(term);
  }
  if (!acc) return fortran::makeIntConst(f.constant);
  if (f.constant > 0) {
    return fortran::makeBinary(fortran::BinOp::Add, std::move(acc),
                               fortran::makeIntConst(f.constant));
  }
  if (f.constant < 0) {
    return fortran::makeBinary(fortran::BinOp::Sub, std::move(acc),
                               fortran::makeIntConst(-f.constant));
  }
  return acc;
}

/// Widen a subscript's linear form over the enclosing loops, producing
/// [lo, hi] forms over `stable` names only. Returns false on failure.
bool widenOverLoops(LinearExpr form,
                    const std::vector<const ir::Loop*>& chain,
                    const std::set<std::string>& stable, LinearExpr* loOut,
                    LinearExpr* hiOut) {
  if (!form.affine) return false;
  LinearExpr lo = form, hi = form;
  // Innermost to outermost, so triangular bounds resolve outward.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const ir::Loop* l = *it;
    const std::string& iv = l->inductionVar();
    long long cl = lo.coefOf(iv);
    long long ch = hi.coefOf(iv);
    if (cl == 0 && ch == 0) continue;
    LinearExpr lob = dataflow::linearize(*l->stmt->doLo);
    LinearExpr hib = dataflow::linearize(*l->stmt->doHi);
    if (!lob.affine || !hib.affine) return false;
    long long step = 1;
    if (l->stmt->doStep) {
      LinearExpr st = dataflow::linearize(*l->stmt->doStep);
      if (!st.affine || !st.isConstant() || st.constant == 0) return false;
      step = st.constant;
    }
    if (step < 0) std::swap(lob, hib);
    if (cl != 0) {
      lo.coef.erase(iv);
      lo.add(cl > 0 ? lob : hib, cl);
    }
    if (ch != 0) {
      hi.coef.erase(iv);
      hi.add(ch > 0 ? hib : lob, ch);
    }
  }
  for (const auto& [v, c] : lo.coef) {
    (void)c;
    if (!stable.count(v)) return false;
  }
  for (const auto& [v, c] : hi.coef) {
    (void)c;
    if (!stable.count(v)) return false;
  }
  *loOut = std::move(lo);
  *hiOut = std::move(hi);
  return true;
}

/// Merge a [lo,hi] contribution into a section dimension; collapses to
/// "unknown" (disengaged) when the union is not expressible.
void mergeDim(std::optional<dep::SectionDim>& dim, bool& dimKnown,
              const LinearExpr& lo, const LinearExpr& hi) {
  ExprPtr loE = exprFromLinear(lo);
  ExprPtr hiE = exprFromLinear(hi);
  if (!loE || !hiE) {
    dimKnown = false;
    dim.reset();
    return;
  }
  if (!dimKnown) return;  // already collapsed
  if (!dim) {
    dep::SectionDim d;
    d.lo = std::move(loE);
    d.hi = std::move(hiE);
    dim = std::move(d);
    return;
  }
  // Union: equal forms stay; constants take min/max; otherwise unknown.
  auto asConst = [](const Expr& e, long long* v) {
    if (e.kind == ExprKind::IntConst) {
      *v = e.intValue;
      return true;
    }
    return false;
  };
  if (!dim->lo->structurallyEquals(*loE)) {
    long long a, b;
    if (asConst(*dim->lo, &a) && asConst(*loE, &b)) {
      dim->lo = fortran::makeIntConst(std::min(a, b));
    } else {
      dimKnown = false;
      dim.reset();
      return;
    }
  }
  if (!dim->hi->structurallyEquals(*hiE)) {
    long long a, b;
    if (asConst(*dim->hi, &a) && asConst(*hiE, &b)) {
      dim->hi = fortran::makeIntConst(std::max(a, b));
    } else {
      dimKnown = false;
      dim.reset();
    }
  }
}

/// Accumulates one array's section per access kind during summarization.
struct SectionAccum {
  std::vector<std::optional<dep::SectionDim>> dims;
  std::vector<bool> dimKnown;
  bool any = false;

  void ensure(std::size_t n) {
    while (dims.size() < n) {
      dims.emplace_back();
      dimKnown.push_back(true);
    }
  }
  void collapse() {
    for (std::size_t i = 0; i < dims.size(); ++i) {
      dims[i].reset();
      dimKnown[i] = false;
    }
    any = true;
  }
  [[nodiscard]] std::optional<dep::Section> toSection(
      const std::string& array) const {
    if (!any) return std::nullopt;
    dep::Section s;
    s.array = array;
    for (const auto& d : dims) {
      if (d) {
        s.dims.push_back(d->clone());
      } else {
        s.dims.emplace_back();
      }
    }
    return s;
  }
};

/// Substitute formal references by actual expressions in a callee-scope
/// expression; returns null when a variable is neither a mapped formal nor
/// a pass-through (COMMON) name.
ExprPtr substituteFormals(const Expr& e,
                          const std::map<std::string, const Expr*>& map,
                          const std::set<std::string>& passThrough) {
  switch (e.kind) {
    case ExprKind::VarRef: {
      auto it = map.find(e.name);
      if (it != map.end()) return it->second->clone();
      if (passThrough.count(e.name)) return e.clone();
      return nullptr;
    }
    case ExprKind::IntConst:
    case ExprKind::RealConst:
    case ExprKind::LogicalConst:
      return e.clone();
    case ExprKind::Binary: {
      ExprPtr l = substituteFormals(*e.lhs, map, passThrough);
      ExprPtr r = substituteFormals(*e.rhs, map, passThrough);
      if (!l || !r) return nullptr;
      return fortran::makeBinary(e.binOp, std::move(l), std::move(r));
    }
    case ExprKind::Unary: {
      ExprPtr v = substituteFormals(*e.lhs, map, passThrough);
      if (!v) return nullptr;
      return fortran::makeUnary(e.unOp, std::move(v));
    }
    default:
      return nullptr;
  }
}

/// Canonical text of a section option, for structural comparison.
std::string sectionKey(const std::optional<dep::Section>& s) {
  return s ? s->str() : std::string("<none>");
}

/// Call-graph "shape": the procedure set, their topological/recursive
/// classification, and the (caller, callee) call-site multiset. Argument
/// expressions are NOT part of the shape (they feed formal constants,
/// which are recomputed on every update anyway).
bool sameShape(const CallGraph& a, const CallGraph& b) {
  if (a.bottomUpOrder() != b.bottomUpOrder()) return false;
  if (a.recursive() != b.recursive()) return false;
  if (a.unresolved() != b.unresolved()) return false;
  auto edges = [](const CallGraph& g) {
    std::vector<std::pair<std::string, std::string>> e;
    e.reserve(g.callSites().size());
    for (const CallSite& s : g.callSites()) e.emplace_back(s.caller, s.callee);
    std::sort(e.begin(), e.end());
    return e;
  };
  return edges(a) == edges(b);
}

/// Insert every procedure whose formal-constant entry differs between `a`
/// and `b` (present in only one, or with different values) into `out`.
void diffFormalConstants(
    const std::map<std::string, std::map<std::string, long long>>& a,
    const std::map<std::string, std::map<std::string, long long>>& b,
    std::set<std::string>* out) {
  for (const auto& [name, consts] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second != consts) out->insert(name);
  }
  for (const auto& [name, consts] : b) {
    if (!a.count(name)) out->insert(name);
  }
}

}  // namespace

bool operator==(const VarEffect& a, const VarEffect& b) {
  return a.isArray == b.isArray && a.mayRead == b.mayRead &&
         a.mayWrite == b.mayWrite && a.kills == b.kills &&
         a.exposedRead == b.exposedRead &&
         sectionKey(a.readSection) == sectionKey(b.readSection) &&
         sectionKey(a.writeSection) == sectionKey(b.writeSection);
}

bool operator==(const ProcSummary& a, const ProcSummary& b) {
  if (a.name != b.name || a.formals != b.formals) return false;
  if (a.effects.size() != b.effects.size()) return false;
  auto ib = b.effects.begin();
  for (auto ia = a.effects.begin(); ia != a.effects.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !(ia->second == ib->second)) return false;
  }
  return true;
}

SummaryBuilder::SummaryBuilder(fortran::Program& program)
    : SummaryBuilder(program, Deferred{}) {
  summarizeAll();
}

SummaryBuilder::SummaryBuilder(fortran::Program& program, Deferred)
    : program_(program), callGraph_(CallGraph::build(program)) {
  // Reserve a node per summarizable procedure up front: summarizeOne and
  // finalizeRecursiveOne then only assign into existing slots, so the map
  // structure is immutable during the parallel phase and lock-free
  // concurrent reads are safe. Formal constants are call-site literals —
  // pure AST — so they are computed here once and are immutable while the
  // driver's tasks read them.
  recursiveNames_.insert(callGraph_.recursive().begin(),
                         callGraph_.recursive().end());
  preinsertSlots();
  computeFormalConstants();
}

void SummaryBuilder::preinsertSlots() {
  for (const std::string& name : callGraph_.bottomUpOrder()) {
    if (program_.findUnit(name)) summaries_[name].name = name;
  }
  for (const std::string& name : callGraph_.recursive()) {
    if (program_.findUnit(name)) summaries_[name].name = name;
  }
}

void SummaryBuilder::summarizeOne(const std::string& name) {
  if (Procedure* proc = program_.findUnit(name)) summarize(*proc);
}

ProcSummary SummaryBuilder::worstCaseSummary(const std::string& name,
                                             const Procedure& proc) const {
  // Worst case: every formal and COMMON var may be read and written,
  // sections unknown.
  ProcSummary s;
  s.name = name;
  s.formals = proc.params;
  for (const auto& p : proc.params) {
    const fortran::VarDecl* d = proc.findDecl(p);
    VarEffect e;
    e.isArray = d && d->isArray();
    e.mayRead = e.mayWrite = true;
    e.exposedRead = true;
    s.effects[p] = std::move(e);
  }
  for (const auto& d : proc.decls) {
    if (d.commonBlock.empty()) continue;
    VarEffect e;
    e.isArray = d.isArray();
    e.mayRead = e.mayWrite = true;
    e.exposedRead = true;
    s.effects[d.name] = std::move(e);
  }
  return s;
}

void SummaryBuilder::finalizeRecursiveOne(const std::string& name) {
  Procedure* proc = program_.findUnit(name);
  if (!proc) return;
  summaries_[name] = worstCaseSummary(name, *proc);
}

void SummaryBuilder::summarizeAll() {
  for (const std::string& name : callGraph_.bottomUpOrder()) {
    summarizeOne(name);
  }
  for (const std::string& name : callGraph_.recursive()) {
    finalizeRecursiveOne(name);
  }
  computeGlobalFacts();
}

const ProcSummary* SummaryBuilder::phaseSummaryOf(
    const std::string& name) const {
  // The recursive-name check comes FIRST: during the parallel phase a
  // finalizeRecursiveOne task may be assigning that very slot.
  if (recursiveNames_.count(name)) return nullptr;
  return summaryOf(name);
}

bool SummaryBuilder::refreshCallGraph(const std::set<std::string>& procs) {
  // Only `procs` changed, and every other unit's sites already point at
  // live statements: re-pointing theirs reproduces CallGraph::build.
  bool refreshed = true;
  for (const std::string& name : procs) {
    const Procedure* proc = program_.findUnit(name);
    if (!proc || !callGraph_.refreshCaller(*proc)) {
      refreshed = false;
      break;
    }
  }
  if (refreshed) return true;
  CallGraph fresh = CallGraph::build(program_);
  const bool shapeKept = sameShape(callGraph_, fresh);
  callGraph_ = std::move(fresh);
  recursiveNames_.clear();
  recursiveNames_.insert(callGraph_.recursive().begin(),
                         callGraph_.recursive().end());
  return shapeKept;
}

void SummaryBuilder::refreshCallSites(const std::string& procName) {
  if (!refreshCallGraph({procName})) shapeMoved_ = true;
}

SummaryBuilder::Update SummaryBuilder::applyEdit(
    const std::set<std::string>& editedProcs) {
  Update up;
  const bool shapeKept = refreshCallGraph(editedProcs) && !shapeMoved_;
  shapeMoved_ = false;

  if (!shapeKept) {
    // Procedures or call edges appeared/disappeared: rebuild everything
    // from scratch (rare for statement-level edits).
    up.structureChanged = true;
    summaries_.clear();
    preinsertSlots();
    computeFormalConstants();
    summarizeAll();
    for (const auto& [name, s] : summaries_) {
      (void)s;
      up.changedSummaries.insert(name);
      up.resummarized.insert(name);
    }
    for (const auto& u : program_.units) up.staleAnalyses.insert(u->name);
    return up;
  }

  // Formal constants read call-site literals through the (now live) graph;
  // recomputing them is linear in the call sites. Diffing against the
  // previous table also catches literals a transformation moved.
  const auto oldFormals = std::move(formalConstants_);
  computeFormalConstants();
  diffFormalConstants(oldFormals, formalConstants_,
                      &up.formalConstantsChanged);

  // Procedures to re-summarize: the edited ones plus every caller of a
  // summary that actually changed. Their analyses are the stale ones.
  std::set<std::string> dirty = editedProcs;
  auto markCallers = [&](const std::string& callee) {
    for (const CallSite* cs : callGraph_.callsTo(callee)) {
      dirty.insert(cs->caller);
    }
  };

  // Recursive worst-case summaries track the procedure's current AST
  // (formals + COMMON decls); rebuild and diff them in place.
  for (const std::string& name : callGraph_.recursive()) {
    Procedure* proc = program_.findUnit(name);
    if (!proc) continue;
    ProcSummary ns = worstCaseSummary(name, *proc);
    if (!(ns == summaries_[name])) {
      up.changedSummaries.insert(name);
      markCallers(name);
    }
    summaries_[name] = std::move(ns);
  }

  // Bottom-up: re-summarize the edited procedures plus every procedure one
  // of whose resolved callee summaries actually changed (callees come
  // first, so a caller is marked before it is reached). Everything else
  // keeps its summary — summarize() is a pure function of the procedure's
  // AST and its direct callee summaries (recursive callees filtered to
  // unknown either way), so the untouched fixed point is what a fresh
  // eager build would recompute.
  for (const std::string& name : callGraph_.bottomUpOrder()) {
    if (!dirty.count(name)) continue;
    Procedure* proc = program_.findUnit(name);
    if (!proc) continue;
    up.resummarized.insert(name);
    ProcSummary old = std::move(summaries_[name]);
    summarize(*proc);
    if (!(summaries_[name] == old)) {
      up.changedSummaries.insert(name);
      markCallers(name);
    }
  }

  // The census is a whole-program AST scan; rerun it unconditionally and
  // report whether it moved, so callers diff only the contexts that can
  // have changed.
  const auto oldConstants = std::move(globalConstants_);
  const auto oldRelations = std::move(globalRelations_);
  computeGlobalFacts();
  up.globalFactsChanged = oldConstants != globalConstants_ ||
                          oldRelations != globalRelations_;

  up.staleAnalyses = std::move(dirty);
  return up;
}

const ProcSummary* SummaryBuilder::summaryOf(const std::string& name) const {
  auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

bool SummaryBuilder::installSummary(const std::string& name, ProcSummary s) {
  auto it = summaries_.find(name);
  if (it == summaries_.end()) return false;
  it->second = std::move(s);
  return true;
}

bool SummaryBuilder::refMayWrite(const Stmt& s, const ir::Ref& r,
                                 bool duringSummarize) const {
  // Resolve a CallActual's write status through the callee summaries; true
  // (conservative) when any callee is unknown or reports MOD.
  for (const std::string& callee : ir::calledFunctions(s)) {
    const ProcSummary* cs =
        duringSummarize ? phaseSummaryOf(callee) : summaryOf(callee);
    if (!cs) return true;
    const std::vector<ExprPtr>* args = nullptr;
    if (s.kind == StmtKind::Call && s.callee == callee) {
      args = &s.args;
    } else {
      s.forEachExpr([&](const Expr& e) {
        if (e.kind == ExprKind::FuncCall && e.name == callee) args = &e.args;
      });
    }
    if (!args) return true;
    for (std::size_t i = 0; i < cs->formals.size() && i < args->size();
         ++i) {
      const Expr& a = *(*args)[i];
      if ((a.kind == ExprKind::VarRef || a.kind == ExprKind::ArrayRef) &&
          a.name == r.name) {
        const VarEffect* eff = cs->effectOn(cs->formals[i]);
        if (eff && eff->mayWrite) return true;
      }
    }
    // COMMON pass-through.
    const VarEffect* eff = cs->effectOn(r.name);
    if (eff && eff->mayWrite) return true;
  }
  return false;
}

void SummaryBuilder::summarize(Procedure& proc) {
  ProcSummary sum;
  sum.name = proc.name;
  sum.formals = proc.params;

  ir::ProcedureModel model(proc);

  // Externally visible names and stable names.
  std::set<std::string> visible;
  for (const auto& p : proc.params) visible.insert(p);
  for (const auto& d : proc.decls) {
    if (!d.commonBlock.empty()) visible.insert(d.name);
  }
  if (proc.kind == fortran::ProcKind::Function) visible.insert(proc.name);

  // Names written in this procedure. A call actual only counts as written
  // when the callee's summary says so (or the callee is unknown) — without
  // this, every variable ever passed to a call would lose its "stable"
  // status and sections would collapse.
  std::set<std::string> writtenSomewhere;
  for (const Stmt* s : model.allStmts()) {
    for (const Ref& r : ir::collectRefs(*s)) {
      if (!r.isWrite()) continue;
      if (r.kind == RefKind::CallActual) {
        if (!refMayWrite(*s, r, /*duringSummarize=*/true)) continue;
      }
      writtenSomewhere.insert(r.name);
    }
  }
  std::set<std::string> stable;
  for (const auto& d : proc.decls) {
    if (!writtenSomewhere.count(d.name) || d.isParameter) {
      stable.insert(d.name);
    }
  }

  std::map<std::string, SectionAccum> readAcc, writeAcc;

  auto loopChainOf = [&](const Stmt* s) {
    std::vector<const ir::Loop*> chain;
    if (const ir::Loop* l = model.enclosingLoop(s->id)) {
      for (const ir::Loop* p : l->nestPath()) chain.push_back(p);
    }
    return chain;
  };

  auto recordArrayRef = [&](const Stmt* s, const Expr* ref, bool write) {
    SectionAccum& acc = (write ? writeAcc : readAcc)[ref->name];
    acc.ensure(ref->args.size());
    acc.any = true;
    auto chain = loopChainOf(s);
    for (std::size_t d = 0; d < ref->args.size(); ++d) {
      LinearExpr form = dataflow::linearize(*ref->args[d]);
      LinearExpr lo, hi;
      bool known = acc.dimKnown[d];
      if (form.affine && widenOverLoops(form, chain, stable, &lo, &hi)) {
        mergeDim(acc.dims[d], known, lo, hi);
        acc.dimKnown[d] = known;
      } else {
        acc.dims[d].reset();
        acc.dimKnown[d] = false;
      }
    }
  };

  // Direct references.
  for (const Stmt* s : model.allStmts()) {
    for (const Ref& r : ir::collectRefs(*s)) {
      if (r.kind == RefKind::CallActual) continue;  // handled below
      if (!visible.count(r.name)) continue;
      VarEffect& e = sum.effects[r.name];
      const fortran::VarDecl* decl = proc.findDecl(r.name);
      e.isArray = decl && decl->isArray();
      if (r.isRead()) e.mayRead = true;
      if (r.isWrite()) e.mayWrite = true;
      if (e.isArray && r.expr && r.expr->kind == ExprKind::ArrayRef) {
        recordArrayRef(s, r.expr, r.isWrite());
      }
    }
  }

  // Effects of nested calls, translated into this scope.
  for (const Stmt* s : model.allStmts()) {
    for (const std::string& callee : ir::calledFunctions(*s)) {
      const ProcSummary* cs = phaseSummaryOf(callee);
      auto chain = loopChainOf(s);
      // Argument expressions at this call.
      const std::vector<ExprPtr>* args = nullptr;
      if (s->kind == StmtKind::Call && s->callee == callee) {
        args = &s->args;
      } else {
        s->forEachExpr([&](const Expr& e) {
          if (e.kind == ExprKind::FuncCall && e.name == callee) {
            args = &e.args;
          }
        });
      }
      if (!cs) {
        // Unknown callee: worst case on array/variable actuals and COMMON.
        if (args) {
          for (const auto& a : *args) {
            if ((a->kind == ExprKind::VarRef ||
                 a->kind == ExprKind::ArrayRef) &&
                visible.count(a->name)) {
              VarEffect& e = sum.effects[a->name];
              const fortran::VarDecl* decl = proc.findDecl(a->name);
              e.isArray = decl && decl->isArray();
              e.mayRead = e.mayWrite = true;
              if (e.isArray) {
                readAcc[a->name].collapse();
                writeAcc[a->name].collapse();
              }
            }
          }
        }
        for (const auto& d : proc.decls) {
          if (d.commonBlock.empty()) continue;
          VarEffect& e = sum.effects[d.name];
          e.isArray = d.isArray();
          e.mayRead = e.mayWrite = true;
          if (e.isArray) {
            readAcc[d.name].collapse();
            writeAcc[d.name].collapse();
          }
        }
        continue;
      }

      std::map<std::string, const Expr*> formalMap;
      if (args) {
        for (std::size_t i = 0;
             i < cs->formals.size() && i < args->size(); ++i) {
          formalMap[cs->formals[i]] = (*args)[i].get();
        }
      }

      for (const auto& [var, eff] : cs->effects) {
        // Resolve the callee-scope name into this scope.
        std::string target;
        bool wholeArray = true;
        auto itF = formalMap.find(var);
        if (itF != formalMap.end()) {
          const Expr* actual = itF->second;
          if (actual->kind == ExprKind::VarRef) {
            target = actual->name;
          } else if (actual->kind == ExprKind::ArrayRef) {
            target = actual->name;   // element/offset passed: lose the
            wholeArray = false;       // section mapping
          } else {
            continue;  // expression actual: no externally visible effect
          }
        } else {
          target = var;  // COMMON pass-through
        }
        if (!visible.count(target) && !proc.findDecl(target)) continue;

        VarEffect& e = sum.effects[target];
        const fortran::VarDecl* decl = proc.findDecl(target);
        e.isArray = (decl && decl->isArray()) || eff.isArray;
        e.mayRead = e.mayRead || eff.mayRead;
        e.mayWrite = e.mayWrite || eff.mayWrite;

        if (!e.isArray) continue;
        // Translate and widen the callee's sections.
        std::set<std::string> passThrough;
        for (const auto& d : proc.decls) {
          if (!d.commonBlock.empty()) passThrough.insert(d.name);
        }
        auto translate = [&](const std::optional<dep::Section>& sec,
                             bool isWrite) {
          SectionAccum& acc = (isWrite ? writeAcc : readAcc)[target];
          if (!sec || !wholeArray) {
            acc.collapse();
            return;
          }
          acc.ensure(sec->dims.size());
          acc.any = true;
          for (std::size_t d = 0; d < sec->dims.size(); ++d) {
            if (!sec->dims[d] || !sec->dims[d]->lo || !sec->dims[d]->hi) {
              acc.dims[d].reset();
              acc.dimKnown[d] = false;
              continue;
            }
            ExprPtr lo =
                substituteFormals(*sec->dims[d]->lo, formalMap, passThrough);
            ExprPtr hi =
                substituteFormals(*sec->dims[d]->hi, formalMap, passThrough);
            if (!lo || !hi) {
              acc.dims[d].reset();
              acc.dimKnown[d] = false;
              continue;
            }
            LinearExpr loF = dataflow::linearize(*lo);
            LinearExpr hiF = dataflow::linearize(*hi);
            LinearExpr loW, hiW, loW2, hiW2;
            bool known = acc.dimKnown[d];
            if (loF.affine && hiF.affine &&
                widenOverLoops(loF, chain, stable, &loW, &hiW2) &&
                widenOverLoops(hiF, chain, stable, &loW2, &hiW)) {
              mergeDim(acc.dims[d], known, loW, hiW);
              acc.dimKnown[d] = known;
            } else {
              acc.dims[d].reset();
              acc.dimKnown[d] = false;
            }
          }
        };
        if (eff.mayRead) translate(eff.readSection, false);
        if (eff.mayWrite) translate(eff.writeSection, true);
      }
    }
  }

  // Attach accumulated sections.
  for (auto& [var, eff] : sum.effects) {
    if (!eff.isArray) continue;
    auto itR = readAcc.find(var);
    if (itR != readAcc.end()) eff.readSection = itR->second.toSection(var);
    auto itW = writeAcc.find(var);
    if (itW != writeAcc.end()) eff.writeSection = itW->second.toSection(var);
  }

  // Flow-sensitive scalar KILL: must-write on every path entry->exit.
  {
    cfg::FlowGraph fg = cfg::FlowGraph::build(model);
    const int n = fg.numNodes();
    std::vector<std::set<std::string>> out(static_cast<std::size_t>(n));
    std::vector<bool> visited(static_cast<std::size_t>(n), false);
    visited[cfg::FlowGraph::kEntry] = true;
    auto order = fg.reversePostOrder();
    bool changed = true;
    while (changed) {
      changed = false;
      for (int node : order) {
        if (node == cfg::FlowGraph::kEntry) continue;
        auto un = static_cast<std::size_t>(node);
        std::set<std::string> in;
        bool first = true;
        for (int p : fg.predecessors(node)) {
          auto up = static_cast<std::size_t>(p);
          if (!visited[up]) continue;
          if (first) {
            in = out[up];
            first = false;
          } else {
            std::set<std::string> merged;
            for (const auto& v : in) {
              if (out[up].count(v)) merged.insert(v);
            }
            in = std::move(merged);
          }
        }
        if (first) continue;  // unreachable so far
        const Stmt* s = fg.stmtOf(node);
        std::set<std::string> newOut = in;
        if (s) {
          if (s->kind == StmtKind::Assign &&
              s->lhs->kind == ExprKind::VarRef) {
            newOut.insert(s->lhs->name);
          }
          if (s->kind == StmtKind::Read) {
            for (const auto& item : s->args) {
              if (item->kind == ExprKind::VarRef) newOut.insert(item->name);
            }
          }
          // A nested call's KILL set propagates.
          for (const std::string& callee : ir::calledFunctions(*s)) {
            const ProcSummary* cs = phaseSummaryOf(callee);
            if (!cs) continue;
            const std::vector<ExprPtr>* args =
                (s->kind == StmtKind::Call) ? &s->args : nullptr;
            for (const auto& [var, eff] : cs->effects) {
              if (!eff.kills || eff.isArray) continue;
              // Translate the killed name.
              std::string target = var;
              if (args) {
                for (std::size_t i = 0;
                     i < cs->formals.size() && i < args->size(); ++i) {
                  if (cs->formals[i] == var &&
                      (*args)[i]->kind == ExprKind::VarRef) {
                    target = (*args)[i]->name;
                  }
                }
              }
              newOut.insert(target);
            }
          }
        }
        if (!visited[un] || newOut != out[un]) {
          visited[un] = true;
          out[un] = std::move(newOut);
          changed = true;
        }
      }
    }
    const auto& killed = out[cfg::FlowGraph::kExit];
    for (auto& [var, eff] : sum.effects) {
      if (!eff.isArray && killed.count(var)) eff.kills = true;
    }

    // Upward-exposed reads for visible scalars: a read reachable from the
    // entry before any killing write (the nxsns "scalar killed in a
    // procedure invoked inside a loop" refinement).
    for (auto& [var, eff] : sum.effects) {
      if (eff.isArray) {
        eff.exposedRead = eff.mayRead;  // arrays: conservative
        continue;
      }
      if (!eff.mayRead) {
        eff.exposedRead = false;
        continue;
      }
      // Forward BFS from entry; stop paths at killing statements.
      std::vector<int> work{cfg::FlowGraph::kEntry};
      std::set<int> seen;
      bool exposed = false;
      while (!work.empty() && !exposed) {
        int node = work.back();
        work.pop_back();
        if (seen.count(node)) continue;
        seen.insert(node);
        const Stmt* s = fg.stmtOf(node);
        bool killsHere = false;
        if (s) {
          for (const Ref& r : ir::collectRefs(*s)) {
            if (r.name != var) continue;
            if (r.kind == RefKind::Read) {
              exposed = true;
              break;
            }
            if (r.kind == RefKind::CallActual) {
              // Consult the callee: exposed read and/or kill through the
              // call.
              bool calleeExposed = true, calleeKills = false;
              for (const std::string& callee : ir::calledFunctions(*s)) {
                const ProcSummary* cs = phaseSummaryOf(callee);
                if (!cs) continue;
                const std::vector<ExprPtr>* args =
                    (s->kind == StmtKind::Call) ? &s->args : nullptr;
                if (!args) continue;
                for (std::size_t i = 0;
                     i < cs->formals.size() && i < args->size(); ++i) {
                  if ((*args)[i]->kind == ExprKind::VarRef &&
                      (*args)[i]->name == var) {
                    const VarEffect* fe = cs->effectOn(cs->formals[i]);
                    calleeExposed = fe ? fe->exposedRead : false;
                    calleeKills = fe && fe->kills;
                  }
                }
              }
              if (calleeExposed) {
                exposed = true;
                break;
              }
              if (calleeKills) killsHere = true;
            }
            if (r.kind == RefKind::Write || r.kind == RefKind::DoVarDef) {
              killsHere = true;
            }
          }
        }
        if (exposed) break;
        if (killsHere) continue;
        for (int succ : fg.successors(node)) {
          if (!seen.count(succ)) work.push_back(succ);
        }
      }
      eff.exposedRead = exposed;
    }
    // Array KILL: the write section covers the whole declared extent.
    for (auto& [var, eff] : sum.effects) {
      if (!eff.isArray || !eff.writeSection) continue;
      const fortran::VarDecl* decl = proc.findDecl(var);
      if (!decl || decl->dims.empty()) continue;
      bool covers = true;
      for (std::size_t d = 0;
           d < decl->dims.size() && d < eff.writeSection->dims.size(); ++d) {
        const auto& sd = eff.writeSection->dims[d];
        if (!sd || !sd->lo || !sd->hi) {
          covers = false;
          break;
        }
        // Declared range: [lower or 1, upper].
        ExprPtr declLo = decl->dims[d].lower ? decl->dims[d].lower->clone()
                                             : fortran::makeIntConst(1);
        if (!decl->dims[d].upper) {
          covers = false;
          break;
        }
        if (!sd->lo->structurallyEquals(*declLo) ||
            !sd->hi->structurallyEquals(*decl->dims[d].upper)) {
          covers = false;
          break;
        }
      }
      if (covers && decl->dims.size() <= eff.writeSection->dims.size()) {
        eff.kills = true;  // caveat: assumes the covering loops execute
      }
    }
  }

  summaries_[proc.name] = std::move(sum);
}

void SummaryBuilder::computeGlobalFacts() {
  // COMMON variables assigned exactly once in the whole program — in the
  // main program's initialization prefix (before the first call) — become
  // global constants/relations. The paper's arc3d case: "in the
  // initialization routine, the assignment JM = JMAX - 1 occurs, and this
  // relation holds for the rest of the program."
  globalConstants_.clear();
  globalRelations_.clear();
  std::set<std::string> commonNames;
  for (const auto& u : program_.units) {
    for (const auto& d : u->decls) {
      if (!d.commonBlock.empty()) commonNames.insert(d.name);
    }
  }

  const Procedure* mainUnit = nullptr;
  for (const auto& u : program_.units) {
    if (u->kind == fortran::ProcKind::Program) mainUnit = u.get();
  }

  // Write census: count, position of the write in the main unit's
  // pre-order (-1 when written outside main).
  struct WriteInfo {
    int count = 0;
    int mainPos = -1;
    const Stmt* stmt = nullptr;
  };
  std::map<std::string, WriteInfo> writes;
  std::map<fortran::StmtId, int> mainPos;
  int firstCallPos = 1 << 30;
  if (mainUnit) {
    int idx = 0;
    mainUnit->forEachStmt([&](const Stmt& s) {
      mainPos[s.id] = idx;
      if (!ir::calledFunctions(s).empty()) {
        firstCallPos = std::min(firstCallPos, idx);
      }
      ++idx;
    });
  }
  for (const auto& u : program_.units) {
    u->forEachStmt([&](const Stmt& s) {
      for (const Ref& r : ir::collectRefs(s)) {
        if (!r.isWrite() || !commonNames.count(r.name)) continue;
        if (r.kind == RefKind::CallActual &&
            !refMayWrite(s, r, /*duringSummarize=*/false)) {
          continue;
        }
        WriteInfo& w = writes[r.name];
        ++w.count;
        w.stmt = &s;
        w.mainPos = (u.get() == mainUnit && mainPos.count(s.id))
                        ? mainPos[s.id]
                        : -1;
      }
    });
  }

  for (const auto& [name, w] : writes) {
    if (w.count != 1 || w.mainPos < 0 || w.mainPos >= firstCallPos) continue;
    const Stmt* s = w.stmt;
    if (s->kind != StmtKind::Assign || s->lhs->kind != ExprKind::VarRef) {
      continue;
    }
    LinearExpr form = dataflow::linearize(*s->rhs);
    if (!form.affine) continue;
    bool operandsStable = true;
    for (const auto& [v, c] : form.coef) {
      (void)c;
      if (!commonNames.count(v)) {
        operandsStable = false;
        continue;
      }
      auto itW = writes.find(v);
      if (itW != writes.end()) {
        // The operand may only be written in main, before this assignment.
        const WriteInfo& ow = itW->second;
        bool allBefore = ow.mainPos >= 0 && ow.mainPos < w.mainPos &&
                         ow.count == 1;
        if (!allBefore) operandsStable = false;
      }
    }
    if (form.isConstant()) {
      globalConstants_[name] = form.constant;
    } else if (operandsStable) {
      globalRelations_.push_back({name, form});
    }
  }
  summarized_ = true;  // the census reads final summaries, so it runs last
}

void SummaryBuilder::computeFormalConstants() {
  // Formal constants: every call site passes the same literal. Pure AST +
  // call graph — no summaries — so this is valid before summarization.
  formalConstants_.clear();
  for (const auto& u : program_.units) {
    auto calls = callGraph_.callsTo(u->name);
    if (calls.empty()) continue;
    for (std::size_t i = 0; i < u->params.size(); ++i) {
      bool allSame = true;
      bool haveValue = false;
      long long value = 0;
      for (const CallSite* cs : calls) {
        if (cs->stmt->kind != StmtKind::Call ||
            i >= cs->stmt->args.size()) {
          allSame = false;
          break;
        }
        const Expr& a = *cs->stmt->args[i];
        if (a.kind != ExprKind::IntConst) {
          allSame = false;
          break;
        }
        if (!haveValue) {
          value = a.intValue;
          haveValue = true;
        } else if (value != a.intValue) {
          allSame = false;
          break;
        }
      }
      if (allSame && haveValue) {
        formalConstants_[u->name][u->params[i]] = value;
      }
    }
  }
}

bool SummaryBuilder::usesGlobalFacts(const Procedure& proc) const {
  for (const auto& d : proc.decls) {
    if (!d.commonBlock.empty()) return true;
  }
  return false;
}

std::map<std::string, long long> SummaryBuilder::inheritedConstantsFor(
    const Procedure& proc) const {
  std::map<std::string, long long> out;
  for (const auto& d : proc.decls) {
    if (d.commonBlock.empty()) continue;
    auto it = globalConstants_.find(d.name);
    if (it != globalConstants_.end()) out[d.name] = it->second;
  }
  auto itF = formalConstants_.find(proc.name);
  if (itF != formalConstants_.end()) {
    for (const auto& [name, v] : itF->second) out[name] = v;
  }
  return out;
}

std::vector<dataflow::Relation> SummaryBuilder::inheritedRelationsFor(
    const Procedure& proc) const {
  std::vector<dataflow::Relation> out;
  // Without a COMMON declaration nothing below can match; returning early
  // also keeps this readable concurrently with the census task (a
  // no-COMMON procedure's analysis need not wait for computeGlobalFacts).
  if (!usesGlobalFacts(proc)) return out;
  for (const auto& r : globalRelations_) {
    // The relation's variable must be visible here, and the procedure must
    // not be the one performing the assignment... single-assignment already
    // guarantees validity after the write; we additionally require the
    // variable to be in COMMON in this procedure.
    const fortran::VarDecl* d = proc.findDecl(r.name);
    if (d && !d->commonBlock.empty()) out.push_back(r);
  }
  return out;
}

std::map<std::string, long long> SummaryBuilder::inheritedConstantsFor(
    const std::string& procName) const {
  const Procedure* proc = program_.findUnit(procName);
  return proc ? inheritedConstantsFor(*proc)
              : std::map<std::string, long long>{};
}

std::vector<dataflow::Relation> SummaryBuilder::inheritedRelationsFor(
    const std::string& procName) const {
  const Procedure* proc = program_.findUnit(procName);
  return proc ? inheritedRelationsFor(*proc)
              : std::vector<dataflow::Relation>{};
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

InterproceduralOracle::InterproceduralOracle(const SummaryBuilder& summaries,
                                             const Procedure& caller)
    : summaries_(summaries), caller_(caller) {}

bool InterproceduralOracle::knowsCallee(const std::string& name) const {
  return summaries_.summaryOf(name) != nullptr;
}

std::vector<dep::CallEffect> InterproceduralOracle::effectsOfCall(
    const Stmt& stmt, const std::string& callee) const {
  std::vector<dep::CallEffect> out;
  const ProcSummary* cs = summaries_.summaryOf(callee);
  if (!cs) return out;

  const std::vector<ExprPtr>* args = nullptr;
  if (stmt.kind == StmtKind::Call && stmt.callee == callee) {
    args = &stmt.args;
  } else {
    stmt.forEachExpr([&](const Expr& e) {
      if (e.kind == ExprKind::FuncCall && e.name == callee) args = &e.args;
    });
  }

  std::map<std::string, const Expr*> formalMap;
  if (args) {
    for (std::size_t i = 0; i < cs->formals.size() && i < args->size();
         ++i) {
      formalMap[cs->formals[i]] = (*args)[i].get();
    }
  }
  std::set<std::string> passThrough;
  for (const auto& d : caller_.decls) {
    if (!d.commonBlock.empty()) passThrough.insert(d.name);
  }
  // Caller locals referenced by actual expressions are also valid symbols
  // after substitution; substituteFormals only needs passThrough for
  // callee-scope names that are NOT formals (i.e. COMMON).

  for (const auto& [var, eff] : cs->effects) {
    std::string target;
    bool wholeArray = true;
    auto itF = formalMap.find(var);
    if (itF != formalMap.end()) {
      const Expr* actual = itF->second;
      if (actual->kind == ExprKind::VarRef) {
        target = actual->name;
      } else if (actual->kind == ExprKind::ArrayRef) {
        target = actual->name;
        wholeArray = false;
      } else {
        continue;
      }
    } else {
      target = var;
      if (!passThrough.count(target)) continue;  // not visible here
    }

    auto translateSection =
        [&](const std::optional<dep::Section>& sec)
        -> std::optional<dep::Section> {
      if (!sec || !wholeArray) return std::nullopt;
      dep::Section s;
      s.array = target;
      for (const auto& d : sec->dims) {
        if (!d || !d->lo || !d->hi) {
          s.dims.emplace_back();
          continue;
        }
        ExprPtr lo = substituteFormals(*d->lo, formalMap, passThrough);
        ExprPtr hi = substituteFormals(*d->hi, formalMap, passThrough);
        if (!lo || !hi) {
          s.dims.emplace_back();
          continue;
        }
        dep::SectionDim sd;
        sd.lo = std::move(lo);
        sd.hi = std::move(hi);
        s.dims.emplace_back(std::move(sd));
      }
      return s;
    };

    if (eff.mayRead) {
      dep::CallEffect e;
      e.var = target;
      e.isArray = eff.isArray;
      e.mayRead = true;
      e.exposedRead = eff.exposedRead;
      e.section = translateSection(eff.readSection);
      out.push_back(std::move(e));
    }
    if (eff.mayWrite) {
      dep::CallEffect e;
      e.var = target;
      e.isArray = eff.isArray;
      e.mayWrite = true;
      e.kills = eff.kills;
      e.section = translateSection(eff.writeSection);
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace ps::interproc
