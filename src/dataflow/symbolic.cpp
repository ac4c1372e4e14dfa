#include "dataflow/symbolic.h"

#include <algorithm>

namespace ps::dataflow {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;
using ir::Loop;
using ir::RefKind;

namespace {

/// Match V = V + c  or  V = V - c  or  V = c + V; returns the stride.
bool matchIncrement(const Stmt& s, std::string* name, long long* stride) {
  if (s.kind != StmtKind::Assign || s.lhs->kind != ExprKind::VarRef) {
    return false;
  }
  const Expr& rhs = *s.rhs;
  if (rhs.kind != ExprKind::Binary) return false;
  if (rhs.binOp != BinOp::Add && rhs.binOp != BinOp::Sub) return false;
  const std::string& v = s.lhs->name;
  const Expr *varSide = nullptr, *constSide = nullptr;
  if (rhs.lhs->kind == ExprKind::VarRef && rhs.lhs->name == v) {
    varSide = rhs.lhs.get();
    constSide = rhs.rhs.get();
  } else if (rhs.binOp == BinOp::Add && rhs.rhs->kind == ExprKind::VarRef &&
             rhs.rhs->name == v) {
    varSide = rhs.rhs.get();
    constSide = rhs.lhs.get();
  }
  if (!varSide || constSide->kind != ExprKind::IntConst) return false;
  *name = v;
  *stride = (rhs.binOp == BinOp::Sub) ? -constSide->intValue
                                      : constSide->intValue;
  return true;
}

}  // namespace

SymbolicAnalysis SymbolicAnalysis::build(
    const VarIndex& index, const ReachingDefs& reaching,
    const ConstantAnalysis& constants, const cfg::ControlDependence& cdeps,
    const std::vector<Relation>& inherited, std::size_t maxRelations) {
  SymbolicAnalysis sa;
  sa.index_ = &index;
  sa.constants_ = &constants;
  const ir::ProcedureModel& model = index.model();
  const cfg::FlowGraph& g = index.graph();
  const auto nv = static_cast<std::size_t>(index.size());

  // Budget on relations kept across the whole procedure; dropping one loses
  // a sharpening fact (conservative) but bounds downstream test work.
  std::size_t relationsKept = 0;
  auto keep = [&](std::vector<Relation>& rels, Relation r) {
    if (maxRelations != 0 && relationsKept >= maxRelations) {
      ++sa.truncated_;
      return;
    }
    ++relationsKept;
    rels.push_back(std::move(r));
  };

  // Per-loop work rows over variables: writes counted per reference, the
  // statement of the first one, and the names read.
  std::vector<int> writeCount(nv, 0);
  std::vector<const Stmt*> firstWrite(nv, nullptr);
  DenseBitSet written(nv), read(nv);

  for (const auto& loopPtr : model.loops()) {
    const Loop* loop = loopPtr.get();
    DenseBitSet& defined =
        sa.definedIn_.emplace(loop, DenseBitSet(nv)).first->second;
    DenseBitSet& arrays =
        sa.arraysWritten_.emplace(loop, DenseBitSet(nv)).first->second;
    defined.set(static_cast<std::size_t>(index.idOf(loop->inductionVar())));
    written.clear();
    read.clear();

    for (const Stmt* s : loop->bodyStmts) {
      const int node = g.nodeOf(s->id);
      for (const IndexedRef& r : index.refs(node)) {
        const auto v = static_cast<std::size_t>(r.var);
        if (r.isRead()) read.set(v);
        if (!r.isWrite()) continue;
        if (!written.test(v)) {
          written.set(v);
          writeCount[v] = 0;
          firstWrite[v] = s;
        }
        ++writeCount[v];
        if (index.isArray(r.var)) {
          arrays.set(v);
          // A whole array passed at a call site may be rewritten.
          if (r.kind == RefKind::CallActual) defined.set(v);
        } else {
          defined.set(v);
        }
      }
      // A call may modify any COMMON variable.
      if (index.calls(node)) {
        for (int c : index.commonVars()) {
          defined.set(static_cast<std::size_t>(c));
          if (index.isArray(c)) arrays.set(static_cast<std::size_t>(c));
        }
      }
    }
    auto isDefined = [&](const std::string& name) {
      const int v = index.idOf(name);
      return v >= 0 && defined.test(static_cast<std::size_t>(v));
    };

    // Auxiliary induction variables: scalar with exactly one defining
    // statement in the loop, of increment shape, executed unconditionally
    // (controlled only by enclosing DO headers).
    written.forEach([&](std::size_t v) {
      if (writeCount[v] != 1) return;
      const Stmt* def = firstWrite[v];
      std::string name;
      long long stride = 0;
      if (!matchIncrement(*def, &name, &stride)) return;
      if (cdeps.hasNonLoopController(def->id, model)) return;
      // The update must be directly in this loop's body (not a nested
      // loop's): otherwise it advances more than once per iteration.
      if (model.enclosingLoop(def->id) != loop) return;
      sa.auxIvs_[loop].push_back({name, stride, def});
    });

    // Relations: symbolic equalities valid throughout the loop. Inherited
    // (interprocedural) relations only survive if nothing in the loop
    // redefines the variable or its operands.
    std::vector<Relation> rels;
    for (const Relation& r : inherited) {
      if (isDefined(r.name)) continue;
      bool stable = true;
      for (const auto& [v, c] : r.value.coef) {
        (void)c;
        if (isDefined(v)) stable = false;
      }
      if (stable) keep(rels, r);
    }
    // Names read inside the loop but never defined in it, with a unique
    // reaching killing assignment of an affine value whose operands are
    // also loop-invariant.
    read.forEach([&](std::size_t v) {
      if (defined.test(v)) return;
      const std::string& name = index.name(static_cast<int>(v));
      const Stmt* def = nullptr;
      if (!reaching.uniqueReachingAssignment(loop->stmt->id, name, &def)) {
        return;
      }
      LinearExpr form = linearize(*def->rhs);
      if (!form.affine) return;
      for (const auto& [operand, c] : form.coef) {
        (void)c;
        if (isDefined(operand)) return;
      }
      // Avoid the degenerate self relation V = V.
      if (form.coef.size() == 1 && form.constant == 0 &&
          form.coefOf(name) == 1) {
        return;
      }
      keep(rels, {name, std::move(form)});
    });
    sa.relations_[loop] = std::move(rels);
  }
  return sa;
}

bool SymbolicAnalysis::rowHas(const std::map<const Loop*, DenseBitSet>& rows,
                              const Loop& loop,
                              const std::string& name) const {
  auto it = rows.find(&loop);
  if (it == rows.end()) return false;
  const int v = index_->idOf(name);
  return v >= 0 && it->second.test(static_cast<std::size_t>(v));
}

bool SymbolicAnalysis::definedIn(const Loop& loop,
                                 const std::string& name) const {
  return rowHas(definedIn_, loop, name);
}

std::set<std::string> SymbolicAnalysis::definedIn(const Loop& loop) const {
  std::set<std::string> names;
  auto it = definedIn_.find(&loop);
  if (it == definedIn_.end()) return names;
  it->second.forEach([&](std::size_t v) {
    names.insert(names.end(), index_->name(static_cast<int>(v)));
  });
  return names;
}

bool SymbolicAnalysis::isLoopInvariant(const Expr& e, const Loop& loop) const {
  bool invariant = true;
  e.forEach([&](const Expr& sub) {
    switch (sub.kind) {
      case ExprKind::VarRef:
        if (definedIn(loop, sub.name)) invariant = false;
        break;
      case ExprKind::ArrayRef:
        if (rowHas(arraysWritten_, loop, sub.name)) invariant = false;
        break;
      case ExprKind::FuncCall:
        if (!ir::isIntrinsic(sub.name)) invariant = false;
        break;
      default:
        break;
    }
  });
  return invariant;
}

std::vector<AuxInduction> SymbolicAnalysis::auxInductionsOf(
    const Loop& loop) const {
  auto it = auxIvs_.find(&loop);
  return it == auxIvs_.end() ? std::vector<AuxInduction>{} : it->second;
}

std::vector<Relation> SymbolicAnalysis::relationsAt(const Loop& loop) const {
  auto it = relations_.find(&loop);
  return it == relations_.end() ? std::vector<Relation>{} : it->second;
}

std::map<std::string, LinearExpr> SymbolicAnalysis::substitutionFor(
    const Loop& loop, const Stmt& atStmt) const {
  std::map<std::string, LinearExpr> sub;

  // 1. Constants at the loop header.
  constants_->forEachIntConst(
      loop.stmt->id, [&](const std::string& name, long long value) {
        LinearExpr c;
        c.constant = value;
        sub[name] = c;
      });

  // 2. Symbolic relations (may reference other symbolics; resolve one level
  //    through the constant map).
  for (const Relation& r : relationsAt(loop)) {
    LinearExpr resolved;
    resolved.constant = r.value.constant;
    resolved.affine = r.value.affine;
    for (const auto& [v, c] : r.value.coef) {
      auto it = sub.find(v);
      if (it != sub.end()) {
        resolved.add(it->second, c);
      } else {
        resolved.coef[v] += c;
        if (resolved.coef[v] == 0) resolved.coef.erase(v);
      }
    }
    sub[r.name] = std::move(resolved);
  }

  // 3. Auxiliary induction variables for this loop and all enclosing loops:
  //    V -> stride*IV + (V@preheader symbolic) + adjustment, where the
  //    symbolic pre-loop value cancels between any two refs in the loop.
  for (const Loop* l = &loop; l; l = l->parent) {
    for (const AuxInduction& aux : auxInductionsOf(*l)) {
      // Normalized iteration number: (IV - lo)/step — only handle step 1
      // (or absent), the overwhelmingly common case; otherwise skip.
      const Stmt* doStmt = l->stmt;
      if (doStmt->doStep && !doStmt->doStep->isIntConst(1)) continue;
      LinearExpr lo = linearize(*doStmt->doLo, sub);
      if (!lo.affine) continue;
      LinearExpr form;
      form.coef[l->inductionVar()] = aux.stride;
      form.add(lo, -aux.stride);
      form.coef["@pre:" + aux.name] = 1;  // opaque pre-loop value
      // Position adjustment: refs at statements after the update in body
      // order have advanced one extra stride.
      int posUpdate = -1, posAt = -1, idx = 0;
      for (const Stmt* s : l->bodyStmts) {
        if (s == aux.update) posUpdate = idx;
        if (s->id == atStmt.id) posAt = idx;
        ++idx;
      }
      bool after = (posAt >= 0 && posUpdate >= 0 && posAt > posUpdate);
      if (after) form.constant += aux.stride;
      sub[aux.name] = std::move(form);
    }
  }
  return sub;
}

}  // namespace ps::dataflow
