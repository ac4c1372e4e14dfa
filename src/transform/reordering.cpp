#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "dataflow/constants.h"
#include "transform/catalog.h"

namespace ps::transform {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using fortran::StmtPtr;
using ir::Loop;

namespace {

/// Map every statement inside `loop` to its top-level ancestor in the
/// loop's immediate body.
std::map<StmtId, const Stmt*> topLevelAncestors(const Stmt& loopStmt) {
  std::map<StmtId, const Stmt*> anc;
  for (const auto& top : loopStmt.body) {
    top->forEach([&](const Stmt& s) { anc[s.id] = top.get(); });
  }
  return anc;
}

bool bodyHasUnstructuredFlow(const Stmt& loopStmt) {
  bool found = false;
  for (const auto& s : loopStmt.body) {
    s->forEach([&](const Stmt& inner) {
      if (inner.kind == StmtKind::Goto ||
          inner.kind == StmtKind::ArithmeticIf ||
          inner.kind == StmtKind::Return || inner.kind == StmtKind::Stop) {
        found = true;
      }
    });
  }
  return found;
}

/// Clone a DO header (bounds, var, step) onto a fresh statement.
StmtPtr cloneHeader(const Stmt& loopStmt) {
  auto fresh = fortran::makeStmt(StmtKind::Do, loopStmt.loc);
  fresh->doVar = loopStmt.doVar;
  fresh->doLo = loopStmt.doLo->clone();
  fresh->doHi = loopStmt.doHi->clone();
  if (loopStmt.doStep) fresh->doStep = loopStmt.doStep->clone();
  fresh->isParallel = loopStmt.isParallel;
  return fresh;
}

/// The single nested DO of a perfect 2-nest, or null. Tolerates a trailing
/// shared-label CONTINUE.
Stmt* innerOfPerfectNest(Stmt& outer) {
  if (outer.body.empty()) return nullptr;
  if (outer.body[0]->kind != StmtKind::Do) return nullptr;
  if (outer.body.size() == 1) return outer.body[0].get();
  if (outer.body.size() == 2 &&
      outer.body[1]->kind == StmtKind::Continue) {
    return outer.body[0].get();
  }
  return nullptr;
}

bool usesVariable(const Expr& e, const std::string& name) {
  bool found = false;
  e.forEach([&](const Expr& sub) {
    if (sub.kind == ExprKind::VarRef && sub.name == name) found = true;
  });
  return found;
}

// ===========================================================================
// Loop Distribution
// ===========================================================================

class LoopDistribution : public Transformation {
 public:
  std::string name() const override { return "Loop Distribution"; }
  Category category() const override { return Category::Reordering; }

  /// Compute the partition of the loop's immediate body into strongly
  /// connected groups of the dependence graph, in a topological order
  /// compatible with the original statement order. Empty result = not
  /// distributable.
  std::vector<std::vector<const Stmt*>> partition(Workspace& ws,
                                                  const Loop& loop) const {
    const Stmt& loopStmt = *loop.stmt;
    auto anc = topLevelAncestors(loopStmt);
    std::vector<const Stmt*> tops;
    for (const auto& s : loopStmt.body) {
      if (s->kind == StmtKind::Continue &&
          s->label == loopStmt.doEndLabel) {
        continue;  // the terminator travels with the new loops implicitly
      }
      tops.push_back(s.get());
    }
    if (tops.size() < 2) return {};

    // Edges between top-level groups, from loop-carried and independent
    // dependences inside the loop.
    std::map<const Stmt*, std::set<const Stmt*>> succ;
    for (const auto* d : ws.graph->forLoop(loop)) {
      if (!d->active() || d->type == dep::DepType::Input) continue;
      auto is = anc.find(d->srcStmt);
      auto it = anc.find(d->dstStmt);
      if (is == anc.end() || it == anc.end()) continue;
      if (is->second == it->second) continue;
      succ[is->second].insert(it->second);
    }

    // Tarjan SCC over `tops`.
    std::map<const Stmt*, int> index, low, comp;
    std::vector<const Stmt*> stack;
    std::set<const Stmt*> onStack;
    int counter = 0, comps = 0;
    std::function<void(const Stmt*)> strongconnect = [&](const Stmt* v) {
      index[v] = low[v] = counter++;
      stack.push_back(v);
      onStack.insert(v);
      for (const Stmt* w : succ[v]) {
        if (!index.count(w)) {
          strongconnect(w);
          low[v] = std::min(low[v], low[w]);
        } else if (onStack.count(w)) {
          low[v] = std::min(low[v], index[w]);
        }
      }
      if (low[v] == index[v]) {
        int c = comps++;
        while (true) {
          const Stmt* w = stack.back();
          stack.pop_back();
          onStack.erase(w);
          comp[w] = c;
          if (w == v) break;
        }
      }
    };
    for (const Stmt* s : tops) {
      if (!index.count(s)) strongconnect(s);
    }
    if (comps < 2) return {};

    // Group statements by component, emitting groups in an order that
    // respects both the dependence edges and (for determinism) the original
    // statement order. Kahn's algorithm over components.
    std::map<int, std::set<int>> compSucc;
    std::map<int, int> indeg;
    for (const Stmt* s : tops) indeg[comp[s]];
    for (const auto& [from, tos] : succ) {
      for (const Stmt* to : tos) {
        int a = comp[from], b = comp[to];
        if (a != b && compSucc[a].insert(b).second) ++indeg[b];
      }
    }
    // Original order of first appearance per component.
    std::map<int, std::size_t> firstPos;
    for (std::size_t i = 0; i < tops.size(); ++i) {
      if (!firstPos.count(comp[tops[i]])) firstPos[comp[tops[i]]] = i;
    }
    std::vector<int> order;
    std::set<int> emitted;
    while (static_cast<int>(order.size()) < comps) {
      int best = -1;
      for (const auto& [c, d] : indeg) {
        if (emitted.count(c) || d != 0) continue;
        if (best < 0 || firstPos[c] < firstPos[best]) best = c;
      }
      if (best < 0) return {};  // cycle between components: impossible
      order.push_back(best);
      emitted.insert(best);
      for (int nxt : compSucc[best]) --indeg[nxt];
    }

    std::vector<std::vector<const Stmt*>> groups;
    for (int c : order) {
      std::vector<const Stmt*> g;
      for (const Stmt* s : tops) {
        if (comp[s] == c) g.push_back(s);
      }
      groups.push_back(std::move(g));
    }
    return groups;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (bodyHasUnstructuredFlow(*loop->stmt)) {
      return Advice::unsafe("loop body has unstructured control flow");
    }
    auto groups = partition(ws, *loop);
    if (groups.size() < 2) {
      return Advice::no("body forms a single dependence region");
    }
    // Profitable when some group would run parallel while the whole loop
    // does not.
    bool anySerial = !ws.graph->parallelizable(*loop);
    return Advice::ok(anySerial,
                      std::to_string(groups.size()) + " distributed loops");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* error) const override {
    Loop* loop = ws.loopOf(t.loop);
    auto groups = partition(ws, *loop);
    Stmt& loopStmt = *loop->stmt;
    normalizeLoopForm(loopStmt);

    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);
    if (!container) {
      if (error) *error = "loop container not found";
      return false;
    }

    // Move each group's statements into a fresh loop.
    std::vector<StmtPtr> newLoops;
    for (const auto& group : groups) {
      StmtPtr fresh = cloneHeader(loopStmt);
      std::set<const Stmt*> wanted(group.begin(), group.end());
      for (auto& s : loopStmt.body) {
        if (s && wanted.count(s.get())) fresh->body.push_back(std::move(s));
      }
      newLoops.push_back(std::move(fresh));
    }
    container->erase(container->begin() + static_cast<long>(index));
    for (std::size_t g = 0; g < newLoops.size(); ++g) {
      container->insert(container->begin() + static_cast<long>(index + g),
                        std::move(newLoops[g]));
    }
    return true;
  }
};

// ===========================================================================
// Loop Interchange
// ===========================================================================

class LoopInterchange : public Transformation {
 public:
  std::string name() const override { return "Loop Interchange"; }
  Category category() const override { return Category::Reordering; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* outer = ws.loopOf(t.loop);
    if (!outer) return Advice::no("target is not a loop");
    Stmt* inner = innerOfPerfectNest(*outer->stmt);
    if (!inner) return Advice::no("loop nest is not perfectly nested");
    // Rectangularity: bounds must not reference the other loop's variable.
    auto dependsOn = [&](const Stmt& s, const std::string& v) {
      return usesVariable(*s.doLo, v) || usesVariable(*s.doHi, v) ||
             (s.doStep && usesVariable(*s.doStep, v));
    };
    if (dependsOn(*inner, outer->stmt->doVar) ||
        dependsOn(*outer->stmt, inner->doVar)) {
      return Advice::unsafe("triangular bounds");
    }
    // Direction-vector legality: no dependence with ('<','>') at the two
    // levels (an unknown inner direction is conservatively unsafe).
    int outerLevel = outer->level;
    for (const auto& d : ws.graph->all()) {
      if (!d.active() || d.type == dep::DepType::Input ||
          d.type == dep::DepType::Control) {
        continue;
      }
      if (d.carrierLoop != outer->stmt->id) continue;
      std::size_t innerIdx = static_cast<std::size_t>(outerLevel);
      if (d.vector.dirs.size() <= innerIdx) continue;
      dep::Direction id = d.vector.dirs[innerIdx];
      if (id == dep::Direction::Gt || id == dep::Direction::Ge) {
        return Advice::unsafe("dependence with (<,>) direction vector");
      }
      if (id == dep::Direction::Star) {
        return Advice::unsafe(
            "dependence with unknown inner direction (conservative)");
      }
    }
    // Profitable when the inner loop is parallel and the outer is not:
    // interchange moves parallelism outward for granularity.
    Loop* innerLoop = ws.loopOf(inner->id);
    bool prof = innerLoop && ws.graph->parallelizable(*innerLoop) &&
                !ws.graph->parallelizable(*outer);
    return Advice::ok(prof, prof ? "moves parallel loop outward" : "");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* outer = ws.loopOf(t.loop);
    Stmt* inner = innerOfPerfectNest(*outer->stmt);
    Stmt& o = *outer->stmt;
    std::swap(o.doVar, inner->doVar);
    std::swap(o.doLo, inner->doLo);
    std::swap(o.doHi, inner->doHi);
    std::swap(o.doStep, inner->doStep);
    std::swap(o.isParallel, inner->isParallel);
    return true;
  }
};

// ===========================================================================
// Loop Fusion
// ===========================================================================

class LoopFusion : public Transformation {
 public:
  std::string name() const override { return "Loop Fusion"; }
  Category category() const override { return Category::Reordering; }

  /// Check adjacency and header compatibility; fills positions.
  static bool compatible(Workspace& ws, const Target& t, std::size_t* idx1,
                         std::vector<StmtPtr>** container,
                         std::string* why) {
    Loop* l1 = ws.loopOf(t.loop);
    Loop* l2 = ws.loopOf(t.secondLoop);
    if (!l1 || !l2) {
      *why = "targets are not loops";
      return false;
    }
    std::size_t i1 = 0, i2 = 0;
    auto* c1 = containerOf(ws, t.loop, &i1);
    auto* c2 = containerOf(ws, t.secondLoop, &i2);
    if (!c1 || c1 != c2 || i2 != i1 + 1) {
      *why = "loops are not adjacent";
      return false;
    }
    const Stmt& s1 = *l1->stmt;
    const Stmt& s2 = *l2->stmt;
    auto sameExpr = [](const fortran::ExprPtr& a, const fortran::ExprPtr& b) {
      if (!a && !b) return true;
      if (!a || !b) return false;
      return a->structurallyEquals(*b);
    };
    if (!sameExpr(s1.doLo, s2.doLo) || !sameExpr(s1.doHi, s2.doHi) ||
        !sameExpr(s1.doStep, s2.doStep)) {
      *why = "loop headers differ";
      return false;
    }
    *idx1 = i1;
    *container = c1;
    return true;
  }

  /// Perform the mechanics on whatever workspace is given (sandbox or
  /// real) without reanalyzing it: returns the fused loop's statement.
  static Stmt* fuse(Workspace& ws, const Target& t) {
    std::size_t idx1 = 0;
    std::vector<StmtPtr>* container = nullptr;
    std::string why;
    if (!compatible(ws, t, &idx1, &container, &why)) return nullptr;
    Stmt& s1 = *(*container)[idx1];
    Stmt& s2 = *(*container)[idx1 + 1];
    normalizeLoopForm(s1);
    normalizeLoopForm(s2);
    // Rename the second loop's induction variable if it differs.
    if (s1.doVar != s2.doVar) {
      auto repl = fortran::makeVarRef(s1.doVar);
      for (auto& b : s2.body) substituteVar(*b, s2.doVar, *repl);
    }
    for (auto& b : s2.body) s1.body.push_back(std::move(b));
    container->erase(container->begin() + static_cast<long>(idx1 + 1));
    return &s1;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    std::size_t idx = 0;
    std::vector<StmtPtr>* container = nullptr;
    std::string why;
    if (!compatible(ws, t, &idx, &container, &why)) return Advice::no(why);

    // Trial-fuse in a sandbox; fusion is illegal when a statement that came
    // from the second loop becomes the *source* of a dependence carried by
    // the fused loop into a statement of the first loop (a forward
    // loop-independent dependence turned backward-carried).
    Trial trial(ws);
    Loop* l2 = ws.loopOf(t.secondLoop);
    std::set<StmtId> fromSecond;
    for (const Stmt* s : l2->bodyStmts) fromSecond.insert(s->id);
    Workspace& sandbox = trial.workspace();
    Stmt* fused = fuse(sandbox, t);
    if (!fused) return Advice::no("fusion mechanics failed");
    sandbox.reanalyze();
    Loop* fusedLoop = sandbox.loopOf(fused->id);
    bool hadParallel1 = ws.graph->parallelizable(*ws.loopOf(t.loop));
    bool hadParallel2 = ws.graph->parallelizable(*ws.loopOf(t.secondLoop));
    for (const auto& d : sandbox.graph->all()) {
      if (!d.active() || !d.loopCarried()) continue;
      if (d.carrierLoop != fused->id) continue;
      if (fromSecond.count(d.srcStmt) && !fromSecond.count(d.dstStmt)) {
        return Advice::unsafe(
            "fusing would reverse a dependence (backward-carried)");
      }
    }
    bool stillParallel =
        fusedLoop && sandbox.graph->parallelizable(*fusedLoop);
    bool prof = hadParallel1 && hadParallel2 && stillParallel;
    return Advice::ok(prof, prof ? "fused loop stays parallel (granularity)"
                                 : "fusion legal");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    return fuse(ws, t) != nullptr;
  }
};

// ===========================================================================
// Loop Reversal
// ===========================================================================

class LoopReversal : public Transformation {
 public:
  std::string name() const override { return "Loop Reversal"; }
  Category category() const override { return Category::Reordering; }

  /// True when the step is absent or folds to the constant 1 or -1: only
  /// then do the swapped bounds visit the same iterations.
  static bool unitMagnitudeStep(const Stmt& s) {
    if (!s.doStep) return true;
    auto step = dataflow::ConstantAnalysis::evaluate(
        *s.doStep,
        [](const std::string&) { return dataflow::ConstVal::bottom(); });
    return step && step->kind == dataflow::ConstVal::Kind::IntConst &&
           (step->i == 1 || step->i == -1);
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (!unitMagnitudeStep(*loop->stmt)) {
      return Advice::no("only loops with step 1 or -1 are reversed");
    }
    for (const auto* d : ws.graph->parallelismInhibitors(*loop)) {
      (void)d;
      return Advice::unsafe("loop carries a dependence; reversal flips it");
    }
    return Advice::ok(false, "legal (no carried dependences)");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Stmt& s = *ws.loopOf(t.loop)->stmt;
    std::swap(s.doLo, s.doHi);
    fortran::ExprPtr step =
        s.doStep ? std::move(s.doStep) : fortran::makeIntConst(1);
    s.doStep = fortran::makeUnary(fortran::UnOp::Neg, std::move(step));
    return true;
  }
};

// ===========================================================================
// Statement Interchange
// ===========================================================================

class StatementInterchange : public Transformation {
 public:
  std::string name() const override { return "Statement Interchange"; }
  Category category() const override { return Category::Reordering; }

  Advice advise(Workspace& ws, const Target& t) const override {
    std::size_t i1 = 0, i2 = 0;
    auto* c1 = containerOf(ws, t.stmt, &i1);
    auto* c2 = containerOf(ws, t.secondLoop != fortran::kInvalidStmt
                                   ? t.secondLoop
                                   : t.stmt,
                           &i2);
    (void)c2;
    if (!c1) return Advice::no("statement not found");
    if (i1 + 1 >= c1->size()) return Advice::no("no following statement");
    StmtId a = (*c1)[i1]->id;
    StmtId b = (*c1)[i1 + 1]->id;
    for (const auto& d : ws.graph->all()) {
      if (!d.active() || d.type == dep::DepType::Input) continue;
      bool touches = (d.srcStmt == a && d.dstStmt == b) ||
                     (d.srcStmt == b && d.dstStmt == a);
      if (touches && !d.loopCarried()) {
        return Advice::unsafe("dependence between the two statements");
      }
    }
    return Advice::ok(false, "statements are independent");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    std::size_t i = 0;
    auto* c = containerOf(ws, t.stmt, &i);
    std::swap((*c)[i], (*c)[i + 1]);
    return true;
  }
};

// ===========================================================================
// Loop Peeling
// ===========================================================================

class LoopPeeling : public Transformation {
 public:
  std::string name() const override { return "Loop Peeling"; }
  Category category() const override { return Category::Reordering; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    const Stmt& s = *loop->stmt;
    if (!unitStep(s)) {
      return Advice::no("only unit-step loops are peeled");
    }
    if (bodyHasUnstructuredFlow(s)) {
      return Advice::unsafe("loop body has unstructured control flow");
    }
    return Advice::ok(false, "peels the first iteration under a guard");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    normalizeLoopForm(s);
    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);

    // Guard: IF (lo .LE. hi) THEN  iv = lo ; <body copy> ENDIF
    auto guard = fortran::makeStmt(StmtKind::If, s.loc);
    fortran::IfArm arm;
    arm.condition = fortran::makeBinary(fortran::BinOp::Le, s.doLo->clone(),
                                        s.doHi->clone());
    auto setIv = fortran::makeStmt(StmtKind::Assign, s.loc);
    setIv->lhs = fortran::makeVarRef(s.doVar);
    setIv->rhs = s.doLo->clone();
    arm.body.push_back(std::move(setIv));
    for (const auto& b : s.body) arm.body.push_back(b->clone());
    guard->arms.push_back(std::move(arm));

    // Loop now starts at lo + 1.
    s.doLo = fortran::makeBinary(fortran::BinOp::Add, std::move(s.doLo),
                                 fortran::makeIntConst(1));
    container->insert(container->begin() + static_cast<long>(index),
                      std::move(guard));
    return true;
  }
};

// ===========================================================================
// Loop Splitting (index-set splitting)
// ===========================================================================

class LoopSplitting : public Transformation {
 public:
  std::string name() const override { return "Loop Splitting"; }
  Category category() const override { return Category::Reordering; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (!unitStep(*loop->stmt)) {
      return Advice::no("only unit-step loops are split");
    }
    return Advice::ok(false, "always legal");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Stmt& s = *loop->stmt;
    normalizeLoopForm(s);
    std::size_t index = 0;
    auto* container = containerOf(ws, t.loop, &index);

    // Second half: DO iv = MAX(p + 1, lo), hi.
    StmtPtr second = cloneHeader(s);
    for (const auto& b : s.body) second->body.push_back(b->clone());
    std::vector<fortran::ExprPtr> maxArgs;
    maxArgs.push_back(fortran::makeBinary(
        fortran::BinOp::Add, fortran::makeIntConst(t.splitPoint),
        fortran::makeIntConst(1)));
    maxArgs.push_back(s.doLo->clone());
    second->doLo = fortran::makeFuncCall("MAX0", std::move(maxArgs));
    // First half: hi = MIN(p, hi).
    std::vector<fortran::ExprPtr> minArgs;
    minArgs.push_back(fortran::makeIntConst(t.splitPoint));
    minArgs.push_back(std::move(s.doHi));
    s.doHi = fortran::makeFuncCall("MIN0", std::move(minArgs));
    container->insert(container->begin() + static_cast<long>(index + 1),
                      std::move(second));
    return true;
  }
};

// ===========================================================================
// Loop Skewing
// ===========================================================================

class LoopSkewing : public Transformation {
 public:
  std::string name() const override { return "Loop Skewing"; }
  Category category() const override { return Category::Reordering; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* outer = ws.loopOf(t.loop);
    if (!outer) return Advice::no("target is not a loop");
    Stmt* inner = innerOfPerfectNest(*outer->stmt);
    if (!inner) return Advice::no("loop nest is not perfectly nested");
    if (!unitStep(*inner) || !unitStep(*outer->stmt)) {
      return Advice::no("only unit-step nests are skewed");
    }
    return Advice::ok(false,
                      "re-indexing; enables interchange on wavefronts");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* outer = ws.loopOf(t.loop);
    Stmt* inner = innerOfPerfectNest(*outer->stmt);
    long long f = t.factor;
    const std::string& ov = outer->stmt->doVar;
    // inner bounds += f*outer.
    auto skewTerm = [&]() {
      return fortran::makeBinary(fortran::BinOp::Mul,
                                 fortran::makeIntConst(f),
                                 fortran::makeVarRef(ov));
    };
    inner->doLo = fortran::makeBinary(fortran::BinOp::Add,
                                      std::move(inner->doLo), skewTerm());
    inner->doHi = fortran::makeBinary(fortran::BinOp::Add,
                                      std::move(inner->doHi), skewTerm());
    // Body: innerIV -> innerIV - f*outerIV.
    auto replacement = fortran::makeBinary(
        fortran::BinOp::Sub, fortran::makeVarRef(inner->doVar), skewTerm());
    for (auto& b : inner->body) {
      substituteVar(*b, inner->doVar, *replacement);
    }
    return true;
  }
};

// ===========================================================================
// Loop Alignment
// ===========================================================================

class LoopAlignment : public Transformation {
 public:
  std::string name() const override { return "Loop Alignment"; }
  Category category() const override { return Category::Reordering; }

  struct Pattern {
    const Stmt* s1 = nullptr;
    const Stmt* s2 = nullptr;
    long long distance = 0;
  };

  /// Recognize: body of exactly two statements with all carried deps being
  /// S1 -> S2 true deps of one constant distance.
  static bool match(Workspace& ws, Loop* loop, Pattern* p) {
    Stmt& ls = *loop->stmt;
    std::vector<const Stmt*> tops;
    for (const auto& b : ls.body) {
      if (b->kind == StmtKind::Continue && b->label == ls.doEndLabel) {
        continue;
      }
      tops.push_back(b.get());
    }
    if (tops.size() != 2) return false;
    if (tops[0]->kind != StmtKind::Assign ||
        tops[1]->kind != StmtKind::Assign) {
      return false;
    }
    long long dist = 0;
    for (const auto* d : ws.graph->parallelismInhibitors(*loop)) {
      if (d->type != dep::DepType::True) return false;
      if (d->srcStmt != tops[0]->id || d->dstStmt != tops[1]->id) {
        return false;
      }
      std::size_t lvl = static_cast<std::size_t>(d->level - 1);
      if (d->vector.dists.size() <= lvl || !d->vector.dists[lvl]) {
        return false;
      }
      long long dd = *d->vector.dists[lvl];
      if (dist != 0 && dd != dist) return false;
      dist = dd;
    }
    if (dist <= 0) return false;
    p->s1 = tops[0];
    p->s2 = tops[1];
    p->distance = dist;
    return true;
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (!unitStep(*loop->stmt)) {
      return Advice::no("only unit-step loops are aligned");
    }
    Pattern p;
    if (!match(ws, loop, &p)) {
      return Advice::no(
          "body is not a two-statement single-distance recurrence");
    }
    return Advice::ok(true, "converts the carried dependence to "
                            "loop-independent");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Loop* loop = ws.loopOf(t.loop);
    Pattern p;
    match(ws, loop, &p);
    Stmt& s = *loop->stmt;
    normalizeLoopForm(s);
    const std::string iv = s.doVar;
    long long d = p.distance;

    // New loop J = lo - d .. hi with guarded, shifted statements:
    //   IF (J .GE. lo)     S1[iv := J]
    //   IF (J .LE. hi - d) S2[iv := J + d]
    fortran::ExprPtr lo = s.doLo->clone();
    fortran::ExprPtr hi = s.doHi->clone();

    StmtPtr g1 = fortran::makeStmt(StmtKind::If, s.loc);
    g1->isLogicalIf = true;
    {
      fortran::IfArm arm;
      arm.condition = fortran::makeBinary(
          fortran::BinOp::Ge, fortran::makeVarRef(iv), lo->clone());
      arm.body.push_back(p.s1->clone());
      g1->arms.push_back(std::move(arm));
    }
    StmtPtr g2 = fortran::makeStmt(StmtKind::If, s.loc);
    g2->isLogicalIf = true;
    {
      fortran::IfArm arm;
      arm.condition = fortran::makeBinary(
          fortran::BinOp::Le, fortran::makeVarRef(iv),
          fortran::makeBinary(fortran::BinOp::Sub, hi->clone(),
                              fortran::makeIntConst(d)));
      StmtPtr shifted = p.s2->clone();
      auto repl = fortran::makeBinary(fortran::BinOp::Add,
                                      fortran::makeVarRef(iv),
                                      fortran::makeIntConst(d));
      substituteVar(*shifted, iv, *repl);
      arm.body.push_back(std::move(shifted));
      g2->arms.push_back(std::move(arm));
    }

    s.doLo = fortran::makeBinary(fortran::BinOp::Sub, std::move(s.doLo),
                                 fortran::makeIntConst(d));
    s.body.clear();
    s.body.push_back(std::move(g1));
    s.body.push_back(std::move(g2));
    return true;
  }
};

}  // namespace

void addReorderingTransforms(
    std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<LoopDistribution>());
  out.push_back(std::make_unique<LoopInterchange>());
  out.push_back(std::make_unique<LoopFusion>());
  out.push_back(std::make_unique<LoopReversal>());
  out.push_back(std::make_unique<StatementInterchange>());
  out.push_back(std::make_unique<LoopPeeling>());
  out.push_back(std::make_unique<LoopSplitting>());
  out.push_back(std::make_unique<LoopSkewing>());
  out.push_back(std::make_unique<LoopAlignment>());
}

}  // namespace ps::transform
