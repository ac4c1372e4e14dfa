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
using fortran::UnOp;

namespace {

/// How many GOTO / arithmetic-IF references target this label in the
/// procedure?
int labelRefCount(const fortran::Procedure& proc, int label) {
  int n = 0;
  proc.forEachStmt([&](const Stmt& s) {
    if (s.kind == StmtKind::Goto && s.gotoTarget == label) ++n;
    if (s.kind == StmtKind::ArithmeticIf) {
      for (int l : s.aifLabels) {
        if (l == label) ++n;
      }
    }
  });
  return n;
}

bool exprHasCall(const Expr& e) {
  bool found = false;
  e.forEach([&](const Expr& sub) {
    if (sub.kind == ExprKind::FuncCall && !ir::isIntrinsic(sub.name)) {
      found = true;
    }
  });
  return found;
}

StmtPtr makeGoto(int label) {
  auto g = fortran::makeStmt(StmtKind::Goto);
  g->gotoTarget = label;
  return g;
}

StmtPtr makeLogicalIfGoto(fortran::ExprPtr cond, int label) {
  auto s = fortran::makeStmt(StmtKind::If);
  s->isLogicalIf = true;
  fortran::IfArm arm;
  arm.condition = std::move(cond);
  arm.body.push_back(makeGoto(label));
  s->arms.push_back(std::move(arm));
  return s;
}

// ===========================================================================
// Arithmetic IF Removal: IF (e) l1, l2, l3 becomes logical IFs + GOTOs,
// the first step of the control-flow simplification §5.3 calls for.
// ===========================================================================

class ArithmeticIfRemoval : public Transformation {
 public:
  std::string name() const override { return "Arithmetic IF Removal"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    const Stmt* s = ws.model->stmt(t.stmt);
    if (!s || s->kind != StmtKind::ArithmeticIf) {
      return Advice::no("statement is not an arithmetic IF");
    }
    return Advice::ok(true, "replaces three-way branch with logical IFs");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    std::size_t index = 0;
    auto* container = containerOf(ws, t.stmt, &index);
    Stmt& s = *(*container)[index];
    int l1 = s.aifLabels[0], l2 = s.aifLabels[1], l3 = s.aifLabels[2];

    std::vector<StmtPtr> replacement;
    fortran::ExprPtr expr = std::move(s.condExpr);
    // If the selector has side effects, evaluate it once into a temp.
    if (exprHasCall(*expr)) {
      std::string tmp = freshName(ws.proc, "AIF$");
      fortran::VarDecl d;
      d.name = tmp;
      d.type = fortran::TypeKind::Real;
      ws.proc.decls.push_back(std::move(d));
      auto assign = fortran::makeStmt(StmtKind::Assign, s.loc);
      assign->lhs = fortran::makeVarRef(tmp);
      assign->rhs = std::move(expr);
      replacement.push_back(std::move(assign));
      expr = fortran::makeVarRef(tmp);
    }
    auto zero = [] { return fortran::makeIntConst(0); };

    // Does the given label land on the statement right after this one?
    auto fallsThrough = [&](int label) {
      return index + 1 < container->size() &&
             (*container)[index + 1]->label == label;
    };

    if (l1 == l2 && l2 == l3) {
      replacement.push_back(makeGoto(l1));
    } else if (l2 == l3) {
      replacement.push_back(makeLogicalIfGoto(
          fortran::makeBinary(BinOp::Lt, expr->clone(), zero()), l1));
      if (!fallsThrough(l2)) replacement.push_back(makeGoto(l2));
    } else if (l1 == l2) {
      replacement.push_back(makeLogicalIfGoto(
          fortran::makeBinary(BinOp::Le, expr->clone(), zero()), l1));
      if (!fallsThrough(l3)) replacement.push_back(makeGoto(l3));
    } else if (l1 == l3) {
      replacement.push_back(makeLogicalIfGoto(
          fortran::makeBinary(BinOp::Ne, expr->clone(), zero()), l1));
      if (!fallsThrough(l2)) replacement.push_back(makeGoto(l2));
    } else {
      replacement.push_back(makeLogicalIfGoto(
          fortran::makeBinary(BinOp::Lt, expr->clone(), zero()), l1));
      replacement.push_back(makeLogicalIfGoto(
          fortran::makeBinary(BinOp::Eq, expr->clone(), zero()), l2));
      if (!fallsThrough(l3)) replacement.push_back(makeGoto(l3));
    }
    // Preserve the original statement's label on the first replacement.
    if (!replacement.empty()) replacement.front()->label = s.label;
    container->erase(container->begin() + static_cast<long>(index));
    for (std::size_t i = 0; i < replacement.size(); ++i) {
      container->insert(container->begin() + static_cast<long>(index + i),
                        std::move(replacement[i]));
    }
    return true;
  }
};

// ===========================================================================
// Control Flow Structuring: GOTO-built conditionals become IF-THEN-ELSE
// (the neoss example from §5.3).
// ===========================================================================

class ControlFlowStructuring : public Transformation {
 public:
  std::string name() const override { return "Control Flow Structuring"; }
  Category category() const override { return Category::Miscellaneous; }

  struct Match {
    std::size_t ifIdx = 0;       // the IF (c) GOTO L1
    std::size_t thenEnd = 0;     // exclusive end of the then-block
    std::size_t elseBegin = 0;   // L1-labeled statement (else form only)
    std::size_t elseEnd = 0;     // exclusive end of the else-block
    int l1 = 0;
    int l2 = 0;                  // 0 for the if-then form
    bool hasElse = false;
  };

  static bool isIfGoto(const Stmt& s, int* label,
                       const Expr** cond) {
    if (s.kind != StmtKind::If || !s.isLogicalIf || s.arms.size() != 1 ||
        s.arms[0].body.size() != 1 ||
        s.arms[0].body[0]->kind != StmtKind::Goto) {
      return false;
    }
    *label = s.arms[0].body[0]->gotoTarget;
    *cond = s.arms[0].condition.get();
    return true;
  }

  /// No referenced labels and no GOTOs in a statement range (labels with a
  /// zero reference count — e.g. leftovers of a removed arithmetic IF — are
  /// harmless and allowed).
  static bool rangeIsClean(Workspace& ws, const std::vector<StmtPtr>& list,
                           std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      bool bad = false;
      list[i]->forEach([&](const Stmt& s) {
        if (s.label != 0 && labelRefCount(ws.proc, s.label) > 0) bad = true;
        if (s.kind == StmtKind::Goto || s.kind == StmtKind::ArithmeticIf) {
          bad = true;
        }
      });
      if (bad) return false;
    }
    return true;
  }

  static bool match(Workspace& ws, const std::vector<StmtPtr>& list,
                    std::size_t ifIdx, Match* m) {
    int l1 = 0;
    const Expr* cond = nullptr;
    if (!isIfGoto(*list[ifIdx], &l1, &cond)) return false;
    if (labelRefCount(ws.proc, l1) != 1) return false;
    // Find the L1-labeled statement later in the same list.
    std::size_t target = 0;
    bool found = false;
    for (std::size_t i = ifIdx + 1; i < list.size(); ++i) {
      if (list[i]->label == l1) {
        target = i;
        found = true;
        break;
      }
    }
    if (!found || target == ifIdx + 1) return false;

    m->ifIdx = ifIdx;
    m->l1 = l1;

    // If-then-else form: the statement before L1 is GOTO L2 and L2 labels
    // a later statement in the same list.
    const Stmt& beforeTarget = *list[target - 1];
    if (beforeTarget.kind == StmtKind::Goto) {
      int l2 = beforeTarget.gotoTarget;
      std::size_t join = 0;
      bool foundJoin = false;
      for (std::size_t i = target + 1; i < list.size(); ++i) {
        if (list[i]->label == l2) {
          join = i;
          foundJoin = true;
          break;
        }
      }
      if (foundJoin && labelRefCount(ws.proc, l2) == 1 &&
          rangeIsClean(ws, list, ifIdx + 1, target - 1) &&
          rangeIsClean(ws, list, target + 1, join)) {
        m->hasElse = true;
        m->thenEnd = target - 1;  // excludes the GOTO L2
        m->elseBegin = target;
        m->elseEnd = join;
        m->l2 = l2;
        return true;
      }
      return false;
    }
    // If-then form: everything between the IF and the label is clean.
    if (!rangeIsClean(ws, list, ifIdx + 1, target)) return false;
    m->hasElse = false;
    m->thenEnd = target;
    return true;
  }

  static bool findAnywhere(Workspace& ws, const Target& t, Match* m,
                           std::vector<StmtPtr>** listOut) {
    std::size_t idx = 0;
    auto* list = containerOf(ws, t.stmt, &idx);
    if (!list) return false;
    *listOut = list;
    return match(ws, *list, idx, m);
  }

  Advice advise(Workspace& ws, const Target& t) const override {
    Match m;
    std::vector<StmtPtr>* list = nullptr;
    if (!findAnywhere(ws, t, &m, &list)) {
      return Advice::no("no IF-GOTO conditional pattern at this statement");
    }
    return Advice::ok(true, m.hasElse
                                ? "structures into IF-THEN-ELSE"
                                : "structures into IF-THEN");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    Match m;
    std::vector<StmtPtr>* listPtr = nullptr;
    findAnywhere(ws, t, &m, &listPtr);
    std::vector<StmtPtr>& list = *listPtr;
    Stmt& ifStmt = *list[m.ifIdx];
    fortran::ExprPtr cond = std::move(ifStmt.arms[0].condition);
    auto notCond = fortran::makeUnary(UnOp::Not, std::move(cond));

    auto block = fortran::makeStmt(StmtKind::If, ifStmt.loc);
    block->label = ifStmt.label;
    fortran::IfArm thenArm;
    thenArm.condition = std::move(notCond);
    for (std::size_t i = m.ifIdx + 1; i < m.thenEnd; ++i) {
      thenArm.body.push_back(std::move(list[i]));
    }
    block->arms.push_back(std::move(thenArm));
    std::size_t eraseEnd;
    if (m.hasElse) {
      fortran::IfArm elseArm;  // null condition
      for (std::size_t i = m.elseBegin; i < m.elseEnd; ++i) {
        StmtPtr s = std::move(list[i]);
        if (i == m.elseBegin) s->label = 0;  // L1 now unreferenced
        elseArm.body.push_back(std::move(s));
      }
      block->arms.push_back(std::move(elseArm));
      eraseEnd = m.elseEnd;
      // The join statement keeps running after the block; its L2 label is
      // now unreferenced.
      if (m.elseEnd < list.size() && list[m.elseEnd]->label == m.l2) {
        list[m.elseEnd]->label = 0;
      }
    } else {
      eraseEnd = m.thenEnd;
      if (m.thenEnd < list.size() && list[m.thenEnd]->label == m.l1) {
        list[m.thenEnd]->label = 0;
      }
    }
    list.erase(list.begin() + static_cast<long>(m.ifIdx),
               list.begin() + static_cast<long>(eraseEnd));
    list.insert(list.begin() + static_cast<long>(m.ifIdx),
                std::move(block));
    return true;
  }
};

}  // namespace

void addControlFlowTransforms(
    std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<ArithmeticIfRemoval>());
  out.push_back(std::make_unique<ControlFlowStructuring>());
}

}  // namespace ps::transform
