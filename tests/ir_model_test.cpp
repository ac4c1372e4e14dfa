#include "ir/model.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "fortran/parser.h"
#include "gen.h"
#include "ir/refs.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::ir {
namespace {

using fortran::Program;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using fortran::StmtPtr;

std::unique_ptr<Program> parse(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return prog;
}

const char* kNest =
    "      SUBROUTINE S(A, B, N, M)\n"
    "      REAL A(N, M), B(N)\n"
    "      DO 10 J = 1, M\n"
    "        DO 20 I = 1, N\n"
    "          A(I, J) = B(I)\n"
    "   20   CONTINUE\n"
    "        B(J) = 0.0\n"
    "   10 CONTINUE\n"
    "      DO K = 1, N\n"
    "        B(K) = B(K) + 1.0\n"
    "      ENDDO\n"
    "      END\n";

TEST(ProcedureModel, LoopTreeShape) {
  auto prog = parse(kNest);
  ProcedureModel model(*prog->units[0]);
  ASSERT_EQ(model.loops().size(), 3u);
  auto top = model.topLevelLoops();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->inductionVar(), "J");
  EXPECT_EQ(top[0]->level, 1);
  ASSERT_EQ(top[0]->children.size(), 1u);
  EXPECT_EQ(top[0]->children[0]->inductionVar(), "I");
  EXPECT_EQ(top[0]->children[0]->level, 2);
  EXPECT_EQ(top[1]->inductionVar(), "K");
  EXPECT_TRUE(top[1]->children.empty());
}

TEST(ProcedureModel, BodyStmtsIncludeNested) {
  auto prog = parse(kNest);
  ProcedureModel model(*prog->units[0]);
  auto top = model.topLevelLoops();
  // Outer J loop body: inner DO, A(I,J)=B(I), 20 CONTINUE, B(J)=0, 10 CONT.
  EXPECT_EQ(top[0]->bodyStmts.size(), 5u);
  // Inner I loop body: assignment + CONTINUE.
  EXPECT_EQ(top[0]->children[0]->bodyStmts.size(), 2u);
}

TEST(ProcedureModel, EnclosingLoop) {
  auto prog = parse(kNest);
  ProcedureModel model(*prog->units[0]);
  auto top = model.topLevelLoops();
  const fortran::Stmt* assign = top[0]->children[0]->bodyStmts[0];
  ASSERT_EQ(assign->kind, StmtKind::Assign);
  Loop* l = model.enclosingLoop(assign->id);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->inductionVar(), "I");
  // The DO I statement itself is enclosed by the J loop.
  Loop* outer = model.enclosingLoop(top[0]->children[0]->stmt->id);
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->inductionVar(), "J");
}

TEST(ProcedureModel, NestPath) {
  auto prog = parse(kNest);
  ProcedureModel model(*prog->units[0]);
  auto top = model.topLevelLoops();
  auto path = top[0]->children[0]->nestPath();
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0]->inductionVar(), "J");
  EXPECT_EQ(path[1]->inductionVar(), "I");
}

TEST(ProcedureModel, LabelTargets) {
  auto prog = parse(kNest);
  ProcedureModel model(*prog->units[0]);
  ASSERT_NE(model.labelTarget(20), nullptr);
  EXPECT_EQ(model.labelTarget(20)->kind, StmtKind::Continue);
  EXPECT_EQ(model.labelTarget(999), nullptr);
}

TEST(ProcedureModel, ContainerOf) {
  auto prog = parse(kNest);
  ProcedureModel model(*prog->units[0]);
  auto top = model.topLevelLoops();
  std::size_t idx = 99;
  auto* container = model.containerOf(top[1]->stmt->id, &idx);
  ASSERT_NE(container, nullptr);
  EXPECT_EQ(idx, 1u);  // second top-level statement
  EXPECT_EQ(container, &prog->units[0]->body);
}

TEST(ProcedureModel, IfArmsIndexed) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      IF (X .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ELSE\n"
      "        X = 2.0\n"
      "      ENDIF\n"
      "      END\n");
  ProcedureModel model(*prog->units[0]);
  EXPECT_EQ(model.allStmts().size(), 3u);  // IF + two assignments
  const fortran::Stmt* ifStmt = prog->units[0]->body[0].get();
  const fortran::Stmt* thenStmt = ifStmt->arms[0].body[0].get();
  EXPECT_EQ(model.parentStmt(thenStmt->id), ifStmt);
}

// ---------------------------------------------------------------------------
// Lookups against a fresh traversal into maps
// ---------------------------------------------------------------------------

/// Every lookup of a procedure, from a fresh pre-order traversal into
/// std::maps where each later statement overwrites an earlier one with the
/// same id or label. Only a nested statement records a parent. A DO's loop
/// is the first DO in pre-order with the id, as a scan of the loop list
/// finds it.
struct ReferenceIndex {
  std::vector<Stmt*> order;
  std::map<StmtId, Stmt*> byId, parent, enclosingDo, firstDo;
  std::map<StmtId, std::pair<std::vector<StmtPtr>*, std::size_t>> container;
  std::map<int, Stmt*> labels;

  explicit ReferenceIndex(fortran::Procedure& proc) {
    walk(proc.body, nullptr, nullptr);
  }

  void walk(std::vector<StmtPtr>& stmts, Stmt* parentStmt, Stmt* doStmt) {
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      Stmt* s = stmts[i].get();
      order.push_back(s);
      byId[s->id] = s;
      if (parentStmt) parent[s->id] = parentStmt;
      enclosingDo[s->id] = doStmt;
      container[s->id] = {&stmts, i};
      if (s->label != 0) labels[s->label] = s;
      if (s->kind == StmtKind::Do) {
        firstDo.try_emplace(s->id, s);
        walk(s->body, s, s);
      } else if (s->kind == StmtKind::If) {
        for (auto& arm : s->arms) walk(arm.body, s, doStmt);
      }
    }
  }
};

template <class Map, class Key>
Stmt* lookup(const Map& m, Key key) {
  auto it = m.find(key);
  return it == m.end() ? nullptr : it->second;
}

/// Every lookup `model` answers over `proc` agrees with the reference, for
/// each id and label the procedure carries and for their neighbours.
void expectLookupsMatchReference(fortran::Procedure& proc,
                                 const ProcedureModel& model) {
  SCOPED_TRACE(proc.name);
  const ReferenceIndex ref(proc);
  ASSERT_EQ(model.allStmts(), ref.order);
  ASSERT_EQ(model.rows().size(), ref.order.size());
  std::set<StmtId> ids = {fortran::kInvalidStmt};
  std::set<int> labels = {0, -1};
  for (const Stmt* s : ref.order) {
    ids.insert({s->id, s->id + 1});
    if (s->id > 0) ids.insert(s->id - 1);
    if (s->label != 0) labels.insert({s->label, s->label + 1});
  }
  for (StmtId id : ids) {
    SCOPED_TRACE("id " + std::to_string(id));
    EXPECT_EQ(model.stmt(id), lookup(ref.byId, id));
    EXPECT_EQ(model.parentStmt(id), lookup(ref.parent, id));
    const Loop* enclosing = model.enclosingLoop(id);
    EXPECT_EQ(enclosing ? enclosing->stmt : nullptr,
              lookup(ref.enclosingDo, id));
    const Loop* headed = model.loopByDoStmt(id);
    EXPECT_EQ(headed ? headed->stmt : nullptr, lookup(ref.firstDo, id));
    std::size_t index = 12345;
    auto* container = model.containerOf(id, &index);
    auto it = ref.container.find(id);
    if (it == ref.container.end()) {
      EXPECT_EQ(container, nullptr);
    } else {
      EXPECT_EQ(container, it->second.first);
      EXPECT_EQ(index, it->second.second);
    }
  }
  for (int label : labels) {
    EXPECT_EQ(model.labelTarget(label), lookup(ref.labels, label))
        << "label " << label;
  }
}

void expectEveryUnitMatches(Program& prog) {
  for (auto& unit : prog.units) {
    const ProcedureModel model(*unit);
    expectLookupsMatchReference(*unit, model);
  }
}

TEST(ProcedureModelLookups, AgreeWithMapsOnEveryDeck) {
  for (const auto& w : workloads::all()) {
    SCOPED_TRACE(w.name);
    auto prog = parse(w.source);
    expectEveryUnitMatches(*prog);
  }
}

TEST(ProcedureModelLookups, AgreeWithMapsOnAGeneratedDeck) {
  auto prog = parse(psbench::generateDeck(1, 2000).source);
  ASSERT_GT(prog->units.size(), 100u);
  expectEveryUnitMatches(*prog);
}

TEST(ProcedureModelLookups, DuplicatedIdAndLabelAnswerAsTheMapsDid) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO 10 I = 1, N\n"
      "        IF (A(I) .GT. 0.0) A(I) = 0.0\n"
      "   10 CONTINUE\n"
      "      DO J = 1, N\n"
      "        A(J) = 1.0\n"
      "      ENDDO\n"
      "   20 X = 1.0\n"
      "      Y = 2.0\n"
      "      END\n");
  fortran::Procedure& proc = *prog->units[0];
  Stmt* firstDo = proc.body[0].get();
  Stmt* nestedIf = firstDo->body[0].get();
  Stmt* nestedAssign = nestedIf->arms[0].body[0].get();
  Stmt* secondDo = proc.body[1].get();
  Stmt* x = proc.body[2].get();
  Stmt* y = proc.body[3].get();
  // The two DOs share an id; a nested assignment shares one with X, a
  // top-level statement after it; X and Y share label 20; and the IF takes
  // the id of the second DO's assignment.
  secondDo->id = firstDo->id;
  x->id = nestedAssign->id;
  y->label = x->label;
  nestedIf->id = secondDo->body[0]->id;

  const ProcedureModel model(proc);
  expectLookupsMatchReference(proc, model);
  // The later statement wins, as the maps' overwrite did ...
  EXPECT_EQ(model.stmt(firstDo->id), secondDo);
  EXPECT_EQ(model.stmt(x->id), x);
  EXPECT_EQ(model.labelTarget(20), y);
  EXPECT_EQ(model.enclosingLoop(x->id), nullptr);
  std::size_t index = 0;
  EXPECT_EQ(model.containerOf(x->id, &index), &proc.body);
  EXPECT_EQ(index, 2u);
  // ... except that a top-level statement never recorded a parent, and a
  // DO's loop is the first one whose DO has the id.
  EXPECT_EQ(model.parentStmt(x->id), nestedIf);
  ASSERT_NE(model.loopByDoStmt(firstDo->id), nullptr);
  EXPECT_EQ(model.loopByDoStmt(firstDo->id)->stmt, firstDo);
  EXPECT_EQ(model.stmt(nestedIf->id), secondDo->body[0].get());
}

TEST(ProcedureModelLookups, AgreeWithMapsAfterAnEditAndATransformation) {
  for (const auto& w : workloads::all()) {
    SCOPED_TRACE(w.name);
    auto s = workloads::loadDeck(w.name);
    ASSERT_NE(s, nullptr);
    workloads::Rng rng(3);
    workloads::EditStep step;
    ASSERT_TRUE(workloads::nextStep(*s, rng, &step));
    ASSERT_TRUE(workloads::applyStep(*s, step));
    ASSERT_TRUE(s->selectProcedure(step.proc));
    expectLookupsMatchReference(s->workspace().proc, *s->workspace().model);

    bool transformed = false;
    for (const std::string& proc : s->procedureNames()) {
      ASSERT_TRUE(s->selectProcedure(proc));
      for (const auto& loop : s->loops()) {
        for (const auto& entry : s->guidance(loop.id, /*safeOnly=*/true)) {
          if (!entry.advice.applicable || !entry.advice.safe) continue;
          std::string error;
          transformed = s->applyTransformation(entry.transformation,
                                               entry.target, &error);
          if (transformed) {
            SCOPED_TRACE(entry.transformation + " in " + proc);
            expectLookupsMatchReference(s->workspace().proc,
                                        *s->workspace().model);
            break;
          }
        }
        if (transformed) break;
      }
      if (transformed) break;
    }
    EXPECT_TRUE(transformed);
  }
}

TEST(Refs, AssignmentReadsAndWrites) {
  auto prog = parse(
      "      SUBROUTINE S(A, B, I)\n"
      "      REAL A(10), B(10)\n"
      "      A(I + 1) = B(I)*2.0\n"
      "      END\n");
  auto refs = collectRefs(*prog->units[0]->body[0]);
  // Writes: A. Reads: I (subscript), B, I.
  int writes = 0, reads = 0;
  for (const auto& r : refs) {
    if (r.kind == RefKind::Write) {
      ++writes;
      EXPECT_EQ(r.name, "A");
      EXPECT_TRUE(r.isArrayRef());
    }
    if (r.kind == RefKind::Read) ++reads;
  }
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(reads, 3);
}

TEST(Refs, DoStatementRefs) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N - 1\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  auto refs = collectRefs(*prog->units[0]->body[0]);
  bool sawDoVar = false, sawN = false;
  for (const auto& r : refs) {
    if (r.kind == RefKind::DoVarDef) {
      sawDoVar = true;
      EXPECT_EQ(r.name, "I");
    }
    if (r.name == "N" && r.kind == RefKind::Read) sawN = true;
  }
  EXPECT_TRUE(sawDoVar);
  EXPECT_TRUE(sawN);
}

TEST(Refs, CallActuals) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      CALL F(A, N, A(1), N + 1)\n"
      "      END\n");
  auto refs = collectRefs(*prog->units[0]->body[0]);
  int actuals = 0;
  for (const auto& r : refs) {
    if (r.kind == RefKind::CallActual) ++actuals;
  }
  // A, N, A(1) pass variables; N+1 is an expression (reads only).
  EXPECT_EQ(actuals, 3);
}

TEST(Refs, ReadStatementWritesItems) {
  auto prog = parse(
      "      SUBROUTINE S(A)\n"
      "      REAL A(10)\n"
      "      READ *, N, A(2)\n"
      "      END\n");
  auto refs = collectRefs(*prog->units[0]->body[0]);
  int writes = 0;
  for (const auto& r : refs) {
    if (r.kind == RefKind::Write) ++writes;
  }
  EXPECT_EQ(writes, 2);
}

TEST(Refs, FuncCallArgsAreReads) {
  auto prog = parse(
      "      SUBROUTINE S(X, Y)\n"
      "      X = SQRT(Y) + USERFN(X)\n"
      "      END\n");
  auto refs = collectRefs(*prog->units[0]->body[0]);
  int reads = 0;
  for (const auto& r : refs) {
    if (r.kind == RefKind::Read) ++reads;
  }
  EXPECT_EQ(reads, 2);  // Y and X on rhs
}

TEST(Refs, CalledFunctions) {
  auto prog = parse(
      "      SUBROUTINE S(X, Y)\n"
      "      X = SQRT(Y) + USERFN(X)\n"
      "      CALL HELPER(X)\n"
      "      END\n");
  auto f0 = calledFunctions(*prog->units[0]->body[0]);
  ASSERT_EQ(f0.size(), 1u);
  EXPECT_EQ(f0[0], "USERFN");  // SQRT is intrinsic
  auto f1 = calledFunctions(*prog->units[0]->body[1]);
  ASSERT_EQ(f1.size(), 1u);
  EXPECT_EQ(f1[0], "HELPER");
}

TEST(Refs, IntrinsicTable) {
  EXPECT_TRUE(isIntrinsic("SQRT"));
  EXPECT_TRUE(isIntrinsic("MAX"));
  EXPECT_TRUE(isIntrinsic("MOD"));
  EXPECT_FALSE(isIntrinsic("GLOOP"));
}

}  // namespace
}  // namespace ps::ir
