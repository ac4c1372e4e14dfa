#include "cfg/control_dep.h"
#include "cfg/dominators.h"
#include "cfg/flow_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "fortran/parser.h"
#include "gen.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace ps::cfg {
namespace {

using fortran::Program;
using fortran::Stmt;
using fortran::StmtKind;

std::unique_ptr<Program> parse(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return prog;
}

TEST(FlowGraph, StraightLine) {
  auto prog = parse(
      "      SUBROUTINE S\n"
      "      X = 1\n"
      "      Y = 2\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  // entry -> X -> Y -> exit
  int nx = g.nodeOf(prog->units[0]->body[0]->id);
  int ny = g.nodeOf(prog->units[0]->body[1]->id);
  EXPECT_EQ(g.successors(FlowGraph::kEntry), std::vector<int>{nx});
  EXPECT_EQ(g.successors(nx), std::vector<int>{ny});
  EXPECT_EQ(g.successors(ny), std::vector<int>{FlowGraph::kExit});
}

TEST(FlowGraph, LoopHasBackEdgeAndExit) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      X = 1\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  const Stmt* doStmt = prog->units[0]->body[0].get();
  const Stmt* bodyStmt = doStmt->body[0].get();
  const Stmt* after = prog->units[0]->body[1].get();
  int nd = g.nodeOf(doStmt->id), nb = g.nodeOf(bodyStmt->id),
      na = g.nodeOf(after->id);
  // DO branches into body and past the loop.
  auto succ = g.successors(nd);
  EXPECT_NE(std::find(succ.begin(), succ.end(), nb), succ.end());
  EXPECT_NE(std::find(succ.begin(), succ.end(), na), succ.end());
  // Body flows back to the DO.
  EXPECT_EQ(g.successors(nb), std::vector<int>{nd});
  EXPECT_TRUE(g.isBranch(nd));
}

TEST(FlowGraph, GotoEdges) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      GOTO 100\n"
      "      X = 1.0\n"
      "  100 X = 2.0\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  const auto& body = prog->units[0]->body;
  int ngoto = g.nodeOf(body[0]->id);
  int ntarget = g.nodeOf(body[2]->id);
  EXPECT_EQ(g.successors(ngoto), std::vector<int>{ntarget});
  // X = 1.0 is unreachable: no predecessors.
  EXPECT_TRUE(g.predecessors(g.nodeOf(body[1]->id)).empty());
}

TEST(FlowGraph, ArithmeticIfThreeWay) {
  auto prog = parse(
      "      SUBROUTINE S(K, X)\n"
      "      IF (K - 5) 10, 20, 30\n"
      "   10 X = 1.0\n"
      "   20 X = 2.0\n"
      "   30 X = 3.0\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  int nif = g.nodeOf(prog->units[0]->body[0]->id);
  EXPECT_EQ(g.successors(nif).size(), 3u);
}

TEST(FlowGraph, ReturnGoesToExit) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      RETURN\n"
      "      X = 1.0\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  int nret = g.nodeOf(prog->units[0]->body[0]->id);
  EXPECT_EQ(g.successors(nret), std::vector<int>{FlowGraph::kExit});
}

TEST(FlowGraph, IfWithoutElseFallsThrough) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      IF (X .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ENDIF\n"
      "      X = 2.0\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  const auto& body = prog->units[0]->body;
  int nif = g.nodeOf(body[0]->id);
  int nthen = g.nodeOf(body[0]->arms[0].body[0]->id);
  int nafter = g.nodeOf(body[1]->id);
  auto succ = g.successors(nif);
  EXPECT_EQ(succ.size(), 2u);
  EXPECT_NE(std::find(succ.begin(), succ.end(), nthen), succ.end());
  EXPECT_NE(std::find(succ.begin(), succ.end(), nafter), succ.end());
}

TEST(Dominators, LoopHeaderDominatesBody) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 0.0\n"
      "        A(I) = A(I) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  DominatorTree dom = DominatorTree::dominators(g);
  const Stmt* doStmt = prog->units[0]->body[0].get();
  int nd = g.nodeOf(doStmt->id);
  for (const auto& b : doStmt->body) {
    EXPECT_TRUE(dom.dominates(nd, g.nodeOf(b->id)));
  }
  EXPECT_TRUE(dom.dominates(FlowGraph::kEntry, nd));
  EXPECT_FALSE(dom.dominates(g.nodeOf(doStmt->body[0]->id), nd));
}

TEST(Dominators, PostDominators) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      IF (X .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ELSE\n"
      "        X = 2.0\n"
      "      ENDIF\n"
      "      X = 3.0\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  DominatorTree pdom = DominatorTree::postDominators(g);
  const auto& body = prog->units[0]->body;
  int nif = g.nodeOf(body[0]->id);
  int njoin = g.nodeOf(body[1]->id);
  int nthen = g.nodeOf(body[0]->arms[0].body[0]->id);
  EXPECT_TRUE(pdom.dominates(njoin, nif));
  EXPECT_TRUE(pdom.dominates(njoin, nthen));
  EXPECT_FALSE(pdom.dominates(nthen, nif));
}

TEST(ControlDependence, IfArmsControlled) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      IF (X .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ELSE\n"
      "        X = 2.0\n"
      "      ENDIF\n"
      "      X = 3.0\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  auto cd = ControlDependence::build(g);
  const auto& body = prog->units[0]->body;
  auto controlled = cd.controlledBy(body[0]->id);
  // Both arms controlled; the join statement is not.
  EXPECT_EQ(controlled.size(), 2u);
  auto controllers = cd.controllersOf(body[1]->id);
  EXPECT_TRUE(controllers.empty());
}

TEST(ControlDependence, LoopBodyControlledByDo) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  auto cd = ControlDependence::build(g);
  const Stmt* doStmt = prog->units[0]->body[0].get();
  auto controllers = cd.controllersOf(doStmt->body[0]->id);
  ASSERT_EQ(controllers.size(), 1u);
  EXPECT_EQ(controllers[0], doStmt->id);
  EXPECT_FALSE(cd.hasNonLoopController(doStmt->body[0]->id, model));
}

TEST(ControlDependence, GotoControlFlow) {
  // The neoss-style pattern: statements guarded by an arithmetic IF.
  auto prog = parse(
      "      SUBROUTINE S(DENV, RES, N, NR)\n"
      "      REAL DENV(N), RES(N)\n"
      "      DO 50 K = 1, N\n"
      "        IF (DENV(K) - RES(NR + 1)) 100, 10, 10\n"
      "   10   CONTINUE\n"
      "        DENV(K) = DENV(K)*2.0\n"
      "        GOTO 101\n"
      "  100   DENV(K) = 0.0\n"
      "  101   RES(K) = DENV(K)\n"
      "   50 CONTINUE\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  auto cd = ControlDependence::build(g);
  const Stmt* loop = prog->units[0]->body[0].get();
  const Stmt* aif = loop->body[0].get();
  ASSERT_EQ(aif->kind, StmtKind::ArithmeticIf);
  // DENV(K) = DENV(K)*2 (body[2]) and DENV(K)=0 (body[4]) are both
  // control dependent on the arithmetic IF.
  auto controlled = cd.controlledBy(aif->id);
  EXPECT_GE(controlled.size(), 2u);
  EXPECT_TRUE(cd.hasNonLoopController(loop->body[2]->id, model));
  // The join RES(K) = DENV(K) is not controlled by the arithmetic IF.
  bool joinControlled = false;
  for (auto id : controlled) {
    if (id == loop->body[5]->id) joinControlled = true;
  }
  EXPECT_FALSE(joinControlled);
}

TEST(ControlDependence, NestedLoopsChainOfControllers) {
  auto prog = parse(
      "      SUBROUTINE S(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 1, M\n"
      "        DO I = 1, N\n"
      "          A(I, J) = 0.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  ir::ProcedureModel model(*prog->units[0]);
  FlowGraph g = FlowGraph::build(model);
  auto cd = ControlDependence::build(g);
  const Stmt* outer = prog->units[0]->body[0].get();
  const Stmt* inner = outer->body[0].get();
  const Stmt* assign = inner->body[0].get();
  auto controllers = cd.controllersOf(assign->id);
  // Assignment is controlled by the inner DO (and transitively by nothing
  // else non-loop).
  ASSERT_FALSE(controllers.empty());
  EXPECT_FALSE(cd.hasNonLoopController(assign->id, model));
}

// ---------------------------------------------------------------------------
// nodeOf answers what the per-statement map the graph used to keep did
// ---------------------------------------------------------------------------

/// Every statement's node against a map filled in pre-order, as the graph
/// filled its own: the last statement with an id wins, and an id no
/// statement has answers -1.
void expectNodeOfMatchesMap(fortran::Procedure& proc) {
  const ir::ProcedureModel model(proc);
  const FlowGraph g = FlowGraph::build(model);
  std::map<fortran::StmtId, int> ref;
  const auto& all = model.allStmts();
  for (std::size_t i = 0; i < all.size(); ++i) {
    ref[all[i]->id] = static_cast<int>(i) + FlowGraph::kFirstStmt;
  }
  fortran::StmtId maxId = 0;
  for (const Stmt* s : all) {
    EXPECT_EQ(g.nodeOf(s->id), ref.at(s->id)) << proc.name << " stmt" << s->id;
    maxId = std::max(maxId, s->id);
  }
  EXPECT_EQ(g.nodeOf(maxId + 1), -1) << proc.name;
  EXPECT_EQ(g.nodeOf(fortran::kInvalidStmt), -1) << proc.name;
}

TEST(FlowGraphNodeIndex, MatchesTheMapOnEveryDeckAndAGeneratedDeck) {
  std::size_t units = 0;
  for (const auto& w : workloads::all()) {
    auto prog = parse(w.source);
    for (auto& unit : prog->units) expectNodeOfMatchesMap(*unit);
    units += prog->units.size();
  }
  auto generated = parse(psbench::generateDeck(1, 2000).source);
  ASSERT_GT(generated->units.size(), 100u);
  for (auto& unit : generated->units) expectNodeOfMatchesMap(*unit);
  EXPECT_GT(units, 8u);
}

TEST(FlowGraphNodeIndex, DuplicatedIdAnswersForTheLastStatement) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO 10 I = 1, N\n"
      "        IF (A(I) .GT. 0.0) A(I) = 0.0\n"
      "   10 CONTINUE\n"
      "      X = 1.0\n"
      "      Y = 2.0\n"
      "      END\n");
  fortran::Procedure& proc = *prog->units[0];
  Stmt* loop = proc.body[0].get();
  Stmt* nestedAssign = loop->body[0]->arms[0].body[0].get();
  Stmt* x = proc.body[1].get();
  Stmt* y = proc.body[2].get();
  // Y takes the DO's id and X the nested assignment's.
  y->id = loop->id;
  x->id = nestedAssign->id;
  expectNodeOfMatchesMap(proc);
  const ir::ProcedureModel model(proc);
  const FlowGraph g = FlowGraph::build(model);
  EXPECT_EQ(g.stmtOf(g.nodeOf(loop->id)), y);
  EXPECT_EQ(g.stmtOf(g.nodeOf(nestedAssign->id)), x);
}

}  // namespace
}  // namespace ps::cfg
