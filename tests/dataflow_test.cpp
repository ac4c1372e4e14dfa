#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cfg/control_dep.h"
#include "cfg/flow_graph.h"
#include "dataflow/constants.h"
#include "dataflow/linear.h"
#include "dataflow/liveness.h"
#include "dataflow/privatize.h"
#include "dataflow/reaching.h"
#include "dataflow/symbolic.h"
#include "dataflow/varindex.h"
#include "fortran/parser.h"
#include "ir/refs.h"
#include "interproc/summaries.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace ps::dataflow {
namespace {

using cfg::FlowGraph;
using fortran::Program;
using fortran::Stmt;
using fortran::StmtKind;

/// The first procedure of a source, with its graph, variable index and
/// analyses. The analyses point into the graph and the index, so it stays
/// where it was built.
struct Analyzed {
  explicit Analyzed(std::string_view src) {
    ps::DiagnosticEngine diags;
    prog = fortran::parseSource(src, diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    model = std::make_unique<ir::ProcedureModel>(*prog->units[0]);
    graph = FlowGraph::build(*model);
    vars = VarIndex::build(graph, *model);
    reaching = ReachingDefs::build(vars);
    liveness = Liveness::build(vars);
    constants = ConstantAnalysis::build(vars);
    cdeps = cfg::ControlDependence::build(graph);
  }
  Analyzed(const Analyzed&) = delete;
  Analyzed& operator=(const Analyzed&) = delete;

  int node(const Stmt& s) const { return graph.nodeOf(s.id); }
  int var(const std::string& name) const { return vars.idOf(name); }

  std::unique_ptr<Program> prog;
  std::unique_ptr<ir::ProcedureModel> model;
  FlowGraph graph;
  VarIndex vars;
  ReachingDefs reaching;
  Liveness liveness;
  ConstantAnalysis constants;
  cfg::ControlDependence cdeps;
};

/// The integer constants at entry to a statement.
std::map<std::string, long long> intsAt(const ConstantAnalysis& ca,
                                        const Stmt& s) {
  std::map<std::string, long long> out;
  ca.forEachIntConst(s.id, [&](const std::string& name, long long value) {
    out[name] = value;
  });
  return out;
}

// A dummy argument assigned on one path only: on the other path it keeps
// the caller's value, so N is neither the constant 5 nor defined only by
// N = 5 at the loop.
const char* kDummyAssignedOnOnePath =
    "      SUBROUTINE S(N, C, A)\n"
    "      LOGICAL C\n"
    "      REAL A(10)\n"
    "      IF (C) THEN\n"
    "        N = 5\n"
    "      ENDIF\n"
    "      DO I = 1, 4\n"
    "        A(I + N) = A(I) + 1.0\n"
    "      ENDDO\n"
    "      END\n";

// ---------------------------------------------------------------------------
// Variable index
// ---------------------------------------------------------------------------

TEST(VarIndex, NamesInOrderWithDeclarationFacts) {
  Analyzed a(
      "      SUBROUTINE S(Y, A)\n"
      "      COMMON /B/ G\n"
      "      REAL A(10)\n"
      "      T = G\n"
      "      A(1) = T\n"
      "      Y = T\n"
      "      END\n");
  const VarIndex& v = a.vars;
  ASSERT_EQ(v.size(), 4);
  EXPECT_EQ(v.name(0), "A");
  EXPECT_EQ(v.name(1), "G");
  EXPECT_EQ(v.name(2), "T");
  EXPECT_EQ(v.name(3), "Y");
  EXPECT_EQ(v.idOf("T"), 2);
  EXPECT_EQ(v.idOf("Q"), -1);
  EXPECT_TRUE(v.isArray(a.var("A")) && v.isFormal(a.var("A")));
  EXPECT_TRUE(v.inCommon(a.var("G")) && v.escapes(a.var("G")));
  EXPECT_TRUE(v.isFormal(a.var("Y")) && v.escapes(a.var("Y")));
  EXPECT_FALSE(v.isFormal(a.var("T")) || v.escapes(a.var("T")));
  EXPECT_EQ(v.commonVars(), std::vector<int>{a.var("G")});

  // T = G: the write of T, then the read of G, in collectRefs order.
  const auto refs = v.refs(a.node(*a.prog->units[0]->body[0]));
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].var, a.var("T"));
  EXPECT_EQ(refs[0].kind, ir::RefKind::Write);
  EXPECT_EQ(refs[1].var, a.var("G"));
  EXPECT_TRUE(refs[1].isRead());
  EXPECT_TRUE(v.refs(FlowGraph::kEntry).empty());
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

TEST(Reaching, StraightLineKill) {
  Analyzed a(
      "      SUBROUTINE S(Y)\n"
      "      X = 1.0\n"
      "      X = 2.0\n"
      "      Y = X\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  auto defs = a.reaching.reachingAt(body[2]->id, "X");
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(a.reaching.definitions()[defs[0]].stmt, body[1].get());
}

TEST(Reaching, BothBranchesReach) {
  Analyzed a(
      "      SUBROUTINE S(C, Y)\n"
      "      IF (C .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ELSE\n"
      "        X = 2.0\n"
      "      ENDIF\n"
      "      Y = X\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  auto defs = a.reaching.reachingAt(body[1]->id, "X");
  EXPECT_EQ(defs.size(), 2u);
}

TEST(Reaching, LoopCarriedDefReaches) {
  Analyzed a(
      "      SUBROUTINE S(Y, N)\n"
      "      X = 0.0\n"
      "      DO I = 1, N\n"
      "        Y = X\n"
      "        X = Y + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  const Stmt* use = a.prog->units[0]->body[1]->body[0].get();
  auto defs = a.reaching.reachingAt(use->id, "X");
  // Both the pre-loop def and the in-loop def reach the use.
  EXPECT_EQ(defs.size(), 2u);
}

TEST(Reaching, ArrayStoreDoesNotKill) {
  Analyzed a(
      "      SUBROUTINE S(A, Y, I)\n"
      "      REAL A(10)\n"
      "      A(1) = 1.0\n"
      "      A(I) = 2.0\n"
      "      Y = A(1)\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  auto defs = a.reaching.reachingAt(body[2]->id, "A");
  EXPECT_EQ(defs.size(), 2u);  // both stores reach
}

TEST(Reaching, UniqueReachingAssignment) {
  Analyzed a(
      "      SUBROUTINE S(JMAX, A, N)\n"
      "      REAL A(N)\n"
      "      JM = JMAX - 1\n"
      "      DO I = 1, N\n"
      "        A(I) = A(JM)\n"
      "      ENDDO\n"
      "      END\n");
  const Stmt* loop = a.prog->units[0]->body[1].get();
  const Stmt* def = nullptr;
  EXPECT_TRUE(a.reaching.uniqueReachingAssignment(loop->id, "JM", &def));
  EXPECT_EQ(def, a.prog->units[0]->body[0].get());
}

TEST(Reaching, DefUseChains) {
  Analyzed a(
      "      SUBROUTINE S(Y, Z)\n"
      "      X = 1.0\n"
      "      Y = X\n"
      "      Z = X\n"
      "      END\n");
  // The def of X reaches both uses, and is the only def that does.
  const auto& body = a.prog->units[0]->body;
  for (std::size_t use : {1, 2}) {
    auto defs = a.reaching.reachingAt(body[use]->id, "X");
    ASSERT_EQ(defs.size(), 1u) << use;
    EXPECT_EQ(a.reaching.definitions()[defs[0]].stmt, body[0].get()) << use;
  }
}

TEST(Reaching, EntryValueOfDummyOrCommonDefeatsUniqueAssignment) {
  Analyzed a(kDummyAssignedOnOnePath);
  const auto& body = a.prog->units[0]->body;
  const Stmt* loop = body[1].get();
  const Stmt* def = nullptr;
  EXPECT_FALSE(a.reaching.uniqueReachingAssignment(loop->id, "N", &def));
  // The value N brings in reaches as well, but reachingAt lists only
  // statements.
  auto defs = a.reaching.reachingAt(loop->id, "N");
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(a.reaching.definitions()[defs[0]].stmt,
            body[0]->arms[0].body[0].get());

  // The same for a COMMON member; an unconditional assignment kills the
  // entry value, so it is unique again.
  Analyzed b(
      "      SUBROUTINE S(C, A)\n"
      "      COMMON /B/ N, M\n"
      "      LOGICAL C\n"
      "      REAL A(10)\n"
      "      IF (C) THEN\n"
      "        N = 5\n"
      "      ENDIF\n"
      "      M = 5\n"
      "      DO I = 1, 4\n"
      "        A(I + N) = A(I + M) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  const Stmt* loopB = b.prog->units[0]->body[2].get();
  EXPECT_FALSE(b.reaching.uniqueReachingAssignment(loopB->id, "N", &def));
  EXPECT_TRUE(b.reaching.uniqueReachingAssignment(loopB->id, "M", &def));
  EXPECT_EQ(def, b.prog->units[0]->body[1].get());
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

TEST(Liveness, DeadAfterLastUse) {
  Analyzed a(
      "      SUBROUTINE S(Y)\n"
      "      T = 1.0\n"
      "      Y = T\n"
      "      Y = Y + 1.0\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  EXPECT_TRUE(a.liveness.liveIn(a.node(*body[1]), a.var("T")));
  // Live out of Y = T is live into its only successor.
  EXPECT_FALSE(a.liveness.liveIn(a.node(*body[2]), a.var("T")));
}

TEST(Liveness, ParamsLiveAtExit) {
  Analyzed a(
      "      SUBROUTINE S(Y)\n"
      "      Y = 1.0\n"
      "      END\n");
  EXPECT_TRUE(a.liveness.liveIn(FlowGraph::kExit, a.var("Y")));
  EXPECT_FALSE(a.liveness.liveIn(a.node(*a.prog->units[0]->body[0]),
                                 a.var("Y")));
}

TEST(Liveness, TempNotLiveAfterLoop) {
  Analyzed a(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_FALSE(a.liveness.liveAfterLoop(*loop, "T"));
  EXPECT_TRUE(a.liveness.liveAfterLoop(*loop, "A"));
  EXPECT_FALSE(a.liveness.liveAfterLoop(*loop, "NOWHERE"));
}

TEST(Liveness, ReadBeforeWriteInOneStatementKeepsScalarLive) {
  // T = T + 1.0 reads the loop's last T before it assigns T.
  Analyzed a(
      "      SUBROUTINE S(A, N, OUT)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)\n"
      "        A(I) = T*2.0\n"
      "      ENDDO\n"
      "      T = T + 1.0\n"
      "      OUT = T\n"
      "      END\n");
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_TRUE(a.liveness.liveIn(a.node(*a.prog->units[0]->body[1]),
                                a.var("T")));
  EXPECT_TRUE(a.liveness.liveAfterLoop(*loop, "T"));
  PrivatizationAnalysis pa = PrivatizationAnalysis::build(a.vars, a.liveness);
  EXPECT_EQ(pa.statusOf(*loop, "T"),
            PrivatizationStatus::PrivateNeedsLastValue);
}

TEST(Liveness, ScalarLiveAfterLoopWhenUsedLater) {
  Analyzed a(
      "      SUBROUTINE S(A, N, OUT)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)\n"
      "      ENDDO\n"
      "      OUT = T\n"
      "      END\n");
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_TRUE(a.liveness.liveAfterLoop(*loop, "T"));
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

TEST(Constants, ParameterSeedsEntry) {
  Analyzed a(
      "      SUBROUTINE S(A)\n"
      "      PARAMETER (N = 100)\n"
      "      REAL A(100)\n"
      "      A(1) = FLOAT(N)\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  const auto ints = intsAt(a.constants, *body[0]);
  ASSERT_TRUE(ints.count("N"));
  EXPECT_EQ(ints.at("N"), 100);
}

TEST(Constants, StraightLinePropagation) {
  Analyzed a(
      "      SUBROUTINE S(A)\n"
      "      REAL A(100)\n"
      "      N = 10\n"
      "      M = N*2 + 1\n"
      "      A(M) = 0.0\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  EXPECT_EQ(intsAt(a.constants, *body[2]).at("M"), 21);
  auto v = a.constants.evaluateAt(body[2]->id, *body[2]->lhs->args[0]);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->i, 21);
}

TEST(Constants, MergeOfDifferentValuesIsBottom) {
  Analyzed a(
      "      SUBROUTINE S(C, A)\n"
      "      REAL A(100)\n"
      "      IF (C .GT. 0.0) THEN\n"
      "        N = 1\n"
      "      ELSE\n"
      "        N = 2\n"
      "      ENDIF\n"
      "      A(N) = 0.0\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  EXPECT_FALSE(intsAt(a.constants, *body[1]).count("N"));
}

TEST(Constants, ReadMakesBottom) {
  Analyzed a(
      "      SUBROUTINE S(A)\n"
      "      REAL A(100)\n"
      "      N = 5\n"
      "      READ *, N\n"
      "      A(N) = 0.0\n"
      "      END\n");
  const auto& body = a.prog->units[0]->body;
  EXPECT_EQ(intsAt(a.constants, *body[1]).at("N"), 5);
  EXPECT_FALSE(intsAt(a.constants, *body[2]).count("N"));
}

TEST(Constants, InheritedInterproceduralConstants) {
  Analyzed a(
      "      SUBROUTINE S(A)\n"
      "      REAL A(100)\n"
      "      A(N) = 0.0\n"
      "      END\n");
  ConstantAnalysis ca = ConstantAnalysis::build(a.vars, {{"N", 7}});
  const auto& body = a.prog->units[0]->body;
  EXPECT_EQ(intsAt(ca, *body[0]).at("N"), 7);
}

TEST(Constants, DummyOrCommonAssignedOnOnePathIsNotConstant) {
  Analyzed a(kDummyAssignedOnOnePath);
  const Stmt* loop = a.prog->units[0]->body[1].get();
  EXPECT_FALSE(intsAt(a.constants, *loop).count("N"));
  // Even a constant every caller passes is not the value on both paths.
  ConstantAnalysis inherited = ConstantAnalysis::build(a.vars, {{"N", 1}});
  EXPECT_FALSE(intsAt(inherited, *loop).count("N"));

  Analyzed b(
      "      SUBROUTINE S(C, A)\n"
      "      COMMON /B/ N\n"
      "      LOGICAL C\n"
      "      REAL A(10)\n"
      "      IF (C) THEN\n"
      "        N = 5\n"
      "      ENDIF\n"
      "      A(N) = 0.0\n"
      "      END\n");
  EXPECT_FALSE(intsAt(b.constants, *b.prog->units[0]->body[1]).count("N"));
  // A local assigned on one path is still taken as that value: reading an
  // unassigned local is not defined Fortran.
  Analyzed c(
      "      SUBROUTINE S(C, A)\n"
      "      LOGICAL C\n"
      "      REAL A(10)\n"
      "      IF (C) THEN\n"
      "        N = 5\n"
      "      ENDIF\n"
      "      A(N) = 0.0\n"
      "      END\n");
  EXPECT_EQ(intsAt(c.constants, *c.prog->units[0]->body[1]).at("N"), 5);
}

TEST(Constants, EvaluateRelational) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(
      "      SUBROUTINE S\n      L = A .LT. 5\n      END\n", diags);
  auto v = ConstantAnalysis::evaluate(
      *prog->units[0]->body[0]->rhs, [](const std::string& name) {
        return name == "A" ? ConstVal::ofInt(3) : ConstVal::top();
      });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, ConstVal::Kind::LogicalConst);
  EXPECT_TRUE(v->b);
}

// ---------------------------------------------------------------------------
// Linear forms
// ---------------------------------------------------------------------------

fortran::ExprPtr parseExprFrom(const std::string& rhs) {
  ps::DiagnosticEngine diags;
  auto prog =
      fortran::parseSource("      SUBROUTINE S\n      X = " + rhs +
                           "\n      END\n", diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return std::move(prog->units[0]->body[0]->rhs);
}

TEST(Linear, SimpleAffine) {
  auto e = parseExprFrom("2*I + J - 3");
  LinearExpr f = linearize(*e);
  EXPECT_TRUE(f.affine);
  EXPECT_EQ(f.coefOf("I"), 2);
  EXPECT_EQ(f.coefOf("J"), 1);
  EXPECT_EQ(f.constant, -3);
}

TEST(Linear, CancellationInSubtract) {
  auto e1 = parseExprFrom("I + MCN");
  auto e2 = parseExprFrom("I");
  LinearExpr d = subtract(linearize(*e1), linearize(*e2));
  EXPECT_EQ(d.coefOf("I"), 0);
  EXPECT_EQ(d.coefOf("MCN"), 1);
}

TEST(Linear, NonlinearProduct) {
  auto e = parseExprFrom("I*J");
  LinearExpr f = linearize(*e);
  EXPECT_FALSE(f.affine);
}

TEST(Linear, ConstantFoldsThroughMul) {
  auto e = parseExprFrom("3*(I + 2)");
  LinearExpr f = linearize(*e);
  EXPECT_TRUE(f.affine);
  EXPECT_EQ(f.coefOf("I"), 3);
  EXPECT_EQ(f.constant, 6);
}

TEST(Linear, IndexArrayDetected) {
  auto e = parseExprFrom("IT(N) + 1");
  LinearExpr f = linearize(*e);
  EXPECT_FALSE(f.affine);
  EXPECT_TRUE(f.hasIndexArray);
}

TEST(Linear, SubstitutionApplied) {
  auto e = parseExprFrom("JM + 1");
  std::map<std::string, LinearExpr> sub;
  LinearExpr jm;
  jm.coef["JMAX"] = 1;
  jm.constant = -1;
  sub["JM"] = jm;
  LinearExpr f = linearize(*e, sub);
  EXPECT_EQ(f.coefOf("JMAX"), 1);
  EXPECT_EQ(f.constant, 0);
  EXPECT_EQ(f.coefOf("JM"), 0);
}

TEST(Linear, NegationAndNestedParens) {
  auto e = parseExprFrom("-(I - J)*2");
  LinearExpr f = linearize(*e);
  EXPECT_TRUE(f.affine);
  EXPECT_EQ(f.coefOf("I"), -2);
  EXPECT_EQ(f.coefOf("J"), 2);
}

// ---------------------------------------------------------------------------
// Symbolic analysis
// ---------------------------------------------------------------------------

SymbolicAnalysis buildSym(const Analyzed& a,
                          const std::vector<Relation>& inherited = {}) {
  return SymbolicAnalysis::build(a.vars, a.reaching, a.constants, a.cdeps,
                                 inherited);
}

TEST(Symbolic, DefinedInLoop) {
  Analyzed a(
      "      SUBROUTINE S(A, N, C)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)\n"
      "        A(I) = T*C\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_TRUE(sym.definedIn(*loop, "T"));
  EXPECT_TRUE(sym.definedIn(*loop, "I"));
  EXPECT_FALSE(sym.definedIn(*loop, "C"));
  EXPECT_EQ(sym.definedIn(*loop), (std::set<std::string>{"I", "T"}));
}

TEST(Symbolic, LoopInvariance) {
  Analyzed a(
      "      SUBROUTINE S(A, B, N, C)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = B(2)*C + FLOAT(I)\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  const Stmt* assign = loop->bodyStmts[0];
  const fortran::Expr& rhs = *assign->rhs;
  // B(2)*C is invariant (B not written in loop); FLOAT(I) is not.
  EXPECT_TRUE(sym.isLoopInvariant(*rhs.lhs, *loop));
  EXPECT_FALSE(sym.isLoopInvariant(rhs, *loop));
}

TEST(Symbolic, ArrayWrittenInLoopNotInvariant) {
  Analyzed a(
      "      SUBROUTINE S(A, N, C)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = A(2)*C\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  const fortran::Expr& rhs = *loop->bodyStmts[0]->rhs;
  EXPECT_FALSE(sym.isLoopInvariant(*rhs.lhs, *loop));  // A(2): A is written
}

TEST(Symbolic, AuxInductionRecognized) {
  Analyzed a(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      K = 0\n"
      "      DO I = 1, N\n"
      "        K = K + 2\n"
      "        A(K) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  auto aux = sym.auxInductionsOf(*loop);
  ASSERT_EQ(aux.size(), 1u);
  EXPECT_EQ(aux[0].name, "K");
  EXPECT_EQ(aux[0].stride, 2);
}

TEST(Symbolic, ConditionalIncrementNotAuxIV) {
  Analyzed a(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      DO I = 1, N\n"
      "        IF (A(I) .GT. 0.0) THEN\n"
      "          K = K + 1\n"
      "        ENDIF\n"
      "        A(I) = FLOAT(K)\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_TRUE(sym.auxInductionsOf(*loop).empty());
}

TEST(Symbolic, RelationFromUniqueReachingDef) {
  Analyzed a(
      "      SUBROUTINE S(A, JMAX, N)\n"
      "      REAL A(N)\n"
      "      JM = JMAX - 1\n"
      "      DO I = 1, N\n"
      "        A(I) = A(JM)\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  auto rels = sym.relationsAt(*loop);
  bool found = false;
  for (const auto& r : rels) {
    if (r.name == "JM") {
      found = true;
      EXPECT_EQ(r.value.coefOf("JMAX"), 1);
      EXPECT_EQ(r.value.constant, -1);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Symbolic, SubstitutionRewritesAuxIV) {
  Analyzed a(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      K = 0\n"
      "      DO I = 1, N\n"
      "        K = K + 2\n"
      "        A(K) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  auto sym = buildSym(a);
  auto* loop = a.model->topLevelLoops()[0];
  const Stmt* store = loop->bodyStmts[1];
  auto sub = sym.substitutionFor(*loop, *store);
  ASSERT_TRUE(sub.count("K"));
  // K at the store = 2*I + K@pre + ... with coefficient on I equal to the
  // stride.
  EXPECT_EQ(sub["K"].coefOf("I"), 2);
}

// ---------------------------------------------------------------------------
// Privatization (scalar kills)
// ---------------------------------------------------------------------------

PrivatizationAnalysis buildPriv(const Analyzed& a) {
  return PrivatizationAnalysis::build(a.vars, a.liveness);
}

TEST(Privatize, KilledTempIsPrivate) {
  Analyzed a(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_EQ(pa.statusOf(*loop, "T"), PrivatizationStatus::Private);
}

TEST(Privatize, UpwardExposedIsShared) {
  Analyzed a(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      ACC = 0.0\n"
      "      DO I = 1, N\n"
      "        ACC = ACC + A(I)\n"
      "      ENDDO\n"
      "      A(1) = ACC\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_EQ(pa.statusOf(*loop, "ACC"), PrivatizationStatus::Shared);
}

TEST(Privatize, ConditionallyKilledIsShared) {
  // T is written only on one branch, read unconditionally afterwards: the
  // read is upward exposed along the non-writing path.
  Analyzed a(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        IF (A(I) .GT. 0.0) THEN\n"
      "          T = A(I)\n"
      "        ENDIF\n"
      "        A(I) = T\n"
      "      ENDDO\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_EQ(pa.statusOf(*loop, "T"), PrivatizationStatus::Shared);
}

TEST(Privatize, LastValueNeededWhenLiveAfter) {
  Analyzed a(
      "      SUBROUTINE S(A, N, OUT)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)\n"
      "        A(I) = T*2.0\n"
      "      ENDDO\n"
      "      OUT = T\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_EQ(pa.statusOf(*loop, "T"),
            PrivatizationStatus::PrivateNeedsLastValue);
}

TEST(Privatize, ReadOnlyIsShared) {
  Analyzed a(
      "      SUBROUTINE S(A, N, C)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = C\n"
      "      ENDDO\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* loop = a.model->topLevelLoops()[0];
  EXPECT_EQ(pa.statusOf(*loop, "C"), PrivatizationStatus::Shared);
  auto cls = pa.classesFor(*loop);
  for (const auto& vc : cls) {
    if (vc.name == "C") {
      EXPECT_FALSE(vc.writtenInLoop);
      EXPECT_TRUE(vc.readInLoop);
    }
  }
}

TEST(Privatize, InnerLoopScalar) {
  // T killed in the inner loop every outer iteration: private w.r.t. the
  // outer loop too.
  Analyzed a(
      "      SUBROUTINE S(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 1, M\n"
      "        DO I = 1, N\n"
      "          T = A(I, J)\n"
      "          A(I, J) = T*T\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* outer = a.model->topLevelLoops()[0];
  EXPECT_EQ(pa.statusOf(*outer, "T"), PrivatizationStatus::Private);
}

TEST(Privatize, InductionVarOfInnerLoopIsNotShared) {
  Analyzed a(
      "      SUBROUTINE S(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 1, M\n"
      "        DO I = 1, N\n"
      "          A(I, J) = 0.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  auto pa = buildPriv(a);
  auto* outer = a.model->topLevelLoops()[0];
  // I is killed by the inner DO header each outer iteration.
  EXPECT_NE(pa.statusOf(*outer, "I"), PrivatizationStatus::Shared);
}

// ---------------------------------------------------------------------------
// The dense analyses against the string-keyed ones they replaced
// ---------------------------------------------------------------------------

/// The former liveness: one set of names per node, recomputed by copying
/// sets until nothing changes. A statement's reads precede its writes.
struct ReferenceLiveness {
  ReferenceLiveness(const FlowGraph& g, const ir::ProcedureModel& model)
      : graph(g) {
    const auto n = static_cast<std::size_t>(g.numNodes());
    in.assign(n, {});
    std::vector<std::set<std::string>> out(n), use(n), def(n);
    const fortran::Procedure& proc = model.procedure();
    for (const Stmt* s : model.allStmts()) {
      const auto un = static_cast<std::size_t>(g.nodeOf(s->id));
      for (const ir::Ref& r : ir::collectRefs(*s)) {
        const fortran::VarDecl* d = proc.findDecl(r.name);
        const bool isScalar = !d || !d->isArray();
        if (r.isRead()) use[un].insert(r.name);
        if (r.isWrite() && isScalar && r.kind != ir::RefKind::CallActual) {
          def[un].insert(r.name);
        }
      }
    }
    for (const auto& d : proc.decls) {
      if (proc.isParam(d.name) || !d.commonBlock.empty()) {
        in[FlowGraph::kExit].insert(d.name);
      }
    }
    if (proc.kind == fortran::ProcKind::Function) {
      in[FlowGraph::kExit].insert(proc.name);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (int node : g.reversePostOrderOfReverse()) {
        if (node == FlowGraph::kExit) continue;
        const auto un = static_cast<std::size_t>(node);
        std::set<std::string> o;
        for (int s : g.successors(node)) {
          o.insert(in[static_cast<std::size_t>(s)].begin(),
                   in[static_cast<std::size_t>(s)].end());
        }
        std::set<std::string> i = use[un];
        for (const auto& v : o) {
          if (!def[un].count(v)) i.insert(v);
        }
        if (o != out[un] || i != in[un]) {
          out[un] = std::move(o);
          in[un] = std::move(i);
          changed = true;
        }
      }
    }
  }

  bool liveAfterLoop(const ir::Loop& loop, const std::string& name) const {
    const int doNode = graph.nodeOf(loop.stmt->id);
    for (int s : graph.successors(doNode)) {
      const Stmt* st = graph.stmtOf(s);
      const bool inBody =
          st && std::find(loop.bodyStmts.begin(), loop.bodyStmts.end(), st) !=
                    loop.bodyStmts.end();
      if (!inBody && in[static_cast<std::size_t>(s)].count(name)) return true;
    }
    return false;
  }

  const FlowGraph& graph;
  std::vector<std::set<std::string>> in;
};

/// The former constant propagation: one map of names per node, copied by
/// every transfer; a name absent from a map is Top. Dummy arguments and
/// COMMON members enter as Bottom unless inherited as constants.
std::vector<std::map<std::string, ConstVal>> referenceConstants(
    const FlowGraph& g, const ir::ProcedureModel& model,
    const std::map<std::string, long long>& inherited) {
  using Env = std::map<std::string, ConstVal>;
  auto eval = [](const fortran::Expr& e, const Env& env) {
    return ConstantAnalysis::evaluate(e, [&](const std::string& name) {
      auto it = env.find(name);
      return it == env.end() ? ConstVal::top() : it->second;
    });
  };
  const fortran::Procedure& proc = model.procedure();
  Env entry;
  for (const std::string& p : proc.params) entry[p] = ConstVal::bottom();
  for (const auto& d : proc.decls) {
    if (!d.commonBlock.empty()) entry[d.name] = ConstVal::bottom();
  }
  for (const auto& [name, v] : inherited) entry[name] = ConstVal::ofInt(v);
  for (const auto& d : proc.decls) {
    if (d.isParameter && d.parameterValue) {
      if (auto v = eval(*d.parameterValue, entry)) entry[d.name] = *v;
    }
  }
  auto transfer = [&](const Stmt* s, Env env) {
    if (!s) return env;
    switch (s->kind) {
      case StmtKind::Assign:
        if (s->lhs->kind == fortran::ExprKind::VarRef) {
          auto v = eval(*s->rhs, env);
          env[s->lhs->name] = v ? *v : ConstVal::bottom();
        }
        break;
      case StmtKind::Do:
        env[s->doVar] = ConstVal::bottom();
        break;
      case StmtKind::Read:
        for (const auto& item : s->args) {
          if (item->kind == fortran::ExprKind::VarRef) {
            env[item->name] = ConstVal::bottom();
          }
        }
        break;
      case StmtKind::Call:
        for (const auto& arg : s->args) {
          if (arg->kind == fortran::ExprKind::VarRef) {
            env[arg->name] = ConstVal::bottom();
          }
        }
        for (const auto& d : proc.decls) {
          if (!d.commonBlock.empty()) env[d.name] = ConstVal::bottom();
        }
        break;
      default:
        break;
    }
    return env;
  };
  const auto n = static_cast<std::size_t>(g.numNodes());
  std::vector<Env> in(n), out(n);
  in[FlowGraph::kEntry] = out[FlowGraph::kEntry] = entry;
  bool changed = true;
  for (int iteration = 0; changed && iteration < 100; ++iteration) {
    changed = false;
    for (int node : g.reversePostOrder()) {
      if (node == FlowGraph::kEntry) continue;
      const auto un = static_cast<std::size_t>(node);
      Env newIn;
      bool first = true;
      for (int p : g.predecessors(node)) {
        const Env& po = out[static_cast<std::size_t>(p)];
        if (first) {
          newIn = po;
          first = false;
          continue;
        }
        for (const auto& [name, val] : po) {
          auto it = newIn.find(name);
          if (it == newIn.end()) {
            newIn[name] = val;
          } else {
            it->second = it->second.meet(val);
          }
        }
      }
      if (newIn != in[un]) {
        in[un] = newIn;
        changed = true;
      }
      Env newOut = transfer(g.stmtOf(node), in[un]);
      if (newOut != out[un]) {
        out[un] = std::move(newOut);
        changed = true;
      }
    }
  }
  return in;
}

TEST(DenseDataflow, MatchesTheStringKeyedAnalysesOnEveryDeck) {
  long long liveQueries = 0, constantsSeen = 0;
  for (const workloads::Workload& w : workloads::all()) {
    ps::DiagnosticEngine diags;
    auto prog = fortran::parseSource(w.source, diags);
    ASSERT_FALSE(diags.hasErrors()) << w.name;
    interproc::SummaryBuilder summaries(*prog);
    for (const auto& unit : prog->units) {
      const std::string where = w.name + "/" + unit->name;
      const ir::ProcedureModel model(*unit);
      const FlowGraph g = FlowGraph::build(model);
      const VarIndex vars = VarIndex::build(g, model);
      const auto inherited = summaries.inheritedConstantsFor(*unit);
      const Liveness lv = Liveness::build(vars);
      const ConstantAnalysis ca = ConstantAnalysis::build(vars, inherited);
      const ReferenceLiveness refLv(g, model);
      const auto refConsts = referenceConstants(g, model, inherited);

      for (int node = 0; node < g.numNodes(); ++node) {
        std::set<std::string> live;
        for (int v = 0; v < vars.size(); ++v) {
          if (lv.liveIn(node, v)) live.insert(vars.name(v));
        }
        EXPECT_EQ(live, refLv.in[static_cast<std::size_t>(node)])
            << where << " node " << node;
      }
      for (const auto& loop : model.loops()) {
        for (int v = 0; v <= vars.size(); ++v) {
          const std::string name = v < vars.size() ? vars.name(v) : "NO$NAME";
          EXPECT_EQ(lv.liveAfterLoop(*loop, name),
                    refLv.liveAfterLoop(*loop, name))
              << where << " loop " << loop->stmt->id << " " << name;
          ++liveQueries;
        }
      }
      for (const Stmt* s : model.allStmts()) {
        std::map<std::string, long long> want;
        for (const auto& [name, val] :
             refConsts[static_cast<std::size_t>(g.nodeOf(s->id))]) {
          if (val.kind == ConstVal::Kind::IntConst) want[name] = val.i;
        }
        EXPECT_EQ(intsAt(ca, *s), want) << where << " stmt " << s->id;
        constantsSeen += static_cast<long long>(want.size());
      }
    }
  }
  // The decks exercise both analyses, not just their empty cases.
  EXPECT_GT(liveQueries, 500);
  EXPECT_GT(constantsSeen, 200);
}

}  // namespace
}  // namespace ps::dataflow
