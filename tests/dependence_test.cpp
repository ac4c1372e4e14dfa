#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "dependence/fm.h"
#include "dependence/graph.h"
#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "support/diagnostics.h"

namespace ps::dep {
namespace {

using dataflow::LinearExpr;
using fortran::Program;
using fortran::Stmt;
using fortran::StmtKind;

struct Built {
  std::unique_ptr<Program> prog;
  std::unique_ptr<ir::ProcedureModel> model;
  DependenceGraph graph;
};

Built buildGraph(std::string_view src, const AnalysisContext& ctx = {}) {
  ps::DiagnosticEngine diags;
  Built b;
  b.prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  b.model = std::make_unique<ir::ProcedureModel>(*b.prog->units[0]);
  b.graph = DependenceGraph::build(*b.model, ctx);
  return b;
}

int countDeps(const DependenceGraph& g, DepType type, bool carriedOnly) {
  int n = 0;
  for (const auto& d : g.all()) {
    if (d.type == type && (!carriedOnly || d.loopCarried())) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Fourier–Motzkin engine
// ---------------------------------------------------------------------------

LinearExpr lin(std::map<std::string, long long> coef, long long c) {
  LinearExpr e;
  for (auto& [v, k] : coef) {
    if (k != 0) e.coef[v] = k;
  }
  e.constant = c;
  return e;
}

TEST(FM, TrivialContradiction) {
  // -1 >= 0 is infeasible.
  FourierMotzkin fm({Constraint::ge0(lin({}, -1))});
  EXPECT_TRUE(fm.infeasible());
}

TEST(FM, SimpleFeasible) {
  // x >= 0, 10 - x >= 0.
  FourierMotzkin fm({Constraint::ge0(lin({{"x", 1}}, 0)),
                     Constraint::ge0(lin({{"x", -1}}, 10))});
  EXPECT_FALSE(fm.infeasible());
}

TEST(FM, BoundsConflict) {
  // x >= 5 and x <= 3.
  FourierMotzkin fm({Constraint::ge0(lin({{"x", 1}}, -5)),
                     Constraint::ge0(lin({{"x", -1}}, 3))});
  EXPECT_TRUE(fm.infeasible());
}

TEST(FM, EqualityGcdTest) {
  // 2x + 4y == 3 has no integer solution (gcd 2 does not divide 3).
  FourierMotzkin fm({Constraint::eq0(lin({{"x", 2}, {"y", 4}}, -3))});
  EXPECT_TRUE(fm.infeasible());
}

TEST(FM, EqualityGcdPasses) {
  FourierMotzkin fm({Constraint::eq0(lin({{"x", 2}, {"y", 4}}, -6))});
  EXPECT_FALSE(fm.infeasible());
}

TEST(FM, StrictInequalityInteger) {
  // x > 0 and x < 1 has no integer solution (x >= 1 and x <= 0).
  FourierMotzkin fm({Constraint::gt0(lin({{"x", 1}}, 0)),
                     Constraint::gt0(lin({{"x", -1}}, 1))});
  EXPECT_TRUE(fm.infeasible());
}

TEST(FM, TransitiveChain) {
  // x <= y, y <= z, z <= x - 1: infeasible.
  FourierMotzkin fm({
      Constraint::ge0(lin({{"y", 1}, {"x", -1}}, 0)),
      Constraint::ge0(lin({{"z", 1}, {"y", -1}}, 0)),
      Constraint::ge0(lin({{"x", 1}, {"z", -1}}, -1)),
  });
  EXPECT_TRUE(fm.infeasible());
}

TEST(FM, SymbolicCase) {
  // The pueblo3d shape: d = MCN + delta, delta in [LO-HI, HI-LO],
  // MCN - (HI - LO) >= 1, d == 0  =>  infeasible.
  FourierMotzkin fm({
      Constraint::eq0(lin({{"MCN", 1}, {"delta", 1}}, 0)),
      Constraint::ge0(lin({{"delta", 1}, {"HI", 1}, {"LO", -1}}, 0)),
      Constraint::ge0(lin({{"delta", -1}, {"HI", 1}, {"LO", -1}}, 0)),
      Constraint::gt0(lin({{"MCN", 1}, {"HI", -1}, {"LO", 1}}, 0)),
  });
  EXPECT_TRUE(fm.infeasible());
}

// ---------------------------------------------------------------------------
// Graph construction: basic loops
// ---------------------------------------------------------------------------

TEST(Graph, VectorizableLoopHasNoCarriedDeps) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = B(I) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop));
}

TEST(Graph, RecurrenceHasCarriedTrueDep) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  bool foundTrue = false;
  for (const auto* d : b.graph.parallelismInhibitors(*loop)) {
    if (d->type == DepType::True) {
      foundTrue = true;
      EXPECT_EQ(d->mark, DepMark::Proven);  // strong SIV, exact distance
      ASSERT_EQ(d->vector.dists.size(), 1u);
      ASSERT_TRUE(d->vector.dists[0].has_value());
      EXPECT_EQ(*d->vector.dists[0], 1);
    }
  }
  EXPECT_TRUE(foundTrue);
}

TEST(Graph, DistanceTwoRecurrence) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 3, N\n"
      "        A(I) = A(I - 2)\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  auto inhibitors = b.graph.parallelismInhibitors(*loop);
  ASSERT_FALSE(inhibitors.empty());
  EXPECT_EQ(*inhibitors[0]->vector.dists[0], 2);
}

TEST(Graph, DisprovenByBounds) {
  // A(I) and A(I + 100) with N <= 100: distance 100 exceeds trip count.
  auto b = buildGraph(
      "      SUBROUTINE S(A)\n"
      "      REAL A(200)\n"
      "      DO I = 1, 50\n"
      "        A(I) = A(I + 100)\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop));
}

TEST(Graph, AntiDependenceDetected) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N - 1\n"
      "        A(I) = A(I + 1)\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  EXPECT_GE(countDeps(b.graph, DepType::Anti, true), 1);
  EXPECT_EQ(countDeps(b.graph, DepType::True, true), 0);
}

TEST(Graph, OutputDependenceOnInvariantSubscript) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(K) = FLOAT(I)\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  EXPECT_GE(countDeps(b.graph, DepType::Output, true), 1);
}

TEST(Graph, LoopIndependentFlowDep) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = B(I)\n"
      "        B(I) = A(I)*2.0\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop));
  bool foundIndep = false;
  for (const auto* d : b.graph.forLoop(*loop)) {
    if (d->type == DepType::True && !d->loopCarried() &&
        d->variable == "A") {
      foundIndep = true;
    }
  }
  EXPECT_TRUE(foundIndep);
}

TEST(Graph, DefinitionInSiblingLoopIsNotForwardSubstituted) {
  // K's unique reaching definition sits in an earlier loop, outside the
  // use's nest: K holds that loop's final value, not this iteration's J,
  // so A(K) is one element on every iteration and the loop carries a
  // dependence. Substituting K = J here would call it parallel.
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO J = 1, N\n"
      "        K = J\n"
      "      ENDDO\n"
      "      DO J = 1, N\n"
      "        A(K) = A(K) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  ASSERT_EQ(b.model->topLevelLoops().size(), 2u);
  EXPECT_FALSE(b.graph.parallelizable(*b.model->topLevelLoops()[1]));
}

TEST(Graph, TwoDimensionalInterchangeCandidate) {
  // Carried dependence on the outer (J) loop only.
  auto b = buildGraph(
      "      SUBROUTINE S(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 2, M\n"
      "        DO I = 1, N\n"
      "          A(I, J) = A(I, J - 1)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  auto* outer = b.model->topLevelLoops()[0];
  auto* inner = outer->children[0];
  EXPECT_FALSE(b.graph.parallelizable(*outer));
  EXPECT_TRUE(b.graph.parallelizable(*inner));
}

TEST(Graph, SymbolicButEqualSubscriptsCancel) {
  // A(I + K) = A(I + K) + 1: K unknown but identical on both sides.
  auto b = buildGraph(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      DO I = 1, N\n"
      "        A(I + K) = A(I + K) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop));
}

TEST(Graph, UnknownSymbolicOffsetIsPending) {
  // A(I) vs A(I + K): K unknown -> assumed dependence, pending.
  auto b = buildGraph(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      DO I = 1, N\n"
      "        A(I) = A(I + K)\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  for (const auto* d : b.graph.parallelismInhibitors(*loop)) {
    EXPECT_EQ(d->mark, DepMark::Pending);
  }
}

TEST(Graph, ScalarSharedCreatesDeps) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N, ACC)\n"
      "      REAL A(N)\n"
      "      ACC = 0.0\n"
      "      DO I = 1, N\n"
      "        ACC = ACC + A(I)\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  EXPECT_GE(countDeps(b.graph, DepType::True, true), 1);
  EXPECT_GE(countDeps(b.graph, DepType::Anti, true), 1);
  EXPECT_GE(countDeps(b.graph, DepType::Output, true), 1);
}

TEST(Graph, PrivatizableScalarCreatesNoDeps) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop));
}

TEST(Graph, AblationNoPrivatizationAddsDeps) {
  AnalysisContext ctx;
  ctx.usePrivatization = false;
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      END\n",
      ctx);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
}

TEST(Graph, ClassificationOverrideRestoresParallelism) {
  // Force-share the temp, then force-private it via override.
  const char* src =
      "      SUBROUTINE S(A, N, T)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      END\n";
  // T is a parameter -> live at exit -> PrivateNeedsLastValue... the
  // classification override is what PED's variable editing exercises:
  auto plain = buildGraph(src);
  auto* loop0 = plain.model->topLevelLoops()[0];
  // Conservative classification (parameter, live at exit) still allows
  // privatization with last value; the loop should be parallelizable.
  EXPECT_TRUE(plain.graph.parallelizable(*loop0));

  AnalysisContext ctx;
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  ir::ProcedureModel model(*prog->units[0]);
  auto* loop = model.topLevelLoops()[0];
  ctx.classificationOverrides[loop->stmt->id]["T"] = false;  // force shared
  auto g = DependenceGraph::build(model, ctx);
  EXPECT_FALSE(g.parallelizable(*loop));
}

TEST(Graph, ControlDepsRecorded) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        IF (A(I) .GT. 0.0) THEN\n"
      "          A(I) = 0.0\n"
      "        ENDIF\n"
      "      ENDDO\n"
      "      END\n");
  EXPECT_GE(countDeps(b.graph, DepType::Control, false), 1);
}

// ---------------------------------------------------------------------------
// The paper's code fragments
// ---------------------------------------------------------------------------

// pueblo3d (§3.3): UF(I+MCN) vs UF(I,M) — no dependence given the assertion
// MCN > IENDV(IR) - ISTRT(IR).
const char* kPueblo =
    "      SUBROUTINE PUEBLO(UF, ISTRT, IENDV, MCN, IR, M, N)\n"
    "      REAL UF(10000, 5)\n"
    "      INTEGER ISTRT(N), IENDV(N)\n"
    "      DO I = ISTRT(IR), IENDV(IR)\n"
    "        UF(I, M) = UF(I + MCN, 3)*2.0\n"
    "      ENDDO\n"
    "      END\n";

TEST(Paper, PuebloAssumedWithoutAssertion) {
  auto b = buildGraph(kPueblo);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  for (const auto* d : b.graph.parallelismInhibitors(*loop)) {
    EXPECT_EQ(d->mark, DepMark::Pending);  // deletable by the user
  }
}

TEST(Paper, PuebloParallelWithRelationFact) {
  AnalysisContext ctx;
  // MCN - (@IENDV(IR) - @ISTRT(IR)) > 0 — the assertion from the paper,
  // in the linearizer's opaque namespace.
  LinearExpr f;
  f.coef["MCN"] = 1;
  f.coef["@IENDV(IR)"] = -1;
  f.coef["@ISTRT(IR)"] = 1;
  ctx.facts.push_back({f, /*strict=*/true});
  auto b = buildGraph(kPueblo, ctx);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop))
      << "inhibitors: " << b.graph.parallelismInhibitors(*loop).size();
}

// dpmin (§4.3): F(IT(N)+k) scatter updates through index arrays.
const char* kDpmin =
    "      SUBROUTINE DPMIN(F, IT, JT, KT, NBA, DT1, DT2)\n"
    "      REAL F(100000)\n"
    "      INTEGER IT(NBA), JT(NBA), KT(NBA)\n"
    "      DO 300 N = 1, NBA\n"
    "        I3 = IT(N)\n"
    "        J3 = JT(N)\n"
    "        F(I3 + 1) = F(I3 + 1) - DT1\n"
    "        F(I3 + 2) = F(I3 + 2) - DT2\n"
    "        F(J3 + 1) = F(J3 + 1) - DT1\n"
    "  300 CONTINUE\n"
    "      END\n";

TEST(Paper, DpminAssumedWithoutAssertions) {
  auto b = buildGraph(kDpmin);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_FALSE(b.graph.parallelizable(*loop));
}

TEST(Paper, DpminSameIterationAccessesCancel) {
  // Within one iteration, F(I3+1) vs F(I3+2) touch different elements:
  // there must be no loop-independent dependence between refs based on the
  // SAME index value with different offsets. (Cross-base pairs like
  // F(I3+1) vs F(J3+1) legitimately stay pending without assertions.)
  auto b = buildGraph(kDpmin);
  auto printed = [](const fortran::Expr& e) {
    return fortran::printExpr(e);
  };
  for (const auto& d : b.graph.all()) {
    if (d.type == DepType::Control || d.loopCarried()) continue;
    if (d.variable != "F") continue;
    ASSERT_NE(d.srcRef, nullptr);
    ASSERT_NE(d.dstRef, nullptr);
    std::string s = printed(*d.srcRef->args[0]);
    std::string t = printed(*d.dstRef->args[0]);
    bool bothI3 = s.find("I3") != std::string::npos &&
                  t.find("I3") != std::string::npos;
    if (bothI3) {
      // Same base in the same iteration: only identical offsets may
      // depend.
      EXPECT_EQ(s, t) << "spurious loop-independent dep " << s << " vs "
                      << t;
    }
  }
}

TEST(Paper, DpminParallelWithStridedAndSeparatedAssertions) {
  AnalysisContext ctx;
  ctx.indexFacts.strided["IT"] = 3;
  ctx.indexFacts.strided["JT"] = 3;
  ctx.indexFacts.separated[{"IT", "JT"}] = 3;
  auto b = buildGraph(kDpmin, ctx);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop))
      << "inhibitors: " << b.graph.parallelismInhibitors(*loop).size();
}

TEST(Paper, DpminPermutationKillsSameOffsetDeps) {
  AnalysisContext ctx;
  ctx.indexFacts.permutation.insert("IT");
  ctx.indexFacts.permutation.insert("JT");
  auto b = buildGraph(kDpmin, ctx);
  // F(I3+1) self-dependence across iterations must be gone; F(I3+1) vs
  // F(I3+2) across iterations remains pending.
  bool sameOffsetCarried = false;
  for (const auto& d : b.graph.all()) {
    if (d.variable != "F" || !d.loopCarried()) continue;
    if (d.srcRef && d.dstRef &&
        d.srcRef->args[0]->structurallyEquals(*d.dstRef->args[0])) {
      sameOffsetCarried = true;
    }
  }
  EXPECT_FALSE(sameOffsetCarried);
}

// arc3d (§4.3): symbolic relation JM = JMAX - 1 enables precise testing.
// The cross-iteration pattern WR1(JMAX, K) written, WR1(JM, K-1) read:
// with the relation, the first dimensions can never be equal (ZIV diff 1),
// so there is no dependence at all; without it, a carried dependence must
// be assumed.
const char* kArc3d =
    "      SUBROUTINE FILT(WR1, JMAX, KM)\n"
    "      REAL WR1(100, 100)\n"
    "      JM = JMAX - 1\n"
    "      DO K = 2, KM\n"
    "        WR1(JMAX, K) = WR1(JM, K - 1)\n"
    "      ENDDO\n"
    "      END\n";

TEST(Paper, Arc3dRelationSharpensAnalysis) {
  auto b = buildGraph(kArc3d);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop));
  EXPECT_EQ(countDeps(b.graph, DepType::True, true), 0);
}

TEST(Paper, Arc3dWithoutSymbolicInfoIsConservative) {
  AnalysisContext ctx;
  ctx.useSymbolicInfo = false;
  auto b = buildGraph(kArc3d, ctx);
  auto* loop = b.model->topLevelLoops()[0];
  // JM and JMAX unrelated: a carried dependence must be assumed (pending).
  EXPECT_FALSE(b.graph.parallelizable(*loop));
  for (const auto* d : b.graph.parallelismInhibitors(*loop)) {
    EXPECT_EQ(d->mark, DepMark::Pending);
  }
}

// ---------------------------------------------------------------------------
// Interprocedural effects
// ---------------------------------------------------------------------------

/// A hand-written oracle for testing the section plumbing: callee SWEEP(A,J)
/// writes exactly column J of A.
class ColumnOracle : public SideEffectOracle {
 public:
  [[nodiscard]] bool knowsCallee(const std::string& name) const override {
    return name == "SWEEP";
  }
  [[nodiscard]] std::vector<CallEffect> effectsOfCall(
      const fortran::Stmt& stmt, const std::string&) const override {
    // CALL SWEEP(A, J, N): writes A(1:N, J).
    std::vector<CallEffect> out;
    CallEffect e;
    e.var = stmt.args[0]->name;
    e.isArray = true;
    e.mayWrite = true;
    e.kills = true;
    Section s;
    s.array = e.var;
    SectionDim d1;
    d1.lo = fortran::makeIntConst(1);
    d1.hi = stmt.args[2]->clone();
    s.dims.emplace_back(std::move(d1));
    SectionDim d2;
    d2.lo = stmt.args[1]->clone();
    d2.hi = stmt.args[1]->clone();
    s.dims.emplace_back(std::move(d2));
    e.section = std::move(s);
    out.push_back(std::move(e));
    return out;
  }
};

TEST(Interproc, SectionsProveCallLoopParallel) {
  const char* src =
      "      SUBROUTINE DRIVER(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 1, M\n"
      "        CALL SWEEP(A, J, N)\n"
      "      ENDDO\n"
      "      END\n";
  // Without the oracle: assumed call-call output dependence.
  auto base = buildGraph(src);
  auto* loop0 = base.model->topLevelLoops()[0];
  EXPECT_FALSE(base.graph.parallelizable(*loop0));

  // With section summaries: each iteration writes a distinct column.
  ColumnOracle oracle;
  AnalysisContext ctx;
  ctx.oracle = &oracle;
  auto b = buildGraph(src, ctx);
  auto* loop = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*loop))
      << "inhibitors: " << b.graph.parallelismInhibitors(*loop).size();
}

TEST(Interproc, OverlappingSectionsStillDependent) {
  const char* src =
      "      SUBROUTINE DRIVER(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 1, M\n"
      "        CALL SWEEP(A, 1, N)\n"
      "      ENDDO\n"
      "      END\n";
  ColumnOracle oracle;
  AnalysisContext ctx;
  ctx.oracle = &oracle;
  auto b = buildGraph(src, ctx);
  auto* loop = b.model->topLevelLoops()[0];
  // Every iteration writes column 1: output dependence remains.
  EXPECT_FALSE(b.graph.parallelizable(*loop));
}

// ---------------------------------------------------------------------------
// Summary / stats
// ---------------------------------------------------------------------------

TEST(Graph, SummaryCountsConsistent) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1) + A(I + K)\n"
      "      ENDDO\n"
      "      END\n");
  auto s = b.graph.summary();
  EXPECT_EQ(s.totalDeps, static_cast<int>(b.graph.all().size()));
  EXPECT_GE(s.provenDeps, 1);   // A(I-1) flow dep
  EXPECT_GE(s.pendingDeps, 1);  // A(I+K) unknown
}

TEST(Graph, CheapTierStatsPopulated) {
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1)\n"
      "      ENDDO\n"
      "      END\n");
  EXPECT_GE(b.graph.stats().strongSiv, 1);
}

TEST(Graph, AblationFmOnlySkipsCheapTiers) {
  AnalysisContext ctx;
  ctx.cheapTestsFirst = false;
  auto b = buildGraph(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1)\n"
      "      ENDDO\n"
      "      END\n",
      ctx);
  EXPECT_EQ(b.graph.stats().strongSiv, 0);
  EXPECT_GE(b.graph.stats().fmRuns, 1);
}

// ---------------------------------------------------------------------------
// Direction refinement (refineInner) correctness
// ---------------------------------------------------------------------------

// The strong SIV tier skips its trip-count check when a loop bound is
// symbolic, so A(I+5) vs A(I) in DO I = 1, N is reported as an exact
// distance-5 dependence. A user fact N <= 3 lets the constrained
// Fourier–Motzkin re-tests of refineInner disprove every inner direction
// (Lt, Eq and Gt all infeasible: the distance exceeds the trip count).
// count == 0 used to fall into the conservative '*' branch, keeping a
// dependence that provably does not exist; it must retract the edge.
TEST(Graph, RefineInnerAllDirectionsDisprovedRetractsEdge) {
  const char* src =
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        DO J = 1, 10\n"
      "          A(I + 5) = A(I)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n";

  // Note: the J-carried output self-dependence of A(I+5) is real (J never
  // appears in the subscript) and must survive; only the I-carried flow
  // dependence A(I+5) -> A(I) is disproved by the fact.
  auto countFlow = [](const DependenceGraph& g) {
    int n = 0;
    for (const auto& d : g.all()) {
      if (d.variable == "A" && d.type == DepType::True) ++n;
    }
    return n;
  };

  // Without the fact the flow dependence survives (N could be huge).
  auto plain = buildGraph(src);
  EXPECT_GE(countFlow(plain.graph), 1);
  EXPECT_FALSE(plain.graph.parallelizable(*plain.model->topLevelLoops()[0]));

  AnalysisContext ctx;
  ctx.facts.push_back({lin({{"N", -1}}, 3), /*strict=*/false});  // N <= 3
  auto b = buildGraph(src, ctx);
  EXPECT_EQ(countFlow(b.graph), 0)
      << "refineInner disproved every inner direction but the edge survived";
  auto* outer = b.model->topLevelLoops()[0];
  EXPECT_TRUE(b.graph.parallelizable(*outer));
}

// ---------------------------------------------------------------------------
// Memoized testing and incremental update
// ---------------------------------------------------------------------------

const char* kRepeatedPatterns =
    "      SUBROUTINE S(A, B, N)\n"
    "      REAL A(N, N), B(N, N)\n"
    "      DO I = 2, N\n"
    "        DO J = 2, N\n"
    "          A(I, J) = A(I, J - 1)\n"
    "          B(I, J) = B(I, J - 1)\n"
    "        ENDDO\n"
    "      ENDDO\n"
    "      END\n";

// Structurally identical subscript pairs (A and B have the same shape)
// share memo entries even within one cold build.
TEST(Graph, MemoHitsOnRepeatedPatternsWithinOneBuild) {
  auto b = buildGraph(kRepeatedPatterns);
  EXPECT_GT(b.graph.stats().memoHits, 0);
  EXPECT_EQ(b.graph.stats().testsRun(),
            b.graph.stats().memoMisses);
}

// A session-shared memo answers a rebuild's tests from cache, and the
// resulting graph is identical to the cold build's.
TEST(Graph, WarmMemoRebuildMatchesColdBuild) {
  AnalysisContext ctx;
  ctx.memo = std::make_shared<DepMemo>();
  auto cold = buildGraph(kRepeatedPatterns, ctx);
  auto warm = buildGraph(kRepeatedPatterns, ctx);
  EXPECT_EQ(warm.graph.stats().memoMisses, 0);
  EXPECT_GT(warm.graph.stats().memoHits, 0);
  ASSERT_EQ(warm.graph.all().size(), cold.graph.all().size());
  for (std::size_t i = 0; i < cold.graph.all().size(); ++i) {
    const Dependence& c = cold.graph.all()[i];
    const Dependence& w = warm.graph.all()[i];
    EXPECT_EQ(c.type, w.type);
    EXPECT_EQ(c.variable, w.variable);
    EXPECT_EQ(c.level, w.level);
    EXPECT_EQ(c.vector.str(), w.vector.str());
    EXPECT_EQ(c.mark, w.mark);
  }
}

// Disabling memoization must not change results, only the counters.
TEST(Graph, MemoDisabledRunsEveryTest) {
  AnalysisContext ctx;
  ctx.useMemo = false;
  auto b = buildGraph(kRepeatedPatterns, ctx);
  EXPECT_EQ(b.graph.stats().memoHits, 0);
  EXPECT_EQ(b.graph.stats().memoMisses, 0);
  EXPECT_EQ(b.graph.stats().testsRun(), b.graph.stats().testsRequested);
  auto memoized = buildGraph(kRepeatedPatterns);
  EXPECT_EQ(b.graph.all().size(), memoized.graph.all().size());
}

// A rebuild of an unchanged procedure over the memo the first build filled
// runs zero dependence tests: the memo answers every one, and the graph is
// the first build's, edge for edge and id for id.
TEST(Graph, RebuildUnchangedAnswersEveryTestFromMemo) {
  AnalysisContext ctx;
  ctx.memo = std::make_shared<DepMemo>();
  auto b = buildGraph(kRepeatedPatterns, ctx);
  DependenceGraph g2 = DependenceGraph::build(*b.model, ctx);
  EXPECT_EQ(g2.stats().pairsTested, b.graph.stats().pairsTested);
  EXPECT_GT(g2.stats().testsRequested, 0);
  EXPECT_EQ(g2.stats().testsRun(), 0);
  EXPECT_EQ(g2.stats().memoHits, g2.stats().testsRequested);
  ASSERT_EQ(g2.all().size(), b.graph.all().size());
  for (std::size_t i = 0; i < g2.all().size(); ++i) {
    const Dependence& a = b.graph.all()[i];
    const Dependence& c = g2.all()[i];
    EXPECT_EQ(a.id, c.id);
    EXPECT_EQ(a.type, c.type);
    EXPECT_EQ(a.variable, c.variable);
    EXPECT_EQ(a.srcStmt, c.srcStmt);
    EXPECT_EQ(a.dstStmt, c.dstStmt);
    EXPECT_EQ(a.level, c.level);
    EXPECT_EQ(a.vector.str(), c.vector.str());
  }
}

// ---------------------------------------------------------------------------
// Bounded analysis: budget exhaustion must coarsen answers (degraded,
// conservative), never fabricate a disproof.
// ---------------------------------------------------------------------------

TEST(FM, EliminationBudgetExhaustionIsConservative) {
  // x >= 5 and x <= 3 is infeasible, but proving it needs one elimination.
  // With a zero elimination budget the engine must give up (degraded) and
  // report "feasible" — the conservative answer — not a wrong disproof.
  std::vector<Constraint> cs = {Constraint::ge0(lin({{"x", 1}}, -5)),
                                Constraint::ge0(lin({{"x", -1}}, 3))};
  FourierMotzkin full(cs);
  EXPECT_TRUE(full.infeasible());
  EXPECT_FALSE(full.degraded());

  FmBudget starved;
  starved.maxEliminations = 0;
  FourierMotzkin fm(cs, starved);
  EXPECT_FALSE(fm.infeasible());
  EXPECT_TRUE(fm.degraded());
}

TEST(FM, ConstraintBlowupDegradesInsteadOfAnswering) {
  // Same infeasible system, but cap the constraint set below what the
  // elimination produces: the old silent kMaxConstraints bailout is now a
  // reported degradation.
  std::vector<Constraint> cs = {Constraint::ge0(lin({{"x", 1}}, -5)),
                                Constraint::ge0(lin({{"x", -1}}, 3))};
  FmBudget starved;
  starved.maxConstraints = 0;
  FourierMotzkin fm(cs, starved);
  EXPECT_FALSE(fm.infeasible());
  EXPECT_TRUE(fm.degraded());
}

// Constraint explosion at graph level: a starved budget may only *add*
// (degraded) edges relative to the default budget — disproofs disappear,
// they are never invented.
TEST(Graph, StarvedBudgetYieldsConservativeSuperset) {
  const char* src =
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, 10\n"
      "        DO J = 1, 10\n"
      "          A(I + J) = A(I + J + 50)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n";
  auto base = buildGraph(src);

  AnalysisContext starvedCtx;
  starvedCtx.budget.fmMaxConstraints = 1;
  starvedCtx.budget.fmMaxEliminations = 0;
  starvedCtx.budget.maxSubscriptNodes = 1;
  starvedCtx.budget.maxSymbolicRelations = 0;
  auto starved = buildGraph(src, starvedCtx);

  auto key = [](const Dependence& d) {
    return std::make_tuple(d.srcStmt, d.dstStmt, d.type, d.variable, d.level);
  };
  std::set<std::tuple<fortran::StmtId, fortran::StmtId, DepType, std::string,
                      int>>
      baseKeys, starvedKeys;
  for (const auto& d : base.graph.all()) baseKeys.insert(key(d));
  for (const auto& d : starved.graph.all()) starvedKeys.insert(key(d));

  // Every edge the full analysis kept survives starvation (conservative).
  for (const auto& k : baseKeys) {
    EXPECT_TRUE(starvedKeys.count(k))
        << "starved analysis lost an edge on " << std::get<3>(k);
  }
  // Starvation added edges (the FM disproof of the distance-50 pair is
  // gone), and every added edge is flagged degraded.
  EXPECT_GT(starvedKeys.size(), baseKeys.size());
  for (const auto& d : starved.graph.all()) {
    if (!baseKeys.count(key(d))) {
      EXPECT_TRUE(d.degraded)
          << "new edge on " << d.variable << " not flagged degraded";
    }
  }
  // The exhaustion is visible in the stats and the summary.
  const TestStats& st = starved.graph.stats();
  EXPECT_GT(st.linearizeDegraded + st.fmDegraded, 0);
  EXPECT_GT(st.degradedAnswers, 0);
  EXPECT_GT(starved.graph.summary().degradedDeps, 0);
  EXPECT_EQ(base.graph.summary().degradedDeps, 0);
}

// A changed fact base is part of every memo key: the rebuild misses the
// memo the first build filled and produces the sharper graph.
TEST(Graph, RebuildWithNewFactsMissesMemo) {
  const char* src =
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        DO J = 1, 10\n"
      "          A(I + 5) = A(I)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n";
  AnalysisContext ctx;
  ctx.memo = std::make_shared<DepMemo>();
  auto b = buildGraph(src, ctx);
  auto flowOnA = [](const DependenceGraph& g) {
    int flow = 0;
    for (const auto& d : g.all()) {
      if (d.variable == "A" && d.type == DepType::True) ++flow;
    }
    return flow;
  };
  EXPECT_GT(flowOnA(b.graph), 0);
  AnalysisContext sharper = ctx;
  sharper.facts.push_back({lin({{"N", -1}}, 3), /*strict=*/false});
  DependenceGraph g2 = DependenceGraph::build(*b.model, sharper);
  EXPECT_GT(g2.stats().testsRequested, 0);
  EXPECT_EQ(g2.stats().memoHits, 0);
  EXPECT_EQ(g2.stats().testsRun(), g2.stats().testsRequested);
  EXPECT_EQ(flowOnA(g2), 0);
}

}  // namespace
}  // namespace ps::dep
