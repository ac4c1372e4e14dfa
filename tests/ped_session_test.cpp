#include <gtest/gtest.h>

#include "fortran/pretty.h"
#include "ped/render.h"
#include "ped/session.h"
#include "support/diagnostics.h"

namespace ps::ped {
namespace {

std::unique_ptr<Session> load(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto s = Session::load(src, diags);
  EXPECT_NE(s, nullptr);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return s;
}

const char* kTwoProcs =
    "      PROGRAM MAIN\n"
    "      REAL A(50), B(50)\n"
    "      DO I = 1, 50\n"
    "        B(I) = FLOAT(I)\n"
    "      ENDDO\n"
    "      CALL WORK(A, B, 50)\n"
    "      WRITE(6, *) A(50)\n"
    "      END\n"
    "      SUBROUTINE WORK(A, B, N)\n"
    "      REAL A(N), B(N)\n"
    "      DO 10 I = 2, N\n"
    "        T = B(I)*2.0\n"
    "        A(I) = T + A(I - 1)\n"
    "   10 CONTINUE\n"
    "      END\n";

TEST(Session, NavigationAndLoops) {
  auto s = load(kTwoProcs);
  EXPECT_EQ(s->procedureNames(),
            (std::vector<std::string>{"MAIN", "WORK"}));
  EXPECT_EQ(s->currentProcedure(), "MAIN");
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(loops[0].parallelizable);

  ASSERT_TRUE(s->selectProcedure("WORK"));
  loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_FALSE(loops[0].parallelizable);  // A(I) = ... A(I-1)
  EXPECT_TRUE(s->selectLoop(loops[0].id));
  EXPECT_FALSE(s->selectLoop(999999));
}

TEST(Session, SourcePaneShowsLoopMarkers) {
  auto s = load(kTwoProcs);
  auto rows = s->sourcePane();
  ASSERT_FALSE(rows.empty());
  int loopStarts = 0;
  for (const auto& r : rows) {
    if (r.loopStart) ++loopStarts;
  }
  EXPECT_EQ(loopStarts, 1);
  EXPECT_EQ(rows[0].ordinal, 1);
}

TEST(Session, DependencePaneProgressiveDisclosure) {
  auto s = load(kTwoProcs);
  s->selectProcedure("WORK");
  auto loops = s->loops();
  s->selectLoop(loops[0].id);
  auto deps = s->dependencePane();
  ASSERT_FALSE(deps.empty());
  bool sawTrueOnA = false;
  for (const auto& d : deps) {
    if (d.type == "True" && d.source.find("A(") == 0) sawTrueOnA = true;
  }
  EXPECT_TRUE(sawTrueOnA);
}

TEST(Session, VariablePaneClassifications) {
  auto s = load(kTwoProcs);
  s->selectProcedure("WORK");
  s->selectLoop(s->loops()[0].id);
  auto vars = s->variablePane();
  bool sawT = false, sawA = false;
  for (const auto& v : vars) {
    if (v.name == "T") {
      sawT = true;
      EXPECT_EQ(v.kind, "private");
      EXPECT_EQ(v.dim, 0);
    }
    if (v.name == "A") {
      sawA = true;
      EXPECT_EQ(v.kind, "shared");
      EXPECT_EQ(v.dim, 1);
    }
  }
  EXPECT_TRUE(sawT);
  EXPECT_TRUE(sawA);
}

TEST(Session, DependenceFiltering) {
  // A loop with both a True dep (on A) and an Anti dep (on B).
  const char* src =
      "      SUBROUTINE S(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 2, N - 1\n"
      "        A(I) = A(I - 1) + B(I + 1)\n"
      "        B(I) = A(I)*2.0\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  s->selectLoop(s->loops()[0].id);
  std::size_t all = s->dependencePane().size();
  Session::DependenceFilter f;
  f.type = dep::DepType::Anti;
  s->setDependenceFilter(f);
  std::size_t antis = s->dependencePane().size();
  EXPECT_LT(antis, all);
  EXPECT_GT(antis, 0u);
  for (const auto& row : s->dependencePane()) {
    EXPECT_EQ(row.type, "Anti");
  }
  s->clearDependenceFilter();
  EXPECT_EQ(s->dependencePane().size(), all);
  EXPECT_GE(s->usage().viewFilterUses, 1);
}

TEST(Session, SourceFilterLoopHeaders) {
  auto s = load(kTwoProcs);
  Session::SourceFilter f;
  f.loopHeadersOnly = true;
  s->setSourceFilter(f);
  auto rows = s->sourcePane();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].loopStart);
}

TEST(Session, MarkingPendingDependences) {
  const char* src =
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      DO I = 1, N\n"
      "        A(I) = A(I + K)\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loops = s->loops();
  s->selectLoop(loops[0].id);
  EXPECT_FALSE(loops[0].parallelizable);
  auto deps = s->dependencePane();
  ASSERT_FALSE(deps.empty());
  // Every pending dependence on A gets rejected with a reason (the user
  // knows K > N).
  Session::DependenceFilter f;
  f.variable = "A";
  f.mark = dep::DepMark::Pending;
  int n = s->markAllMatching(f, dep::DepMark::Rejected, "K exceeds N");
  EXPECT_GT(n, 0);
  // The loop is now parallelizable: rejected deps are disregarded.
  loops = s->loops();
  EXPECT_TRUE(loops[0].parallelizable);
  // ... but the dependences are still displayed ("they remain in the
  // system so the user can reconsider them").
  deps = s->dependencePane();
  bool sawRejected = false;
  for (const auto& d : deps) {
    if (d.mark == "rejected") {
      sawRejected = true;
      EXPECT_EQ(d.reason, "K exceeds N");
    }
  }
  EXPECT_TRUE(sawRejected);
  EXPECT_GT(s->usage().dependenceDeletions, 0);
}

TEST(Session, ProvenDependenceCannotBeRejected) {
  const char* src =
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1)\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  s->selectLoop(s->loops()[0].id);
  auto deps = s->dependencePane();
  std::uint32_t provenId = 0;
  for (const auto& d : deps) {
    if (d.mark == "proven") provenId = d.id;
  }
  ASSERT_NE(provenId, 0u);
  EXPECT_FALSE(
      s->markDependence(provenId, dep::DepMark::Rejected, "nope"));
}

TEST(Session, MarksSurviveReanalysis) {
  const char* src =
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      DO I = 1, N\n"
      "        T = A(I + K)\n"
      "        A(I) = T\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  s->selectLoop(s->loops()[0].id);
  Session::DependenceFilter f;
  f.variable = "A";
  s->markAllMatching(f, dep::DepMark::Rejected, "user knows");
  // A classification edit forces reanalysis; marks must survive.
  s->classifyVariable("T", true, "temp");
  bool stillRejected = false;
  for (const auto& d : s->dependencePane()) {
    if (d.mark == "rejected") stillRejected = true;
  }
  EXPECT_TRUE(stillRejected);
}

TEST(Session, VariableClassificationChangesGraph) {
  // Force-shared T serializes; classifying private restores parallelism.
  const char* src =
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loops = s->loops();
  s->selectLoop(loops[0].id);
  ASSERT_TRUE(s->classifyVariable("T", false, "be conservative"));
  EXPECT_FALSE(s->loops()[0].parallelizable);
  ASSERT_TRUE(s->classifyVariable("T", true, "killed every iteration"));
  EXPECT_TRUE(s->loops()[0].parallelizable);
  EXPECT_EQ(s->usage().variableClassifications, 2);
}

// ---------------------------------------------------------------------------
// Assertions end-to-end (the paper's pueblo3d and dpmin scenarios)
// ---------------------------------------------------------------------------

TEST(Assertions, ParseErrors) {
  ps::DiagnosticEngine diags;
  EXPECT_FALSE(parseAssertion("NONSENSE", diags).has_value());
  EXPECT_FALSE(parseAssertion("ASSERT STRIDED (IT)", diags).has_value());
  EXPECT_FALSE(parseAssertion("ASSERT RANGE (X)", diags).has_value());
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Assertions, RelationParses) {
  ps::DiagnosticEngine diags;
  auto a = parseAssertion("ASSERT RELATION (MCN .GT. IENDV(IR) - ISTRT(IR))",
                          diags);
  ASSERT_TRUE(a.has_value()) << diags.dump();
  EXPECT_EQ(a->kind, AssertionKind::Relation);
  ASSERT_EQ(a->facts.size(), 1u);
  EXPECT_TRUE(a->facts[0].strict);
  EXPECT_EQ(a->facts[0].expr.coefOf("MCN"), 1);
  EXPECT_EQ(a->facts[0].expr.coefOf("@IENDV(IR)"), -1);
  EXPECT_EQ(a->facts[0].expr.coefOf("@ISTRT(IR)"), 1);
}

TEST(Assertions, RangeParses) {
  ps::DiagnosticEngine diags;
  auto a = parseAssertion("ASSERT RANGE (K, 1, 100)", diags);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->facts.size(), 2u);
}

TEST(Assertions, PuebloDirectiveMakesLoopParallel) {
  // The assertion arrives as a source directive, exactly as a user would
  // write it next to the loop.
  const char* src =
      "      SUBROUTINE PUEBLO(UF, ISTRT, IENDV, MCN, IR, M, N)\n"
      "      REAL UF(10000, 5)\n"
      "      INTEGER ISTRT(N), IENDV(N)\n"
      "CPED$ ASSERT RELATION (MCN .GT. IENDV(IR) - ISTRT(IR))\n"
      "      DO I = ISTRT(IR), IENDV(IR)\n"
      "        UF(I, M) = UF(I + MCN, 3)*2.0\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(loops[0].parallelizable);
  EXPECT_EQ(s->assertions().size(), 1u);
}

TEST(Assertions, DpminAddedInteractively) {
  const char* src =
      "      SUBROUTINE DPMIN(F, IT, JT, NBA, DT1)\n"
      "      REAL F(100000)\n"
      "      INTEGER IT(NBA), JT(NBA)\n"
      "      DO 300 N = 1, NBA\n"
      "        I3 = IT(N)\n"
      "        J3 = JT(N)\n"
      "        F(I3 + 1) = F(I3 + 1) - DT1\n"
      "        F(I3 + 2) = F(I3 + 2) - DT1\n"
      "        F(J3 + 1) = F(J3 + 1) - DT1\n"
      "  300 CONTINUE\n"
      "      END\n";
  auto s = load(src);
  EXPECT_FALSE(s->loops()[0].parallelizable);
  ASSERT_TRUE(s->addAssertion("ASSERT STRIDED (IT, 3)"));
  ASSERT_TRUE(s->addAssertion("ASSERT STRIDED (JT, 3)"));
  EXPECT_FALSE(s->loops()[0].parallelizable);  // IT vs JT overlap unknown
  ASSERT_TRUE(s->addAssertion("ASSERT SEPARATED (IT, JT, 3)"));
  EXPECT_TRUE(s->loops()[0].parallelizable);
  EXPECT_EQ(s->usage().assertionsAdded, 3);
}

// ---------------------------------------------------------------------------
// Guidance & analysis access
// ---------------------------------------------------------------------------

TEST(Guidance, SafeOnlyMenuIsSmaller) {
  const char* src =
      "      SUBROUTINE S(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        T = B(I)*2.0\n"
      "        A(I) = T + A(I)\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loopId = s->loops()[0].id;
  auto full = s->guidance(loopId, /*safeOnly=*/false);
  auto safe = s->guidance(loopId, /*safeOnly=*/true);
  EXPECT_GT(full.size(), safe.size());
  EXPECT_FALSE(full.empty());
}

TEST(Guidance, SuggestsScalarExpansionForSharedTemp) {
  const char* src =
      "      SUBROUTINE S(A, N, T)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      A(1) = T\n"
      "      END\n";
  auto s = load(src);
  auto loopId = s->loops()[0].id;
  auto entries = s->guidance(loopId, false);
  bool expansion = false;
  for (const auto& e : entries) {
    if (e.transformation == "Scalar Expansion" && e.target.variable == "T" &&
        e.advice.safe) {
      expansion = true;
    }
  }
  EXPECT_TRUE(expansion);
}

TEST(Guidance, ExplainLoopNamesImpediments) {
  const char* src =
      "      SUBROUTINE S(A, N, K)\n"
      "      REAL A(2*N)\n"
      "      DO I = 1, N\n"
      "        A(I) = A(I + K)\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  std::string e = s->explainLoop(s->loops()[0].id);
  EXPECT_NE(e.find("Anti"), std::string::npos);
  EXPECT_NE(e.find("A"), std::string::npos);
  EXPECT_GT(s->usage().analysisQueries, 0);
}

TEST(Guidance, ExplainLoopReportsArrayKill) {
  // The slab2d pattern: temporary array killed every outer iteration.
  const char* src =
      "      SUBROUTINE S(A, W, N, M)\n"
      "      REAL A(N, M), W(100)\n"
      "      DO J = 1, M\n"
      "        DO I = 1, N\n"
      "          W(I) = A(I, J)*2.0\n"
      "        ENDDO\n"
      "        DO I = 1, N\n"
      "          A(I, J) = W(I) + 1.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loops = s->loops();
  // Outer loop: serialized by W, but array kill analysis finds W dead
  // across iterations.
  EXPECT_FALSE(loops[0].parallelizable);
  std::string e = s->explainLoop(loops[0].id);
  EXPECT_NE(e.find("array kill"), std::string::npos) << e;
  EXPECT_NE(e.find("W"), std::string::npos);
}

TEST(Guidance, ShowSummaryListsEffects) {
  auto s = load(kTwoProcs);
  std::string sum = s->showSummary("WORK");
  EXPECT_NE(sum.find("A:"), std::string::npos);
  EXPECT_NE(sum.find("MOD"), std::string::npos);
  EXPECT_NE(sum.find("B:"), std::string::npos);
  EXPECT_NE(sum.find("REF"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Performance estimation and profiles
// ---------------------------------------------------------------------------

TEST(Perf, HotLoopsRankNestedLoopsHigher) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(40, 40), V(40)\n"
      "      DO I = 1, 40\n"
      "        V(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO J = 1, 40\n"
      "        DO I = 1, 40\n"
      "          A(I, J) = V(I)*V(J)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(40, 40)\n"
      "      END\n";
  auto s = load(src);
  auto hot = s->hotLoops();
  ASSERT_GE(hot.size(), 3u);
  // The doubly nested J loop must rank first.
  EXPECT_NE(hot[0].headline.find("DO J"), std::string::npos);
  EXPECT_GT(hot[0].cost, hot[2].cost);
}

TEST(Perf, ProfileMatchesEstimatorRanking) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(30, 30), V(30)\n"
      "      DO I = 1, 30\n"
      "        V(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO J = 1, 30\n"
      "        DO I = 1, 30\n"
      "          A(I, J) = V(I) + V(J)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(30, 30)\n"
      "      END\n";
  auto s = load(src);
  auto hot = s->hotLoops();
  auto run = s->profile();
  ASSERT_TRUE(run.ok) << run.error;
  // The estimator's top loop must also dominate the dynamic profile:
  // summing executed-statement counts over each loop's body, the
  // statically hottest loop has the largest dynamic cost.
  auto& ws = s->workspace();
  auto dynCost = [&](fortran::StmtId loopId) {
    ir::Loop* l = ws.loopOf(loopId);
    long long total = 0;
    for (const fortran::Stmt* st : l->bodyStmts) {
      auto it = run.stmtCounts.find(st->id);
      if (it != run.stmtCounts.end()) total += it->second;
    }
    return total;
  };
  long long top = dynCost(hot[0].loop);
  for (const auto& e : hot) {
    EXPECT_LE(dynCost(e.loop), top);
  }
}

// ---------------------------------------------------------------------------
// Interface checking (Composition Editor)
// ---------------------------------------------------------------------------

TEST(Interfaces, DetectsArgCountAndTypeMismatch) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      X = 1.5\n"
      "      CALL W1(A, 10, 3)\n"
      "      CALL W2(X)\n"
      "      END\n"
      "      SUBROUTINE W1(A, N)\n"
      "      REAL A(N)\n"
      "      A(1) = 0.0\n"
      "      END\n"
      "      SUBROUTINE W2(K)\n"
      "      INTEGER K\n"
      "      K = 1\n"
      "      END\n";
  auto s = load(src);
  auto problems = s->checkInterfaces();
  ASSERT_EQ(problems.size(), 2u) << problems[0];
  EXPECT_NE(problems[0].find("passes 3 args"), std::string::npos);
  EXPECT_NE(problems[1].find("REAL"), std::string::npos);
}

TEST(Interfaces, DetectsCommonShapeMismatch) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      COMMON /BLK/ A, B\n"
      "      A = 1.0\n"
      "      CALL S\n"
      "      END\n"
      "      SUBROUTINE S\n"
      "      COMMON /BLK/ A, B, C\n"
      "      C = 2.0\n"
      "      END\n";
  auto s = load(src);
  auto problems = s->checkInterfaces();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("COMMON /BLK/"), std::string::npos);
}

TEST(Interfaces, CleanProgramHasNoProblems) {
  auto s = load(kTwoProcs);
  EXPECT_TRUE(s->checkInterfaces().empty());
}

// ---------------------------------------------------------------------------
// Transformations through the session
// ---------------------------------------------------------------------------

TEST(SessionTransform, AppliesAndCounts) {
  const char* src =
      "      SUBROUTINE S(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 1.0\n"
      "      ENDDO\n"
      "      DO I = 1, N\n"
      "        B(I) = A(I)\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 2u);
  transform::Target t;
  t.loop = loops[0].id;
  t.secondLoop = loops[1].id;
  std::string error;
  ASSERT_TRUE(s->applyTransformation("Loop Fusion", t, &error)) << error;
  EXPECT_EQ(s->loops().size(), 1u);
  EXPECT_EQ(s->usage().transformationsApplied, 1);
}

// ---------------------------------------------------------------------------
// Renderer (Figure 1)
// ---------------------------------------------------------------------------

TEST(Render, WindowShowsThreePanes) {
  auto s = load(kTwoProcs);
  s->selectProcedure("WORK");
  s->selectLoop(s->loops()[0].id);
  std::string w = renderWindow(*s);
  EXPECT_NE(w.find("ParaScope Editor"), std::string::npos);
  EXPECT_NE(w.find("dependence  variable  transform"), std::string::npos);
  EXPECT_NE(w.find("TYPE"), std::string::npos);   // dependence pane header
  EXPECT_NE(w.find("NAME"), std::string::npos);   // variable pane header
  EXPECT_NE(w.find("DO 10 I"), std::string::npos);
  EXPECT_NE(w.find("True"), std::string::npos);
  EXPECT_NE(w.find("private"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Memoized + incremental analysis plumbing
// ---------------------------------------------------------------------------

// An assertion edit changes the fact base, so every memoized test result may
// be stale. The session invalidates the memo by bumping its generation; if a
// stale entry survived, the rebuild would reuse the assumed-dependence answer
// and the loop would stay non-parallelizable.
TEST(Session, AssertionEditInvalidatesMemoAndChangesGraph) {
  const char* src =
      "      SUBROUTINE SCATTER(A, IT, N)\n"
      "      REAL A(N)\n"
      "      INTEGER IT(N)\n"
      "      DO I = 1, N\n"
      "        A(IT(I)) = A(IT(I)) + 1.0\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  EXPECT_FALSE(s->loops()[0].parallelizable);
  // The initial build ran with the shared memo: identical queries from the
  // write-write and write-read pairs of A(IT(I)) hit cache.
  EXPECT_GT(s->analysisStats().memoHits, 0);
  const auto gen0 = s->memo().generation();
  ASSERT_TRUE(s->addAssertion("ASSERT PERMUTATION (IT)"));
  EXPECT_GT(s->memo().generation(), gen0);
  EXPECT_TRUE(s->loops()[0].parallelizable);
}

// An editor change re-tests only the pairs of the edited nest; pairs in
// untouched nests splice their previous edges without issuing tests.
TEST(Session, IncrementalEditSplicesUnchangedPairs) {
  const char* src =
      "      SUBROUTINE TWO(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      DO J = 2, N\n"
      "        B(J) = B(J - 1) + 2.0\n"
      "      ENDDO\n"
      "      END\n";
  auto s = load(src);
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_FALSE(loops[0].parallelizable);
  EXPECT_FALSE(loops[1].parallelizable);

  fortran::StmtId target = fortran::kInvalidStmt;
  for (const auto& row : s->sourcePane()) {
    if (row.text.find("B(J - 1)") != std::string::npos) target = row.stmt;
  }
  ASSERT_NE(target, fortran::kInvalidStmt);

  s->resetAnalysisStats();
  ASSERT_TRUE(s->editStatement(target, "B(J) = B(J - 1)*3.0"));
  const auto& st = s->analysisStats();
  // The A-nest pairs were untouched by the edit: spliced, not re-tested.
  EXPECT_GT(st.pairsSpliced, 0);
  EXPECT_GT(st.edgesSpliced, 0);
  // The edited B pair ran its battery.
  EXPECT_GT(st.pairsTested, 0);
  loops = s->loops();
  EXPECT_FALSE(loops[0].parallelizable);
  EXPECT_FALSE(loops[1].parallelizable);

  // The A2 baseline re-tests everything. (The edit minted a fresh id for
  // the B statement, so locate it again.)
  target = fortran::kInvalidStmt;
  for (const auto& row : s->sourcePane()) {
    if (row.text.find("B(J - 1)") != std::string::npos) target = row.stmt;
  }
  ASSERT_NE(target, fortran::kInvalidStmt);
  s->setIncrementalUpdates(false);
  s->resetAnalysisStats();
  ASSERT_TRUE(s->editStatement(target, "B(J) = B(J - 1)*4.0"));
  EXPECT_EQ(s->analysisStats().pairsSpliced, 0);
  EXPECT_GT(s->analysisStats().pairsTested, 0);
}

// ---------------------------------------------------------------------------
// Transactions, invariant auditing, fault injection, degradation reporting
// ---------------------------------------------------------------------------

// Capture the graph of the WORK procedure as a stable string for identity
// comparison across rollback.
std::string graphFingerprint(Session& s) {
  std::string out;
  for (const auto& r : s.dependencePane()) {
    out += r.type + "|" + r.source + "|" + r.sink + "|" + r.vector + "|" +
           std::to_string(r.level) + "\n";
  }
  return out;
}

TEST(SessionTxn, MidApplyFaultRollsBackProgramAndGraph) {
  auto s = load(kTwoProcs);
  // MAIN's loop is dependence-free, so Loop Reversal is safe — only the
  // injected fault makes it fail.
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  ASSERT_TRUE(s->selectLoop(loops[0].id));

  std::string beforeSrc = fortran::printProgram(s->program());
  std::string beforeGraph = graphFingerprint(*s);

  s->injectFaultOnce(Fault::MidApply);
  transform::Target t;
  t.loop = loops[0].id;
  std::string error;
  EXPECT_FALSE(s->applyTransformation("Loop Reversal", t, &error));
  EXPECT_FALSE(error.empty());

  // Rollback is total: source bytes and dependence graph are identical.
  EXPECT_EQ(fortran::printProgram(s->program()), beforeSrc);
  EXPECT_EQ(graphFingerprint(*s), beforeGraph);
  ASSERT_FALSE(s->failures().empty());
  EXPECT_TRUE(s->failures().back().rolledBack);
  EXPECT_EQ(s->failures().back().operation, "Loop Reversal");
  EXPECT_EQ(s->usage().transformationsApplied, 0);
  EXPECT_TRUE(s->auditNow(true).ok());

  // The engine is not poisoned: the same transformation now succeeds.
  EXPECT_TRUE(s->applyTransformation("Loop Reversal", t, &error)) << error;
  EXPECT_EQ(s->usage().transformationsApplied, 1);
  EXPECT_TRUE(s->auditNow(true).ok());
}

TEST(SessionTxn, CorruptStateFaultIsCaughtByAuditAndRolledBack) {
  auto s = load(kTwoProcs);
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  std::string before = fortran::printProgram(s->program());

  // The apply itself succeeds; the injected corruption (duplicate statement
  // id) must be caught by the post-apply audit, which rolls everything back.
  s->injectFaultOnce(Fault::CorruptState);
  transform::Target t;
  t.loop = loops[0].id;
  std::string error;
  EXPECT_FALSE(s->applyTransformation("Loop Reversal", t, &error));
  EXPECT_NE(error.find("audit"), std::string::npos) << error;
  EXPECT_EQ(fortran::printProgram(s->program()), before);
  ASSERT_FALSE(s->failures().empty());
  EXPECT_TRUE(s->failures().back().rolledBack);
  EXPECT_TRUE(s->auditNow(true).ok());
}

TEST(SessionTxn, UnknownTransformationRecordsFailure) {
  auto s = load(kTwoProcs);
  transform::Target t;
  std::string error;
  EXPECT_FALSE(s->applyTransformation("Warp Drive", t, &error));
  ASSERT_FALSE(s->failures().empty());
  EXPECT_EQ(s->failures().back().operation, "Warp Drive");
  EXPECT_FALSE(s->failures().back().rolledBack);  // nothing was mutated
  s->clearFailures();
  EXPECT_TRUE(s->failures().empty());
}

TEST(SessionTxn, GarbageEditIsRejectedBeforeMutation) {
  auto s = load(kTwoProcs);
  ASSERT_TRUE(s->selectProcedure("WORK"));
  auto rows = s->sourcePane();
  ASSERT_FALSE(rows.empty());
  std::string before = fortran::printProgram(s->program());

  EXPECT_FALSE(s->editStatement(rows[1].stmt, ")))garbage((("));
  EXPECT_EQ(fortran::printProgram(s->program()), before);
  ASSERT_FALSE(s->failures().empty());
  EXPECT_EQ(s->failures().back().operation, "editStatement");
  EXPECT_TRUE(s->auditNow(true).ok());
}

TEST(SessionTxn, StarvedBudgetDegradesAndReports) {
  // Default budget: FM disproves the distance-50 MIV pair, nothing degrades.
  auto s = load(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, 10\n"
      "        DO J = 1, 10\n"
      "          A(I + J) = A(I + J + 50)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  (void)s->loops();
  EXPECT_TRUE(s->degradationReport().empty());

  dep::AnalysisBudget starved;
  starved.fmMaxConstraints = 1;
  starved.fmMaxEliminations = 0;
  starved.maxSubscriptNodes = 1;
  starved.maxSymbolicRelations = 0;
  s->setAnalysisBudget(starved);
  EXPECT_EQ(s->analysisBudget().fmMaxEliminations, 0);
  (void)s->loops();

  auto report = s->degradationReport();
  EXPECT_FALSE(report.empty());
  ASSERT_FALSE(report.edges.empty());
  bool onA = false;
  for (const auto& e : report.edges) {
    EXPECT_EQ(e.procedure, "S");
    if (e.variable == "A") onA = true;
  }
  EXPECT_TRUE(onA);
  std::string text = report.str();
  EXPECT_NE(text.find("degraded"), std::string::npos) << text;
  EXPECT_TRUE(s->auditNow(true).ok());

  // Restoring the default budget restores the sharp analysis.
  s->setAnalysisBudget({});
  (void)s->loops();
  EXPECT_TRUE(s->degradationReport().edges.empty());
}

TEST(SessionTxn, SnapshotRestoresUnitsAddedByExtraction) {
  // Loop Extraction pushes a new unit; a fault after it must drop the unit
  // again on rollback. Exercised indirectly: fault-injected apply on a
  // program, then procedureNames() must be unchanged.
  auto s = load(kTwoProcs);
  auto namesBefore = s->procedureNames();
  ASSERT_TRUE(s->selectProcedure("WORK"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);

  s->injectFaultOnce(Fault::CorruptState);
  transform::Target t;
  t.loop = loops[0].id;
  std::string error;
  (void)s->applyTransformation("Loop Extraction", t, &error);
  EXPECT_EQ(s->procedureNames(), namesBefore);
  EXPECT_TRUE(s->auditNow(true).ok());
}

}  // namespace
}  // namespace ps::ped
