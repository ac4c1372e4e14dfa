#include <gtest/gtest.h>

#include "dependence/graph.h"
#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "interproc/callgraph.h"
#include "interproc/summaries.h"
#include "support/diagnostics.h"

namespace ps::interproc {
namespace {

using fortran::Program;

std::unique_ptr<Program> parse(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return prog;
}

// ---------------------------------------------------------------------------
// Call graph
// ---------------------------------------------------------------------------

const char* kThreeLevel =
    "      PROGRAM MAIN\n"
    "      REAL A(100)\n"
    "      CALL MID(A, 100)\n"
    "      END\n"
    "      SUBROUTINE MID(A, N)\n"
    "      REAL A(N)\n"
    "      CALL LEAF(A, N)\n"
    "      X = HELPER(N)\n"
    "      END\n"
    "      SUBROUTINE LEAF(A, N)\n"
    "      REAL A(N)\n"
    "      DO I = 1, N\n"
    "        A(I) = 0.0\n"
    "      ENDDO\n"
    "      END\n"
    "      REAL FUNCTION HELPER(N)\n"
    "      HELPER = FLOAT(N)\n"
    "      END\n";

TEST(CallGraph, EdgesAndOrder) {
  auto prog = parse(kThreeLevel);
  CallGraph cg = CallGraph::build(*prog);
  EXPECT_EQ(cg.callsFrom("MAIN").size(), 1u);
  EXPECT_EQ(cg.callsFrom("MID").size(), 2u);
  EXPECT_EQ(cg.callsTo("LEAF").size(), 1u);
  EXPECT_TRUE(cg.unresolved().empty());
  // Bottom-up: LEAF and HELPER before MID before MAIN.
  auto order = cg.bottomUpOrder();
  auto pos = [&](const std::string& n) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == n) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos("LEAF"), pos("MID"));
  EXPECT_LT(pos("HELPER"), pos("MID"));
  EXPECT_LT(pos("MID"), pos("MAIN"));
  EXPECT_TRUE(cg.recursive().empty());
}

TEST(CallGraph, RecursionDetected) {
  auto prog = parse(
      "      SUBROUTINE REC(N)\n"
      "      IF (N .GT. 0) THEN\n"
      "        CALL REC(N - 1)\n"
      "      ENDIF\n"
      "      END\n");
  CallGraph cg = CallGraph::build(*prog);
  ASSERT_EQ(cg.recursive().size(), 1u);
  EXPECT_EQ(cg.recursive()[0], "REC");
}

TEST(CallGraph, UnresolvedLibraryCalls) {
  auto prog = parse(
      "      SUBROUTINE S(X)\n"
      "      CALL LIBFN(X)\n"
      "      END\n");
  CallGraph cg = CallGraph::build(*prog);
  ASSERT_EQ(cg.unresolved().size(), 1u);
  EXPECT_EQ(cg.unresolved()[0], "LIBFN");
}

/// Site-for-site equality (caller, callee, statement pointer) plus the
/// derived orders.
void expectSameGraph(const CallGraph& got, const CallGraph& want) {
  ASSERT_EQ(got.callSites().size(), want.callSites().size());
  for (std::size_t i = 0; i < want.callSites().size(); ++i) {
    EXPECT_EQ(got.callSites()[i].caller, want.callSites()[i].caller) << i;
    EXPECT_EQ(got.callSites()[i].callee, want.callSites()[i].callee) << i;
    EXPECT_EQ(got.callSites()[i].stmt, want.callSites()[i].stmt) << i;
  }
  EXPECT_EQ(got.bottomUpOrder(), want.bottomUpOrder());
  EXPECT_EQ(got.recursive(), want.recursive());
  EXPECT_EQ(got.unresolved(), want.unresolved());
}

const char* kInterleaved =
    "      PROGRAM MAIN\n"
    "      CALL B\n"
    "      CALL A\n"
    "      X = F(1.0) + G(2.0)\n"
    "      CALL B\n"
    "      END\n"
    "      SUBROUTINE A\n"
    "      CALL B\n"
    "      Y = F(3.0)\n"
    "      END\n"
    "      SUBROUTINE B\n"
    "      END\n"
    "      REAL FUNCTION F(X)\n"
    "      F = X\n"
    "      END\n"
    "      REAL FUNCTION G(X)\n"
    "      G = X\n"
    "      END\n";

TEST(CallGraph, IndexedLookupsReturnSitesInProgramOrder) {
  auto prog = parse(kInterleaved);
  CallGraph cg = CallGraph::build(*prog);
  ASSERT_EQ(cg.callSites().size(), 7u);
  // The indexed lookups answer exactly what a scan of every site would.
  for (const std::string name : {"MAIN", "A", "B", "F", "G", "NONE"}) {
    std::vector<const CallSite*> from, to;
    for (const CallSite& s : cg.callSites()) {
      if (s.caller == name) from.push_back(&s);
      if (s.callee == name) to.push_back(&s);
    }
    EXPECT_EQ(cg.callsFrom(name), from) << name;
    EXPECT_EQ(cg.callsTo(name), to) << name;
  }
  EXPECT_EQ(cg.callsTo("B").size(), 3u);
  EXPECT_EQ(cg.textual(), "A: B F\nMAIN: B A F G B\n");
}

TEST(CallGraph, RefreshRepointsSitesAtReplacedStatements) {
  auto prog = parse(kInterleaved);
  CallGraph cg = CallGraph::build(*prog);
  fortran::Procedure* main = prog->findUnit("MAIN");
  // Copies carry the same callees at new addresses; the originals are freed.
  main->body[1] = main->body[1]->clone();
  main->body[2] = main->body[2]->clone();
  EXPECT_TRUE(cg.refreshCaller(*main));
  expectSameGraph(cg, CallGraph::build(*prog));
}

TEST(CallGraph, RefreshWithMovedCalleesLeavesGraphUntouched) {
  auto prog = parse(kInterleaved);
  CallGraph cg = CallGraph::build(*prog);
  const std::vector<CallSite> before = cg.callSites();
  auto expectUntouched = [&] {
    ASSERT_EQ(cg.callSites().size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(cg.callSites()[i].caller, before[i].caller) << i;
      EXPECT_EQ(cg.callSites()[i].callee, before[i].callee) << i;
      EXPECT_EQ(cg.callSites()[i].stmt, before[i].stmt) << i;
    }
  };
  fortran::Procedure* main = prog->findUnit("MAIN");
  std::swap(main->body[0], main->body[1]);  // CALL A now precedes CALL B
  EXPECT_FALSE(cg.refreshCaller(*main));
  expectUntouched();
  std::swap(main->body[0], main->body[1]);
  main->body.push_back(main->body[0]->clone());  // one more CALL B
  EXPECT_FALSE(cg.refreshCaller(*main));
  expectUntouched();
}

// ---------------------------------------------------------------------------
// MOD/REF/KILL
// ---------------------------------------------------------------------------

TEST(Summaries, ModRefBasics) {
  auto prog = parse(
      "      SUBROUTINE S(A, B, N, OUT)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = B(I)\n"
      "      ENDDO\n"
      "      OUT = B(1)\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const ProcSummary* s = sb.summaryOf("S");
  ASSERT_NE(s, nullptr);
  const VarEffect* a = s->effectOn("A");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->mayWrite);
  EXPECT_FALSE(a->mayRead);
  const VarEffect* bEff = s->effectOn("B");
  ASSERT_NE(bEff, nullptr);
  EXPECT_TRUE(bEff->mayRead);
  EXPECT_FALSE(bEff->mayWrite);
  const VarEffect* out = s->effectOn("OUT");
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->mayWrite);
  EXPECT_TRUE(out->kills);  // unconditional assignment
}

TEST(Summaries, KillIsFlowSensitive) {
  auto prog = parse(
      "      SUBROUTINE S(X, C)\n"
      "      IF (C .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ENDIF\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* x = sb.summaryOf("S")->effectOn("X");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->mayWrite);
  EXPECT_FALSE(x->kills);  // only written on one path
}

TEST(Summaries, KillBothBranches) {
  auto prog = parse(
      "      SUBROUTINE S(X, C)\n"
      "      IF (C .GT. 0.0) THEN\n"
      "        X = 1.0\n"
      "      ELSE\n"
      "        X = 2.0\n"
      "      ENDIF\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  EXPECT_TRUE(sb.summaryOf("S")->effectOn("X")->kills);
}

TEST(Summaries, InterproceduralScalarKill) {
  // The nxsns pattern: a scalar killed inside a procedure called in a loop.
  auto prog = parse(
      "      SUBROUTINE OUTER(A, N, T)\n"
      "      REAL A(N)\n"
      "      CALL SETT(T, A(1))\n"
      "      END\n"
      "      SUBROUTINE SETT(T, V)\n"
      "      T = V*2.0\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* t = sb.summaryOf("OUTER")->effectOn("T");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->mayWrite);
  EXPECT_TRUE(t->kills);  // the call is unconditional and SETT kills T
}

TEST(Summaries, CommonEffectsPropagate) {
  auto prog = parse(
      "      SUBROUTINE TOP\n"
      "      COMMON /BLK/ Q\n"
      "      CALL BOT\n"
      "      END\n"
      "      SUBROUTINE BOT\n"
      "      COMMON /BLK/ Q\n"
      "      Q = 1.0\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* q = sb.summaryOf("TOP")->effectOn("Q");
  ASSERT_NE(q, nullptr);
  EXPECT_TRUE(q->mayWrite);
}

// ---------------------------------------------------------------------------
// Regular sections
// ---------------------------------------------------------------------------

TEST(Sections, WholeArrayLoop) {
  auto prog = parse(
      "      SUBROUTINE FILL(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* a = sb.summaryOf("FILL")->effectOn("A");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->writeSection.has_value());
  ASSERT_EQ(a->writeSection->dims.size(), 1u);
  ASSERT_TRUE(a->writeSection->dims[0].has_value());
  EXPECT_EQ(a->writeSection->dims[0]->str(), "1:N");
  EXPECT_TRUE(a->kills);  // covers the declared extent A(N)
}

TEST(Sections, SingleColumn) {
  auto prog = parse(
      "      SUBROUTINE COL(A, N, M, J)\n"
      "      REAL A(N, M)\n"
      "      DO I = 1, N\n"
      "        A(I, J) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* a = sb.summaryOf("COL")->effectOn("A");
  ASSERT_TRUE(a->writeSection.has_value());
  ASSERT_EQ(a->writeSection->dims.size(), 2u);
  EXPECT_EQ(a->writeSection->dims[0]->str(), "1:N");
  EXPECT_EQ(a->writeSection->dims[1]->str(), "J");
  EXPECT_FALSE(a->kills);  // only one column
}

TEST(Sections, TranslatedThroughCallChain) {
  // MID calls LEAF(A, N): LEAF writes A(1:N); MID's summary must show the
  // same section after translation.
  auto prog = parse(kThreeLevel);
  SummaryBuilder sb(*prog);
  const VarEffect* a = sb.summaryOf("MID")->effectOn("A");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->mayWrite);
  ASSERT_TRUE(a->writeSection.has_value());
  ASSERT_TRUE(a->writeSection->dims[0].has_value());
  EXPECT_EQ(a->writeSection->dims[0]->str(), "1:N");
}

TEST(Sections, WidenedOverCallersLoop) {
  // Caller invokes COL(A, N, M, J) inside DO J: the summary of CALLER must
  // widen the second dimension over J's range.
  auto prog = parse(
      "      SUBROUTINE CALLER(A, N, M)\n"
      "      REAL A(N, M)\n"
      "      DO J = 1, M\n"
      "        CALL COL(A, N, M, J)\n"
      "      ENDDO\n"
      "      END\n"
      "      SUBROUTINE COL(A, N, M, J)\n"
      "      REAL A(N, M)\n"
      "      DO I = 1, N\n"
      "        A(I, J) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* a = sb.summaryOf("CALLER")->effectOn("A");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->writeSection.has_value());
  ASSERT_TRUE(a->writeSection->dims[1].has_value());
  EXPECT_EQ(a->writeSection->dims[1]->str(), "1:M");
  EXPECT_TRUE(a->kills);  // full A(N, M) covered
}

// ---------------------------------------------------------------------------
// Interprocedural constants and relations
// ---------------------------------------------------------------------------

TEST(Globals, FormalConstantFromCallSites) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(100)\n"
      "      CALL WORK(A, 64)\n"
      "      CALL WORK(A, 64)\n"
      "      END\n"
      "      SUBROUTINE WORK(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  auto consts = sb.inheritedConstantsFor(*prog->findUnit("WORK"));
  ASSERT_TRUE(consts.count("N"));
  EXPECT_EQ(consts["N"], 64);
}

TEST(Globals, DifferentCallSiteValuesGiveNoConstant) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(100)\n"
      "      CALL WORK(A, 64)\n"
      "      CALL WORK(A, 32)\n"
      "      END\n"
      "      SUBROUTINE WORK(A, N)\n"
      "      REAL A(N)\n"
      "      A(1) = 0.0\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  EXPECT_FALSE(sb.inheritedConstantsFor(*prog->findUnit("WORK")).count("N"));
}

TEST(Globals, CommonConstantFromInit) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      COMMON /DIMS/ JMAX\n"
      "      JMAX = 50\n"
      "      CALL WORK\n"
      "      END\n"
      "      SUBROUTINE WORK\n"
      "      COMMON /DIMS/ JMAX\n"
      "      X = FLOAT(JMAX)\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  auto consts = sb.inheritedConstantsFor(*prog->findUnit("WORK"));
  ASSERT_TRUE(consts.count("JMAX"));
  EXPECT_EQ(consts["JMAX"], 50);
}

TEST(Globals, Arc3dRelationThroughCommon) {
  // JM = JMAX - 1 established once in the init routine, used in FILT.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      COMMON /DIMS/ JM, JMAX\n"
      "      READ *, JMAX\n"
      "      JM = JMAX - 1\n"
      "      CALL FILT\n"
      "      END\n"
      "      SUBROUTINE FILT\n"
      "      COMMON /DIMS/ JM, JMAX\n"
      "      REAL WR1(100, 100)\n"
      "      DO K = 2, 99\n"
      "        WR1(JMAX, K) = WR1(JM, K - 1)\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  auto rels = sb.inheritedRelationsFor(*prog->findUnit("FILT"));
  bool found = false;
  for (const auto& r : rels) {
    if (r.name == "JM") {
      found = true;
      EXPECT_EQ(r.value.coefOf("JMAX"), 1);
      EXPECT_EQ(r.value.constant, -1);
    }
  }
  ASSERT_TRUE(found);

  // End-to-end: the relation disproves the carried dependence in FILT.
  fortran::Procedure* filt = prog->findUnit("FILT");
  ir::ProcedureModel model(*filt);
  dep::AnalysisContext ctx;
  ctx.inheritedRelations = rels;
  auto g = dep::DependenceGraph::build(model, ctx);
  EXPECT_TRUE(g.parallelizable(*model.topLevelLoops()[0]));

  // And without the interprocedural relation, the dependence is assumed.
  dep::AnalysisContext bare;
  ir::ProcedureModel model2(*filt);
  auto g2 = dep::DependenceGraph::build(model2, bare);
  EXPECT_FALSE(g2.parallelizable(*model2.topLevelLoops()[0]));
}

// ---------------------------------------------------------------------------
// Incremental summary update: what applyEdit reports
// ---------------------------------------------------------------------------

const char* kCallLiterals =
    "      PROGRAM MAIN\n"
    "      COMMON /C/ N\n"
    "      N = 100\n"
    "      DO I = 1, 4\n"
    "        CALL R(I, 5)\n"
    "      ENDDO\n"
    "      CALL Q(N)\n"
    "      END\n"
    "      SUBROUTINE R(K, M)\n"
    "      COMMON /C/ N\n"
    "      REAL A(100)\n"
    "      A(K) = M + N\n"
    "      END\n"
    "      SUBROUTINE Q(L)\n"
    "      X = L\n"
    "      END\n";

/// MAIN's `CALL R(I, 5)` slot (inside the DO).
fortran::StmtPtr& callOfR(Program& prog) {
  return prog.findUnit("MAIN")->body[1]->body[0];
}

/// Replace a statement by an edited copy, as Session edits do: the original
/// is freed, so any site still pointing at it dangles.
template <typename Fn>
void rewrite(Program& prog, fortran::StmtPtr& slot, Fn change) {
  fortran::StmtPtr fresh = slot->clone();
  change(*fresh);
  slot = std::move(fresh);
  prog.assignIds();
}

TEST(IncrementalSummaries, CallLiteralEditReportsFormalConstantChange) {
  auto prog = parse(kCallLiterals);
  ASSERT_EQ(callOfR(*prog)->kind, fortran::StmtKind::Call);
  SummaryBuilder sb(*prog);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("M"), 5);

  rewrite(*prog, callOfR(*prog),
          [](fortran::Stmt& s) { s.args[1]->intValue = 6; });
  SummaryBuilder::Update up = sb.applyEdit({"MAIN"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_EQ(up.formalConstantsChanged, std::set<std::string>{"R"});
  EXPECT_FALSE(up.globalFactsChanged);
  EXPECT_EQ(up.staleAnalyses, std::set<std::string>{"MAIN"});
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("M"), 6);
  expectSameGraph(sb.callGraph(), CallGraph::build(*prog));
}

TEST(IncrementalSummaries, CommonInitializerEditReportsCensusChange) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("N"), 100);

  rewrite(*prog, prog->findUnit("MAIN")->body[0],
          [](fortran::Stmt& s) { s.rhs->intValue = 200; });
  SummaryBuilder::Update up = sb.applyEdit({"MAIN"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_TRUE(up.formalConstantsChanged.empty());
  EXPECT_TRUE(up.globalFactsChanged);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("N"), 200);
}

TEST(IncrementalSummaries, CalleeEditTakesTheStructureChangedPath) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  rewrite(*prog, prog->findUnit("MAIN")->body[2],
          [](fortran::Stmt& s) { s.callee = "LIBFN"; });
  SummaryBuilder::Update up = sb.applyEdit({"MAIN"});
  EXPECT_TRUE(up.structureChanged);
  EXPECT_EQ(up.staleAnalyses.size(), prog->units.size());
  expectSameGraph(sb.callGraph(), CallGraph::build(*prog));
}

TEST(IncrementalSummaries, ShapeMovedByATransformationRebuildsAtTheNextEdit) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  // Unrolling-style duplication of the CALL: the graph is live at once...
  fortran::Stmt& loop = *prog->findUnit("MAIN")->body[1];
  loop.body.push_back(loop.body[0]->clone());
  prog->assignIds();
  sb.refreshCallSites("MAIN");
  expectSameGraph(sb.callGraph(), CallGraph::build(*prog));
  // ...and the next edit, even one that moves no call, rebuilds every
  // summary, as it would had the duplication been an edit.
  fortran::StmtPtr& qBody = prog->findUnit("Q")->body[0];
  rewrite(*prog, qBody, [](fortran::Stmt&) {});
  EXPECT_TRUE(sb.applyEdit({"Q"}).structureChanged);
  rewrite(*prog, qBody, [](fortran::Stmt&) {});
  EXPECT_FALSE(sb.applyEdit({"Q"}).structureChanged);
  expectSameGraph(sb.callGraph(), CallGraph::build(*prog));
}

// ---------------------------------------------------------------------------
// Oracle end-to-end: the spec77 gloop pattern
// ---------------------------------------------------------------------------

TEST(Oracle, GloopParallelWithSections) {
  // A loop over latitudes calling a routine that only touches its own
  // column: interprocedural section analysis proves the loop parallel.
  auto prog = parse(
      "      SUBROUTINE GLOOP(FLN, N, LAT)\n"
      "      REAL FLN(100, 12)\n"
      "      DO 10 L = 1, LAT\n"
      "        CALL FL22(FLN, N, L)\n"
      "   10 CONTINUE\n"
      "      END\n"
      "      SUBROUTINE FL22(FLN, N, L)\n"
      "      REAL FLN(100, 12)\n"
      "      DO I = 1, N\n"
      "        FLN(I, L) = FLN(I, L)*2.0\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  fortran::Procedure* gloop = prog->findUnit("GLOOP");
  InterproceduralOracle oracle(sb, *gloop);
  EXPECT_TRUE(oracle.knowsCallee("FL22"));

  ir::ProcedureModel model(*gloop);
  dep::AnalysisContext ctx;
  ctx.oracle = &oracle;
  auto g = dep::DependenceGraph::build(model, ctx);
  auto* loop = model.topLevelLoops()[0];
  EXPECT_TRUE(g.parallelizable(*loop))
      << "inhibitors: " << g.parallelismInhibitors(*loop).size();

  // Without the oracle the loop is (conservatively) not parallelizable.
  ir::ProcedureModel model2(*gloop);
  auto g2 = dep::DependenceGraph::build(model2, {});
  EXPECT_FALSE(g2.parallelizable(*model2.topLevelLoops()[0]));
}

TEST(Oracle, ConflictingColumnsStayDependent) {
  auto prog = parse(
      "      SUBROUTINE GLOOP(FLN, N, LAT)\n"
      "      REAL FLN(100, 12)\n"
      "      DO 10 L = 1, LAT\n"
      "        CALL FL22(FLN, N, L)\n"
      "   10 CONTINUE\n"
      "      END\n"
      "      SUBROUTINE FL22(FLN, N, L)\n"
      "      REAL FLN(100, 12)\n"
      "      DO I = 1, N\n"
      "        FLN(I, 1) = FLN(I, L)*2.0\n"
      "      ENDDO\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  fortran::Procedure* gloop = prog->findUnit("GLOOP");
  InterproceduralOracle oracle(sb, *gloop);
  ir::ProcedureModel model(*gloop);
  dep::AnalysisContext ctx;
  ctx.oracle = &oracle;
  auto g = dep::DependenceGraph::build(model, ctx);
  EXPECT_FALSE(g.parallelizable(*model.topLevelLoops()[0]));
}

TEST(Oracle, ScalarReadOnlyActualCausesNoDeps) {
  auto prog = parse(
      "      SUBROUTINE DRIVER(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 1, N\n"
      "        CALL TOUCH(A, I, N)\n"
      "      ENDDO\n"
      "      END\n"
      "      SUBROUTINE TOUCH(A, I, N)\n"
      "      REAL A(N)\n"
      "      A(I) = FLOAT(I)/FLOAT(N)\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  fortran::Procedure* driver = prog->findUnit("DRIVER");
  InterproceduralOracle oracle(sb, *driver);
  ir::ProcedureModel model(*driver);
  dep::AnalysisContext ctx;
  ctx.oracle = &oracle;
  auto g = dep::DependenceGraph::build(model, ctx);
  auto* loop = model.topLevelLoops()[0];
  EXPECT_TRUE(g.parallelizable(*loop))
      << "inhibitors: " << g.parallelismInhibitors(*loop).size();
}

}  // namespace
}  // namespace ps::interproc
