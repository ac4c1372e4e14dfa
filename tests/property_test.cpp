// Property tests across module boundaries:
//  1. Dependence soundness: the analyzer may over-approximate but must
//     never miss a dependence that brute-force iteration enumeration finds.
//  2. Parallelizable implies race-free: loops the graph calls parallel run
//     clean under the shuffled-order race detector.
//  3. Pretty-print round trips preserve execution semantics.
//  4. Fourier–Motzkin soundness against brute-force integer search.
//  5–6. Session edits are incremental and match a scratch build.
//  7. Edit transactions: live call graph, total rollback, targeted
//     invalidation.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>

#include "dependence/fm.h"
#include "dependence/graph.h"
#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "interp/machine.h"
#include "interproc/summaries.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps {
namespace {

// ---------------------------------------------------------------------------
// 1. Dependence soundness on a family of single loops
//    DO I = 1, N:  A(a1*I + c1) = f(A(a2*I + c2))
// ---------------------------------------------------------------------------

struct SubscriptCase {
  long long a1, c1, a2, c2;
  long long n;
};

class DependenceSoundness
    : public ::testing::TestWithParam<SubscriptCase> {};

TEST_P(DependenceSoundness, AnalyzerNeverMissesARealDependence) {
  const SubscriptCase& p = GetParam();
  // Build the program text.
  auto term = [](long long a, long long c) {
    std::string s;
    if (a == 1) {
      s = "I";
    } else {
      s = std::to_string(a) + "*I";
    }
    if (c > 0) s += " + " + std::to_string(c);
    if (c < 0) s += " - " + std::to_string(-c);
    return s;
  };
  std::string src = "      SUBROUTINE S(A)\n      REAL A(1000)\n"
                    "      DO I = 1, " +
                    std::to_string(p.n) + "\n        A(" + term(p.a1, p.c1) +
                    ") = A(" + term(p.a2, p.c2) +
                    ") + 1.0\n      ENDDO\n      END\n";
  DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.dump();
  ir::ProcedureModel model(*prog->units[0]);
  auto g = dep::DependenceGraph::build(model, {});
  bool analyzerSaysParallel = g.parallelizable(*model.topLevelLoops()[0]);

  // Brute force: a loop-carried dependence exists iff two different
  // iterations touch the same element with at least one write.
  bool realCarried = false;
  std::map<long long, std::set<long long>> writers, readers;
  for (long long i = 1; i <= p.n; ++i) {
    writers[p.a1 * i + p.c1].insert(i);
    readers[p.a2 * i + p.c2].insert(i);
  }
  for (const auto& [addr, ws] : writers) {
    if (ws.size() > 1) realCarried = true;  // write-write
    auto it = readers.find(addr);
    if (it == readers.end()) continue;
    for (long long r : it->second) {
      if (!ws.count(r) || ws.size() > 1) {
        if (*ws.begin() != r || ws.size() > 1) realCarried = true;
      }
    }
  }
  // Soundness: a real carried dependence must serialize the loop.
  if (realCarried) {
    EXPECT_FALSE(analyzerSaysParallel)
        << "missed dependence for a1=" << p.a1 << " c1=" << p.c1
        << " a2=" << p.a2 << " c2=" << p.c2 << "\n"
        << src;
  }
  // And confirm dynamically via the race detector when the analyzer says
  // parallel.
  if (analyzerSaysParallel) {
    std::string exec = "      PROGRAM MAIN\n      REAL A(1000)\n"
                       "      DO K = 1, 1000\n        A(K) = FLOAT(K)\n"
                       "      ENDDO\n      PARALLEL DO I = 1, " +
                       std::to_string(p.n) + "\n        A(" +
                       term(p.a1, p.c1) + ") = A(" + term(p.a2, p.c2) +
                       ") + 1.0\n      ENDDO\n      WRITE(6, *) A(1)\n"
                       "      END\n";
    DiagnosticEngine d2;
    auto prog2 = fortran::parseSource(exec, d2);
    ASSERT_FALSE(d2.hasErrors());
    interp::Machine m(*prog2);
    auto run = m.run();
    ASSERT_TRUE(run.ok) << run.error;
    for (const auto& race : run.races) {
      EXPECT_TRUE(race.outputOnly)
          << "race detector contradicts the analyzer on " << src;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DependenceSoundness,
    ::testing::Values(
        SubscriptCase{1, 0, 1, 0, 40},    // A(I) = A(I): independent
        SubscriptCase{1, 0, 1, -1, 40},   // flow distance 1
        SubscriptCase{1, 0, 1, 1, 40},    // anti distance 1
        SubscriptCase{1, 0, 1, -5, 40},   // flow distance 5
        SubscriptCase{2, 0, 2, -2, 40},   // stride 2, distance 1
        SubscriptCase{2, 0, 2, -1, 40},   // stride 2, odd offset: none
        SubscriptCase{1, 0, 2, 0, 30},    // MIV-ish: real deps exist
        SubscriptCase{3, 1, 3, 4, 30},    // 3I+1 vs 3I+4: distance 1
        SubscriptCase{3, 1, 3, 5, 30},    // gcd disproof
        SubscriptCase{1, 0, 1, 100, 40},  // distance beyond trip count
        SubscriptCase{2, 1, 4, 3, 25},    // 2I+1 vs 4I+3: overlap
        SubscriptCase{4, 0, 2, 2, 25}));  // 4I vs 2I+2: overlap

// ---------------------------------------------------------------------------
// 2/3. Workload round trips: pretty-print -> reparse -> execute must match,
//      and analyzer-parallel loops must run race-free when marked parallel.
// ---------------------------------------------------------------------------

class WorkloadProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadProperty, PrettyPrintRoundTripPreservesExecution) {
  const auto* w = workloads::byName(GetParam());
  DiagnosticEngine diags;
  auto prog = fortran::parseSource(w->source, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.dump();
  interp::Machine m1(*prog);
  auto r1 = m1.run();
  ASSERT_TRUE(r1.ok) << r1.error;

  std::string printed = fortran::printProgram(*prog);
  DiagnosticEngine d2;
  auto prog2 = fortran::parseSource(printed, d2);
  ASSERT_FALSE(d2.hasErrors()) << d2.dump() << "\n" << printed;
  interp::Machine m2(*prog2);
  auto r2 = m2.run();
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(r1.outputEquals(r2)) << printed;
}

TEST_P(WorkloadProperty, AnalyzerParallelLoopsRunRaceFree) {
  const auto* w = workloads::byName(GetParam());
  DiagnosticEngine diags;
  auto prog = fortran::parseSource(w->source, diags);
  ASSERT_FALSE(diags.hasErrors());
  interp::Machine base(*prog);
  auto r0 = base.run();
  ASSERT_TRUE(r0.ok) << r0.error;

  // Mark every analyzer-parallel loop PARALLEL (innermost-safe marking:
  // mark all; nested parallel loops are fine for the detector).
  interproc::SummaryBuilder summaries(*prog);
  for (auto& unit : prog->units) {
    ir::ProcedureModel model(*unit);
    interproc::InterproceduralOracle oracle(summaries, *unit);
    dep::AnalysisContext ctx;
    ctx.oracle = &oracle;
    ctx.inheritedConstants = summaries.inheritedConstantsFor(*unit);
    ctx.inheritedRelations = summaries.inheritedRelationsFor(*unit);
    auto g = dep::DependenceGraph::build(model, ctx);
    for (const auto& loopPtr : model.loops()) {
      if (g.parallelizable(*loopPtr)) loopPtr->stmt->isParallel = true;
    }
  }
  interp::Machine m(*prog);
  interp::RunOptions opts;
  opts.shuffleSeed = 777;
  auto r = m.run(opts);
  ASSERT_TRUE(r.ok) << w->name << ": " << r.error;
  // Outputs must match the sequential run despite shuffled iteration
  // order, and no flow/anti race may fire. (Assertion-based parallelism in
  // the workloads is genuinely safe, so this also validates the
  // assertions dynamically — the paper's run-time-checkability criterion.)
  EXPECT_TRUE(r0.outputEquals(r, 1e-6)) << w->name;
  for (const auto& race : r.races) {
    EXPECT_TRUE(race.outputOnly) << w->name << " race on " << race.variable;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadProperty,
    ::testing::Values("spec77", "neoss", "nxsns", "dpmin", "slab2d",
                      "slalom", "pueblo3d", "arc3d"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// ---------------------------------------------------------------------------
// 4. Fourier–Motzkin soundness: randomized small systems, brute-force
//    integer search as ground truth. FM claiming "infeasible" must mean no
//    integer solution exists in a generous search box.
// ---------------------------------------------------------------------------

TEST(FMProperty, InfeasibleNeverContradictsBruteForce) {
  std::mt19937 rng(20260706);
  std::uniform_int_distribution<int> coefD(-3, 3), constD(-8, 8),
      kindD(0, 2);
  const char* vars[] = {"x", "y", "z"};
  int disproofs = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<dep::Constraint> cs;
    int nc = 2 + static_cast<int>(rng() % 3);
    for (int c = 0; c < nc; ++c) {
      dataflow::LinearExpr e;
      for (const char* v : vars) {
        int k = coefD(rng);
        if (k != 0) e.coef[v] = k;
      }
      e.constant = constD(rng);
      switch (kindD(rng)) {
        case 0: cs.push_back(dep::Constraint::ge0(e)); break;
        case 1: cs.push_back(dep::Constraint::gt0(e)); break;
        default: cs.push_back(dep::Constraint::eq0(e)); break;
      }
    }
    dep::FourierMotzkin fm(cs);
    if (!fm.infeasible()) continue;
    ++disproofs;
    // Brute force over [-12, 12]^3.
    bool found = false;
    for (int x = -12; x <= 12 && !found; ++x) {
      for (int y = -12; y <= 12 && !found; ++y) {
        for (int z = -12; z <= 12 && !found; ++z) {
          bool ok = true;
          for (const auto& c : cs) {
            long long v = c.expr.constant +
                          c.expr.coefOf("x") * x + c.expr.coefOf("y") * y +
                          c.expr.coefOf("z") * z;
            if (c.kind == dep::Constraint::Kind::Ge0 && v < 0) ok = false;
            if (c.kind == dep::Constraint::Kind::Gt0 && v <= 0) ok = false;
            if (c.kind == dep::Constraint::Kind::Eq0 && v != 0) ok = false;
          }
          if (ok) found = true;
        }
      }
    }
    EXPECT_FALSE(found) << "FM declared infeasible but a solution exists "
                           "(trial "
                        << trial << ")";
  }
  // The sweep must actually exercise the disproof path.
  EXPECT_GT(disproofs, 20);
}

// ---------------------------------------------------------------------------
// 5. Session editing is incremental and consistent.
// ---------------------------------------------------------------------------

TEST(Editing, EditStatementReanalyzesIncrementally) {
  const char* src =
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      END\n";
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  ASSERT_NE(s, nullptr);
  auto loops = s->loops();
  EXPECT_FALSE(loops[0].parallelizable);
  // Find the assignment and edit away the recurrence.
  fortran::StmtId assign = fortran::kInvalidStmt;
  for (const auto& row : s->sourcePane()) {
    if (row.text.find("A(I - 1)") != std::string::npos) assign = row.stmt;
  }
  ASSERT_NE(assign, fortran::kInvalidStmt);
  ASSERT_TRUE(s->editStatement(assign, "A(I) = FLOAT(I) + 1.0"));
  loops = s->loops();
  EXPECT_TRUE(loops[0].parallelizable);
  // And back to a recurrence.
  assign = fortran::kInvalidStmt;
  for (const auto& row : s->sourcePane()) {
    if (row.text.find("FLOAT(I)") != std::string::npos) assign = row.stmt;
  }
  ASSERT_TRUE(s->editStatement(assign, "A(I) = A(I - 1)*0.5"));
  EXPECT_FALSE(s->loops()[0].parallelizable);
}

TEST(Editing, BadTextIsRejectedAndProgramUntouched) {
  const char* src =
      "      SUBROUTINE S(X)\n"
      "      X = 1.0\n"
      "      END\n";
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  auto before = fortran::printProgram(s->program());
  fortran::StmtId id = s->sourcePane()[0].stmt;
  EXPECT_FALSE(s->editStatement(id, ")=(nonsense"));
  EXPECT_EQ(fortran::printProgram(s->program()), before);
}

TEST(Editing, InsertAndDelete) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      DO I = 1, 10\n"
      "        A(I) = 1.0\n"
      "      ENDDO\n"
      "      END\n";
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  fortran::StmtId assign = fortran::kInvalidStmt;
  for (const auto& row : s->sourcePane()) {
    if (row.text.find("= 1") != std::string::npos) assign = row.stmt;
  }
  ASSERT_TRUE(s->insertStatementAfter(assign, "A(I) = A(I)*2.0"));
  EXPECT_EQ(s->sourcePane().size(), 3u);
  // The inserted statement executes.
  auto run = s->profile();
  ASSERT_TRUE(run.ok);
  ASSERT_TRUE(s->deleteStatement(assign));
  EXPECT_EQ(s->sourcePane().size(), 2u);
}

// ---------------------------------------------------------------------------
// 6. Incremental update is invisible: after ANY sequence of random edits
//    (and safe transformations), the session's incrementally-maintained
//    graph — dirty-set rebuilds over the warm memo — is edge-for-edge
//    identical to a memo-free build over the same model and context.
// ---------------------------------------------------------------------------

namespace {

std::multiset<std::string> canonicalEdges(const dep::DependenceGraph& g) {
  std::multiset<std::string> out;
  for (const auto& d : g.all()) {
    out.insert(std::string(dep::depTypeName(d.type)) + "|" + d.variable +
               "|" + std::to_string(d.srcStmt) + "|" +
               std::to_string(d.dstStmt) + "|" + std::to_string(d.level) +
               "|" + d.vector.str() + "|" + dep::depMarkName(d.mark));
  }
  return out;
}

}  // namespace

TEST(IncrementalProperty, RandomEditSequenceMatchesScratchBuild) {
  const char* src =
      "      SUBROUTINE S(A, B, C, N)\n"
      "      REAL A(N), B(N), C(N)\n"
      "      DO I = 2, N\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      DO J = 2, N\n"
      "        B(J) = B(J - 1)*2.0\n"
      "      ENDDO\n"
      "      END\n";
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_FALSE(diags.hasErrors()) << diags.dump();

  const char* aEdits[] = {"A(I) = A(I - 1) + 1.0", "A(I) = B(I) + 1.0",
                          "A(I) = A(I)*2.0", "A(I) = A(I + 2) - 1.0"};
  const char* bEdits[] = {"B(J) = B(J - 1)*2.0", "B(J) = 1.0",
                          "B(J) = B(J) + A(J)", "B(J) = B(J + 3) - B(J)"};
  auto findRow = [&](const char* needle) {
    fortran::StmtId id = fortran::kInvalidStmt;
    for (const auto& row : s->sourcePane()) {
      if (row.text.find(needle) != std::string::npos) id = row.stmt;
    }
    return id;
  };

  std::mt19937 rng(20260806);
  for (int step = 0; step < 30; ++step) {
    switch (rng() % 5) {
      case 0: {  // rewrite the A-nest assignment
        fortran::StmtId id = findRow("A(I) =");
        if (id != fortran::kInvalidStmt) {
          ASSERT_TRUE(s->editStatement(id, aEdits[rng() % 4])) << step;
        }
        break;
      }
      case 1: {  // rewrite the B-nest assignment
        fortran::StmtId id = findRow("B(J) =");
        if (id != fortran::kInvalidStmt) {
          ASSERT_TRUE(s->editStatement(id, bEdits[rng() % 4])) << step;
        }
        break;
      }
      case 2: {  // grow the A nest
        fortran::StmtId id = findRow("A(I) =");
        if (id != fortran::kInvalidStmt) {
          ASSERT_TRUE(s->insertStatementAfter(id, "C(I) = A(I) + 2.0"))
              << step;
        }
        break;
      }
      case 3: {  // shrink it back
        fortran::StmtId id = findRow("C(I) =");
        if (id != fortran::kInvalidStmt) {
          ASSERT_TRUE(s->deleteStatement(id)) << step;
        }
        break;
      }
      default: {  // apply whatever safe transformation guidance offers
        auto loops = s->loops();
        if (!loops.empty()) {
          auto menu = s->guidance(loops[rng() % loops.size()].id, true);
          if (!menu.empty()) {
            const auto& pick = menu[rng() % menu.size()];
            std::string err;
            s->applyTransformation(pick.transformation, pick.target, &err);
          }
        }
        break;
      }
    }
    // The invariant: incremental == from-scratch, every single step.
    transform::Workspace& ws = s->workspace();
    dep::AnalysisContext scratch = ws.actx;
    scratch.useMemo = false;
    scratch.memo = nullptr;
    scratch.statsSink = nullptr;
    auto fresh = dep::DependenceGraph::build(*ws.model, scratch);
    EXPECT_EQ(canonicalEdges(fresh), canonicalEdges(*ws.graph))
        << "divergence after step " << step << ":\n"
        << fortran::printProgram(s->program());
  }
  // The sweep must actually have exercised the memo.
  EXPECT_GT(s->analysisStats().memoHits, 0);
}

TEST(Editing, EditedArrayRefsParseInContext) {
  // The edit text references an array: it must parse as an ArrayRef (not a
  // function call) because the session supplies the declaration context.
  const char* src =
      "      SUBROUTINE S(A, B, N)\n"
      "      REAL A(N), B(N)\n"
      "      DO I = 1, N\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n";
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  fortran::StmtId assign = fortran::kInvalidStmt;
  for (const auto& row : s->sourcePane()) {
    if (row.text.find("= 0") != std::string::npos) assign = row.stmt;
  }
  ASSERT_TRUE(s->editStatement(assign, "A(I) = B(I) + 1.0"));
  // The dependence graph sees the B read (an Input-free True-free graph —
  // but the variable pane must list B).
  s->selectLoop(s->loops()[0].id);
  bool sawB = false;
  for (const auto& v : s->variablePane()) {
    if (v.name == "B" && v.dim == 1) sawB = true;
  }
  EXPECT_TRUE(sawB);
}

// ---------------------------------------------------------------------------
// 7. Edit transactions: the summary call graph stays live across edits and
//    transformations, a failed edit rolls back byte-identically, and an edit
//    invalidates only the procedures whose inherited inputs moved.
// ---------------------------------------------------------------------------

const char* kCallDeck =
    "      PROGRAM MAIN\n"
    "      COMMON /C/ N\n"
    "      REAL V\n"
    "      N = 100\n"
    "      DO I = 1, 4\n"
    "        CALL R(I, 5)\n"
    "      ENDDO\n"
    "      CALL Q(N)\n"
    "      CALL T(V)\n"
    "      END\n"
    "      SUBROUTINE R(K, M)\n"
    "      COMMON /C/ N\n"
    "      REAL A(100)\n"
    "      A(K) = A(K) + M + N\n"
    "      END\n"
    "      SUBROUTINE Q(L)\n"
    "      COMMON /C/ N\n"
    "      REAL B(100)\n"
    "      DO J = 1, 4\n"
    "        CALL R(J, 5)\n"
    "      ENDDO\n"
    "      DO J = 1, N\n"
    "        B(J) = B(J) + L\n"
    "      ENDDO\n"
    "      END\n"
    "      SUBROUTINE T(X)\n"
    "      X = 1.0\n"
    "      END\n";

std::unique_ptr<ped::Session> loadCallDeck() {
  DiagnosticEngine diags;
  auto s = ped::Session::load(kCallDeck, diags);
  EXPECT_NE(s, nullptr);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return s;
}

/// Select `proc` and return its first statement whose text contains
/// `needle`.
fortran::StmtId findStmt(ped::Session& s, const std::string& proc,
                         const std::string& needle) {
  if (!s.selectProcedure(proc)) return fortran::kInvalidStmt;
  for (const auto& row : s.sourcePane()) {
    if (row.text.find(needle) != std::string::npos) return row.stmt;
  }
  return fortran::kInvalidStmt;
}

std::vector<fortran::StmtId> allIds(const fortran::Program& p) {
  std::vector<fortran::StmtId> ids;
  for (const auto& u : p.units) {
    u->forEachStmt([&](const fortran::Stmt& st) { ids.push_back(st.id); });
  }
  return ids;
}

TEST(EditTransactions, CallGraphStaysLiveAfterEveryTransformation) {
  // Every catalog entry guidance lists, on every loop, each in a fresh
  // session: applied or rolled back, the graph must equal a fresh build
  // (unrolling, peeling and splitting clone CALLs; deletion frees them).
  auto probe = loadCallDeck();
  int attempts = 0;
  int applied = 0;
  for (const std::string& proc : probe->procedureNames()) {
    ASSERT_TRUE(probe->selectProcedure(proc));
    for (const auto& loop : probe->loops()) {
      for (const auto& entry : probe->guidance(loop.id, /*safeOnly=*/false)) {
        auto s = loadCallDeck();
        ASSERT_TRUE(s->selectProcedure(proc));
        std::string error;
        if (s->applyTransformation(entry.transformation, entry.target,
                                   &error)) {
          ++applied;
        }
        ++attempts;
        EXPECT_EQ(workloads::callGraphDrift(*s), "")
            << entry.transformation << " in " << proc;
        (void)s->checkInterfaces();  // dereferences every site's statement
      }
    }
  }
  EXPECT_GE(applied, 10) << "of " << attempts;
}

TEST(EditTransactions, UnrollingACallLoopThenEditingElsewhereMatchesScratch) {
  auto s = loadCallDeck();
  ASSERT_TRUE(s->selectProcedure("Q"));
  transform::Target t;
  t.loop = s->loops()[0].id;  // DO J = 1, 4 around CALL R(J, 5)
  t.factor = 2;
  std::string error;
  ASSERT_TRUE(s->applyTransformation("Loop Unrolling", t, &error)) << error;
  EXPECT_EQ(workloads::callGraphDrift(*s), "");
  EXPECT_TRUE(s->checkInterfaces().empty());

  // The edit's summary update reads every site, including Q's new ones.
  ASSERT_TRUE(s->editStatement(findStmt(*s, "MAIN", "N = 100"), "N = 300"));
  EXPECT_EQ(workloads::callGraphDrift(*s), "");
  const std::string settled = workloads::analysisSnapshot(*s);
  s->fullReanalysis();
  EXPECT_EQ(settled, workloads::analysisSnapshot(*s));
}

TEST(EditTransactions, CorruptedEditRollsBackByteIdentically) {
  const std::vector<std::string> ops = {
      "editStatement", "insertStatementAfter", "deleteStatement"};
  for (const bool deferred : {false, true}) {
    for (const std::string& op : ops) {
      SCOPED_TRACE(op + (deferred ? " (deferred)" : " (immediate)"));
      auto s = loadCallDeck();
      s->setDeferredAnalysis(deferred);
      const std::string snapshot = workloads::analysisSnapshot(*s);
      const fortran::StmtId target = findStmt(*s, "Q", "B(J) = ");
      ASSERT_NE(target, fortran::kInvalidStmt);
      const std::string source = fortran::printProgram(s->program());
      const std::vector<fortran::StmtId> ids = allIds(s->program());
      const fortran::StmtId nextId = s->program().nextStmtId;
      const std::size_t failures = s->failures().size();

      s->injectFaultOnce(ped::Fault::CorruptState);
      bool ok = true;
      if (op == "editStatement") {
        ok = s->editStatement(target, "B(J) = 0.0");
      } else if (op == "insertStatementAfter") {
        ok = s->insertStatementAfter(target, "B(J) = B(J)*2.0");
      } else {
        ok = s->deleteStatement(target);
      }
      EXPECT_FALSE(ok);
      ASSERT_EQ(s->failures().size(), failures + 1);
      EXPECT_EQ(s->failures().back().operation, op);
      EXPECT_TRUE(s->failures().back().rolledBack);
      EXPECT_EQ(fortran::printProgram(s->program()), source);
      EXPECT_EQ(allIds(s->program()), ids);
      EXPECT_EQ(s->program().nextStmtId, nextId);
      EXPECT_EQ(workloads::analysisSnapshot(*s), snapshot);

      // The engine is not poisoned: the same edit now goes through.
      ASSERT_TRUE(s->selectProcedure("Q"));
      EXPECT_TRUE(s->editStatement(target, "B(J) = 0.0"));
      EXPECT_EQ(workloads::callGraphDrift(*s), "");
    }
  }
}

TEST(EditTransactions, CallLiteralRewriteDirtiesTheCallee) {
  auto s = loadCallDeck();
  s->setDeferredAnalysis(true);
  (void)workloads::analysisSnapshot(*s);  // materialize every procedure
  ASSERT_TRUE(
      s->editStatement(findStmt(*s, "MAIN", "CALL R(I"), "CALL R(I, 6)"));
  // R's summary is unchanged; only its inherited constant M moved.
  EXPECT_EQ(s->dirtyProcedures(), (std::set<std::string>{"MAIN", "R"}));
  EXPECT_EQ(workloads::callGraphDrift(*s), "");
  const std::string settled = workloads::analysisSnapshot(*s);
  s->fullReanalysis();
  EXPECT_EQ(settled, workloads::analysisSnapshot(*s));
}

TEST(EditTransactions, CommonInitializerRewriteDirtiesEveryCommonUser) {
  auto s = loadCallDeck();
  s->setDeferredAnalysis(true);
  (void)workloads::analysisSnapshot(*s);
  ASSERT_TRUE(s->editStatement(findStmt(*s, "MAIN", "N = 100"), "N = 200"));
  // T declares no COMMON, so the census cannot reach it.
  EXPECT_EQ(s->dirtyProcedures(), (std::set<std::string>{"MAIN", "Q", "R"}));
  const std::string settled = workloads::analysisSnapshot(*s);
  s->fullReanalysis();
  EXPECT_EQ(settled, workloads::analysisSnapshot(*s));
}

TEST(EditTransactions, CalleeRewriteTakesTheStructureChangedPath) {
  auto s = loadCallDeck();
  s->setDeferredAnalysis(true);
  (void)workloads::analysisSnapshot(*s);
  ASSERT_TRUE(s->editStatement(findStmt(*s, "MAIN", "CALL T("), "CALL Q(N)"));
  EXPECT_EQ(s->dirtyProcedures(),
            (std::set<std::string>{"MAIN", "Q", "R", "T"}));
  EXPECT_EQ(workloads::callGraphDrift(*s), "");
  const std::string settled = workloads::analysisSnapshot(*s);
  s->fullReanalysis();
  EXPECT_EQ(settled, workloads::analysisSnapshot(*s));
}

}  // namespace
}  // namespace ps
