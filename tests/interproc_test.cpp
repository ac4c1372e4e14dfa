#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cfg/flow_graph.h"
#include "dependence/graph.h"
#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "gen.h"
#include "interp/machine.h"
#include "interproc/callgraph.h"
#include "interproc/summaries.h"
#include "ir/model.h"
#include "ir/refs.h"
#include "support/diagnostics.h"
#include "support/taskpool.h"
#include "workloads/workloads.h"

namespace ps::interproc {
namespace {

using fortran::Expr;
using fortran::ExprKind;
using fortran::ExprPtr;
using fortran::Program;
using fortran::Stmt;
using fortran::StmtKind;

// ---------------------------------------------------------------------------
// Reference scalar KILL and upward exposure
// ---------------------------------------------------------------------------

/// A callee's summary as summarization sees it: null for a recursive or
/// unknown callee.
using CalleeLookup = std::function<const ProcSummary*(const std::string&)>;

/// Calls fn(actuals, isCall) for every call of `callee` in `s`.
void forEachCallOf(const Stmt& s, const std::string& callee,
                   const std::function<void(const std::vector<ExprPtr>&,
                                            bool)>& fn) {
  if (s.kind == StmtKind::Call && s.callee == callee) fn(s.args, true);
  s.forEachExpr([&](const Expr& e) {
    if (e.kind == ExprKind::FuncCall && e.name == callee) fn(e.args, false);
  });
}

/// Where a callee's effect on its name `var` lands in one call: the
/// variable or array-element actual bound to a formal (`whole` for a plain
/// variable), nothing for an expression or a missing actual, and the same
/// name (`byName`) for a COMMON member or the function result.
struct RefLanding {
  std::string name;
  bool byName = false;
  bool whole = false;
};
std::optional<RefLanding> landIn(const ProcSummary& callee,
                                 const std::vector<ExprPtr>& actuals,
                                 const std::string& var) {
  for (std::size_t i = 0; i < callee.formals.size(); ++i) {
    if (callee.formals[i] != var) continue;
    const Expr* a = i < actuals.size() ? actuals[i].get() : nullptr;
    if (a && (a->kind == ExprKind::VarRef || a->kind == ExprKind::ArrayRef)) {
      return RefLanding{a->name, false, a->kind == ExprKind::VarRef};
    }
    return std::nullopt;
  }
  return RefLanding{var, true, true};
}

/// The summary builder's scalar KILL and upward exposure as computed before
/// bit rows: a must-write fixpoint with a std::set<std::string> per
/// flow-graph node (the names killed on every path to the exit), and for
/// each scalar that `sum` says is read, a search from the entry that stops
/// at the statements killing it (true when it meets a read first).
struct ReferenceKill {
  std::set<std::string> killed;
  std::map<std::string, bool> exposed;
};
ReferenceKill referenceKillAndExposure(fortran::Procedure& proc,
                                       const ProcSummary& sum,
                                       const CalleeLookup& calleeOf) {
  ReferenceKill ref;
  ir::ProcedureModel model(proc);
  cfg::FlowGraph fg = cfg::FlowGraph::build(model);
  const int n = fg.numNodes();
  std::vector<std::set<std::string>> out(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  visited[cfg::FlowGraph::kEntry] = true;
  const auto order = fg.reversePostOrder();
  bool changed = true;
  while (changed) {
    changed = false;
    for (int node : order) {
      if (node == cfg::FlowGraph::kEntry) continue;
      const auto un = static_cast<std::size_t>(node);
      std::set<std::string> in;
      bool first = true;
      for (int p : fg.predecessors(node)) {
        const auto up = static_cast<std::size_t>(p);
        if (!visited[up]) continue;
        if (first) {
          in = out[up];
          first = false;
        } else {
          std::set<std::string> merged;
          for (const auto& v : in) {
            if (out[up].count(v)) merged.insert(v);
          }
          in = std::move(merged);
        }
      }
      if (first) continue;
      const Stmt* s = fg.stmtOf(node);
      std::set<std::string> next = in;
      if (s) {
        if (s->kind == StmtKind::Assign && s->lhs->kind == ExprKind::VarRef) {
          next.insert(s->lhs->name);
        }
        if (s->kind == StmtKind::Read) {
          for (const auto& item : s->args) {
            if (item->kind == ExprKind::VarRef) next.insert(item->name);
          }
        }
        for (const std::string& callee : ir::calledFunctions(*s)) {
          const ProcSummary* cs = calleeOf(callee);
          if (!cs) continue;
          forEachCallOf(*s, callee, [&](const std::vector<ExprPtr>& actuals,
                                        bool isCall) {
            for (const auto& [var, eff] : cs->effects) {
              if (!eff.kills || eff.isArray) continue;
              const auto at = landIn(*cs, actuals, var);
              if (at && (at->byName || (isCall && at->whole))) {
                next.insert(at->name);
              }
            }
          });
        }
      }
      if (!visited[un] || next != out[un]) {
        visited[un] = true;
        out[un] = std::move(next);
        changed = true;
      }
    }
  }
  ref.killed = out[cfg::FlowGraph::kExit];

  for (const auto& [var, eff] : sum.effects) {
    if (eff.isArray || !eff.mayRead) continue;
    std::vector<int> work{cfg::FlowGraph::kEntry};
    std::set<int> seen;
    bool exposed = false;
    while (!work.empty() && !exposed) {
      const int node = work.back();
      work.pop_back();
      if (!seen.insert(node).second) continue;
      const Stmt* s = fg.stmtOf(node);
      bool killsHere = false;
      if (s) {
        for (const ir::Ref& r : ir::collectRefs(*s)) {
          if (r.name != var) continue;
          if (r.kind == ir::RefKind::Read) {
            exposed = true;
            break;
          }
          if (r.kind == ir::RefKind::CallActual) {
            bool calleeExposed = true, calleeKills = false;
            if (const ProcSummary* cs = calleeOf(s->callee)) {
              for (const std::string& formal : cs->formals) {
                const auto at = landIn(*cs, s->args, formal);
                if (!at || !at->whole || at->name != var) continue;
                const VarEffect* fe = cs->effectOn(formal);
                calleeExposed = fe && fe->exposedRead;
                calleeKills = fe && fe->kills;
              }
            }
            if (calleeExposed) {
              exposed = true;
              break;
            }
            if (calleeKills) killsHere = true;
          }
          if (r.kind == ir::RefKind::Write ||
              r.kind == ir::RefKind::DoVarDef) {
            killsHere = true;
          }
        }
      }
      if (exposed || killsHere) continue;
      for (int succ : fg.successors(node)) {
        if (!seen.count(succ)) work.push_back(succ);
      }
    }
    ref.exposed[var] = exposed;
  }
  return ref;
}

/// Summarize `source` and require every scalar effect's KILL and upward
/// exposure of every summarized procedure to equal the reference's.
void expectKillAndExposureMatchReference(std::string_view source,
                                         const std::string& label) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(source, diags);
  if (diags.hasErrors()) return;
  const SummaryBuilder sb(*prog);
  const CallGraph& cg = sb.callGraph();
  const CalleeLookup calleeOf = [&](const std::string& name) {
    return cg.isRecursive(name) ? nullptr : sb.summaryOf(name);
  };
  for (const auto& unit : prog->units) {
    // Recursive procedures get worst-case summaries; a repeated name is
    // summarized from its first unit.
    if (cg.isRecursive(unit->name) ||
        prog->findUnit(unit->name) != unit.get()) {
      continue;
    }
    const ProcSummary* sum = sb.summaryOf(unit->name);
    ASSERT_NE(sum, nullptr) << label << " " << unit->name;
    const ReferenceKill ref = referenceKillAndExposure(*unit, *sum, calleeOf);
    for (const auto& [var, eff] : sum->effects) {
      if (eff.isArray) continue;
      const std::string at = label + " " + unit->name + " " + var;
      EXPECT_EQ(eff.kills, ref.killed.count(var) > 0) << at;
      const auto it = ref.exposed.find(var);
      EXPECT_EQ(eff.exposedRead, it != ref.exposed.end() && it->second) << at;
    }
  }
}

/// Every program this suite parses also has its KILL and exposure checked
/// against the reference, on a copy of its own.
std::unique_ptr<Program> parse(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  expectKillAndExposureMatchReference(src, "parsed program");
  return prog;
}

TEST(SummaryKillReference, DecksAndGeneratedDecksMatch) {
  for (const workloads::Workload& w : workloads::all()) {
    expectKillAndExposureMatchReference(w.source, w.name);
  }
  for (unsigned seed : {1U, 2U, 3U}) {
    expectKillAndExposureMatchReference(
        psbench::generateDeck(seed, 2000).source,
        "generated seed " + std::to_string(seed));
  }
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

// INNER kills its formal P, but OUTER passes it the expression K*1, so the
// kill reaches no variable of OUTER. OUTER's own formal P, which it writes
// only for even K, must not inherit the kill by name: MAIN's loop would
// then privatize P and run in parallel, and A(I) = A(I) + P would read a P
// that no earlier iteration wrote (serial output 1.0 17.0).
TEST(Summaries, KilledFormalReachesCallerOnlyThroughAPassedVariable) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(9)\n"
      "      P = 0.0\n"
      "      DO 10 I = 1, 9\n"
      "        CALL OUTER(P, A, I)\n"
      "        A(I) = A(I) + P\n"
      "   10 CONTINUE\n"
      "      WRITE(6, *) A(1), A(9)\n"
      "      END\n"
      "      SUBROUTINE OUTER(P, A, K)\n"
      "      REAL A(9)\n"
      "      CALL INNER(K*1)\n"
      "      IF (MOD(K, 2) .EQ. 0) P = FLOAT(K)\n"
      "      A(K) = FLOAT(K)\n"
      "      END\n"
      "      SUBROUTINE INNER(P)\n"
      "      P = 1.0\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  EXPECT_TRUE(sb.summaryOf("INNER")->effectOn("P")->kills);
  const VarEffect* p = sb.summaryOf("OUTER")->effectOn("P");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->mayWrite);
  EXPECT_FALSE(p->kills);  // written on one path only

  fortran::Procedure* main = prog->findUnit("MAIN");
  InterproceduralOracle oracle(sb, *main);
  ir::ProcedureModel model(*main);
  dep::AnalysisContext ctx;
  ctx.oracle = &oracle;
  auto g = dep::DependenceGraph::build(model, ctx);
  EXPECT_FALSE(g.parallelizable(*model.topLevelLoops()[0]));
}

/// True when `unit`'s first top-level loop is parallelizable under the
/// interprocedural oracle, with `privates` classified private for it.
bool firstLoopParallel(const SummaryBuilder& sb, fortran::Procedure& unit,
                       const std::set<std::string>& privates = {}) {
  InterproceduralOracle oracle(sb, unit);
  ir::ProcedureModel model(unit);
  dep::AnalysisContext ctx;
  ctx.oracle = &oracle;
  const ir::Loop& loop = *model.topLevelLoops()[0];
  for (const std::string& name : privates) {
    ctx.classificationOverrides[loop.stmt->id][name] = true;
  }
  auto g = dep::DependenceGraph::build(model, ctx);
  return g.parallelizable(loop);
}

// F kills its own formal C, and F is referenced inside CALL S's argument
// list. The kill lands on F's actual Y, not on the CALL's first actual X:
// P only may write X (S writes it when K is 1). Iterations 2-10 of MAIN's
// loop read the Z iteration 1 wrote (serial output 7 7 7).
TEST(Summaries, FunctionInCallArgumentsKillsOnlyItsOwnActual) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL V(10)\n"
      "      Z = 0.0\n"
      "      DO 10 I = 1, 10\n"
      "        CALL P(Z, I)\n"
      "        V(I) = Z\n"
      "   10 CONTINUE\n"
      "      PRINT *, V(1), V(5), V(10)\n"
      "      END\n"
      "      SUBROUTINE P(X, K)\n"
      "      CALL S(X, F(Y), K)\n"
      "      END\n"
      "      SUBROUTINE S(A, B, K)\n"
      "      IF (K .EQ. 1) A = B\n"
      "      END\n"
      "      REAL FUNCTION F(C)\n"
      "      C = 7.0\n"
      "      F = C\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  EXPECT_TRUE(sb.summaryOf("F")->effectOn("C")->kills);
  const VarEffect* x = sb.summaryOf("P")->effectOn("X");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->mayWrite);
  EXPECT_FALSE(x->kills);
  EXPECT_FALSE(firstLoopParallel(sb, *prog->findUnit("MAIN")));
}

// G increments its formal. Both references bind G to their own actual, so
// G(A) writes A in every iteration (serial output 2 11). W is reset in
// every iteration, so classifying it private is right, and the loop must
// still carry A. Two references that pass the same actual report its
// effects once.
TEST(Summaries, EveryReferenceToAFunctionBindsItsOwnActuals) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL V(10)\n"
      "      A = 0.0\n"
      "      DO 10 I = 1, 10\n"
      "        W = 0.0\n"
      "        T = G(A) + G(W)\n"
      "        V(I) = T\n"
      "   10 CONTINUE\n"
      "      U = G(A) + G(A)\n"
      "      PRINT *, V(1), V(10), U\n"
      "      END\n"
      "      REAL FUNCTION G(C)\n"
      "      C = C + 1.0\n"
      "      G = C\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  fortran::Procedure* main = prog->findUnit("MAIN");
  InterproceduralOracle oracle(sb, *main);
  auto effectsOn = [&](const std::string& lhs) {
    std::vector<dep::CallEffect> effects;
    main->forEachStmt([&](const fortran::Stmt& s) {
      if (s.kind == fortran::StmtKind::Assign && s.lhs->name == lhs) {
        effects = oracle.effectsOfCall(s, "G");
      }
    });
    return effects;
  };
  std::set<std::string> written;
  for (const dep::CallEffect& e : effectsOn("T")) {
    if (e.mayWrite) written.insert(e.var);
  }
  EXPECT_EQ(written, (std::set<std::string>{"A", "W"}));
  EXPECT_EQ(effectsOn("U").size(), 2u);  // A: one read, one write
  EXPECT_FALSE(firstLoopParallel(sb, *main, {"W"}));
}

// F assigns its formal, so M is not stable in G once Y = F(M) has run: the
// loop's write section of A cannot be stated as A(1:M).
TEST(Summaries, FunctionReferenceWriteMakesItsActualUnstable) {
  auto prog = parse(
      "      SUBROUTINE G(A, M)\n"
      "      REAL A(100)\n"
      "      Y = F(M)\n"
      "      DO I = 1, M\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n"
      "      REAL FUNCTION F(K)\n"
      "      K = K + 1\n"
      "      F = 1.0\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const VarEffect* a = sb.summaryOf("G")->effectOn("A");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->writeSection.has_value());
  ASSERT_EQ(a->writeSection->dims.size(), 1u);
  EXPECT_FALSE(a->writeSection->dims[0].has_value())
      << a->writeSection->str();
}

// EXTF has no unit, so Y = EXTF(M) may write M, as CALL EXTS(M) may: M
// is not stable in G, and the loop's write section of A cannot be stated
// as A(1:M).
TEST(Summaries, UnresolvedFunctionReferenceMakesItsActualUnstable) {
  for (const char* ref : {"      Y = EXTF(M)\n", "      CALL EXTS(M)\n"}) {
    auto prog = parse(std::string("      SUBROUTINE G(A, M)\n"
                                  "      REAL A(100)\n") +
                      ref +
                      "      DO I = 1, M\n"
                      "        A(I) = 0.0\n"
                      "      ENDDO\n"
                      "      END\n");
    SummaryBuilder sb(*prog);
    const VarEffect* a = sb.summaryOf("G")->effectOn("A");
    ASSERT_NE(a, nullptr) << ref;
    ASSERT_TRUE(a->writeSection.has_value()) << ref;
    ASSERT_EQ(a->writeSection->dims.size(), 1u) << ref;
    EXPECT_FALSE(a->writeSection->dims[0].has_value())
        << ref << a->writeSection->str();
  }
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

// F assigns its formal, so X = F(N) writes N after N = 10, and a serial
// run prints 20. collectRefs reports a function reference's actuals as
// reads; the census must still count F's write of N and give WORK no
// constant for it.
TEST(Globals, FunctionReferenceWritingACommonActualDropsTheConstant) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      COMMON /C/ N\n"
      "      N = 10\n"
      "      X = F(N)\n"
      "      CALL WORK\n"
      "      END\n"
      "      REAL FUNCTION F(K)\n"
      "      K = 20\n"
      "      F = 1.0\n"
      "      END\n"
      "      SUBROUTINE WORK\n"
      "      COMMON /C/ N\n"
      "      PRINT *, N\n"
      "      END\n");
  interp::Machine machine(*prog);
  const interp::RunResult run = machine.run();
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_EQ(run.output.size(), 1u);
  EXPECT_EQ(run.output[0], 20.0);
  SummaryBuilder sb(*prog);
  EXPECT_FALSE(sb.inheritedConstantsFor(*prog->findUnit("WORK")).count("N"));
}

// EXTF and EXTS have no unit: either reference may assign N after
// N = 10, so WORK inherits no constant for it, whether the routine is
// called or referenced as a function. Passing an element of K instead
// leaves N's constant alone.
TEST(Globals, UnresolvedFunctionReferenceDropsTheConstant) {
  for (const char* ref : {"      X = EXTF(N)\n", "      CALL EXTS(N)\n",
                          "      X = EXTF(K(1)) + 1.0\n"}) {
    auto prog = parse(std::string("      PROGRAM MAIN\n"
                                  "      COMMON /C/ N, K(2)\n"
                                  "      N = 10\n"
                                  "      K(1) = 5\n") +
                      ref +
                      "      CALL WORK\n"
                      "      END\n"
                      "      SUBROUTINE WORK\n"
                      "      COMMON /C/ N, K(2)\n"
                      "      PRINT *, N\n"
                      "      END\n");
    SummaryBuilder sb(*prog);
    const auto consts = sb.inheritedConstantsFor(*prog->findUnit("WORK"));
    const bool passesN = std::string(ref).find("(N)") != std::string::npos;
    EXPECT_EQ(consts.count("N"), passesN ? 0u : 1u) << ref;
  }
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

/// Every unit inherits from `sb` what it would from a fresh build over the
/// same program: the incremental census and formal constants equal a full
/// recount.
void expectFactsOfFreshBuild(const SummaryBuilder& sb, Program& prog) {
  const SummaryBuilder fresh(prog);
  for (const auto& u : prog.units) {
    EXPECT_EQ(sb.inheritedConstantsFor(*u), fresh.inheritedConstantsFor(*u))
        << u->name;
    EXPECT_EQ(sb.inheritedRelationsFor(*u), fresh.inheritedRelationsFor(*u))
        << u->name;
  }
}

TEST(IncrementalSummaries, DuplicatedCallIsStructuralInItsOwnUpdateOnly) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  // Unrolling-style duplication of the CALL, updated at once, as the
  // session updates every transformation: the call shape moved.
  fortran::Stmt& loop = *prog->findUnit("MAIN")->body[1];
  loop.body.push_back(loop.body[0]->clone());
  prog->assignIds();
  EXPECT_TRUE(sb.applyEdit({"MAIN"}).structureChanged);
  expectSameGraph(sb.callGraph(), CallGraph::build(*prog));
  expectFactsOfFreshBuild(sb, *prog);
  // The next edit moves no call and leaves nothing to rebuild.
  rewrite(*prog, prog->findUnit("Q")->body[0], [](fortran::Stmt&) {});
  EXPECT_FALSE(sb.applyEdit({"Q"}).structureChanged);
  expectSameGraph(sb.callGraph(), CallGraph::build(*prog));
}

TEST(IncrementalSummaries, SecondCommonWriteInALeafDropsTheCensusConstant) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  const std::vector<std::string> commonUsers = {"MAIN", "R"};
  for (const std::string& name : commonUsers) {
    EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit(name)).at("N"), 100)
        << name;
  }

  // R gains `N = 7`: N has two writes and is no program-wide constant.
  fortran::Procedure& r = *prog->findUnit("R");
  fortran::StmtPtr write = r.body[0]->clone();
  write->lhs = fortran::makeVarRef("N");
  write->rhs = fortran::makeIntConst(7);
  r.body.push_back(std::move(write));
  prog->assignIds();
  SummaryBuilder::Update up = sb.applyEdit({"R"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_TRUE(up.globalFactsChanged);
  for (const std::string& name : commonUsers) {
    EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit(name)).count("N"), 0u)
        << name;
  }
  expectFactsOfFreshBuild(sb, *prog);

  // Deleting the second write restores the constant everywhere.
  r.body.pop_back();
  up = sb.applyEdit({"R"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_TRUE(up.globalFactsChanged);
  for (const std::string& name : commonUsers) {
    EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit(name)).at("N"), 100)
        << name;
  }
  expectFactsOfFreshBuild(sb, *prog);
}

TEST(IncrementalSummaries, LeafWritingItsFormalMakesACallerActualAWrite) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("N"), 100);

  // Q's `X = L` becomes `L = X`. Q now writes its formal, so MAIN's
  // unedited `CALL Q(N)` is a second write of N.
  rewrite(*prog, prog->findUnit("Q")->body[0],
          [](fortran::Stmt& s) { std::swap(s.lhs, s.rhs); });
  SummaryBuilder::Update up = sb.applyEdit({"Q"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_EQ(up.staleAnalyses, (std::set<std::string>{"MAIN", "Q"}));
  EXPECT_TRUE(up.globalFactsChanged);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("MAIN")).count("N"), 0u);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).count("N"), 0u);
  expectFactsOfFreshBuild(sb, *prog);
}

TEST(IncrementalSummaries, FunctionWritingItsFormalMakesACallerActualAWrite) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      COMMON /C/ N\n"
      "      N = 100\n"
      "      X = G(N)\n"
      "      CALL R\n"
      "      END\n"
      "      SUBROUTINE R\n"
      "      COMMON /C/ N\n"
      "      PRINT *, N\n"
      "      END\n"
      "      REAL FUNCTION G(L)\n"
      "      G = L\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("N"), 100);

  // G's `G = L` becomes `L = G`. G now writes its formal, so MAIN's
  // unedited `X = G(N)` is a second write of N.
  rewrite(*prog, prog->findUnit("G")->body[0],
          [](fortran::Stmt& s) { std::swap(s.lhs, s.rhs); });
  SummaryBuilder::Update up = sb.applyEdit({"G"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_TRUE(up.globalFactsChanged);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).count("N"), 0u);
  expectFactsOfFreshBuild(sb, *prog);
}

TEST(IncrementalSummaries, OperandWriteDropsTheRelationThatNamesIt) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      COMMON /C/ N, M\n"
      "      N = 100\n"
      "      M = N - 1\n"
      "      CALL R\n"
      "      END\n"
      "      SUBROUTINE R\n"
      "      COMMON /C/ N, M\n"
      "      X = M\n"
      "      END\n");
  SummaryBuilder sb(*prog);
  const fortran::Procedure& r = *prog->findUnit("R");
  ASSERT_EQ(sb.inheritedRelationsFor(r).size(), 1u);
  EXPECT_EQ(sb.inheritedRelationsFor(r)[0].name, "M");

  // R's `X = M` becomes `N = M`. M's own write did not move, but its
  // operand N is now written twice, so M = N - 1 no longer holds on entry.
  rewrite(*prog, prog->findUnit("R")->body[0], [](fortran::Stmt& s) {
    s.lhs = fortran::makeVarRef("N");
    s.rhs = fortran::makeVarRef("M");
  });
  SummaryBuilder::Update up = sb.applyEdit({"R"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_TRUE(up.globalFactsChanged);
  EXPECT_TRUE(sb.inheritedRelationsFor(r).empty());
  expectFactsOfFreshBuild(sb, *prog);
}

TEST(IncrementalSummaries, TransformedCallLiteralIsReportedByItsOwnUpdate) {
  auto prog = parse(kCallLiterals);
  SummaryBuilder sb(*prog);
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("M"), 5);

  // A transformation rewrites MAIN's call literal, and MAIN is updated at
  // once: the update reports R's new constant.
  rewrite(*prog, callOfR(*prog),
          [](fortran::Stmt& s) { s.args[1]->intValue = 6; });
  SummaryBuilder::Update up = sb.applyEdit({"MAIN"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_EQ(up.formalConstantsChanged, std::set<std::string>{"R"});
  EXPECT_EQ(sb.inheritedConstantsFor(*prog->findUnit("R")).at("M"), 6);
  // The next edit is in Q, and has nothing of MAIN's left to report.
  rewrite(*prog, prog->findUnit("Q")->body[0], [](fortran::Stmt&) {});
  up = sb.applyEdit({"Q"});
  EXPECT_FALSE(up.structureChanged);
  EXPECT_TRUE(up.formalConstantsChanged.empty());
  expectFactsOfFreshBuild(sb, *prog);
}

// ---------------------------------------------------------------------------
// The summary phase on a pool
// ---------------------------------------------------------------------------

/// Run a Deferred builder's schedule() phase on pools of 1, 2, 4 and 8
/// workers and require every summary and every unit's inherited facts to
/// equal the eager constructor's.
void expectPooledPhaseMatchesEagerBuild(const std::string& source,
                                        const std::string& label) {
  auto reference = parse(source);
  const SummaryBuilder eager(*reference);
  for (int threads : {1, 2, 4, 8}) {
    auto prog = parse(source);
    SummaryBuilder sb(*prog, SummaryBuilder::Deferred{});
    support::TaskPool pool(threads);
    support::TaskGraph phase;
    (void)sb.schedule(phase);
    ASSERT_GT(phase.size(), 0u) << label;
    phase.run(pool);
    for (const auto& u : prog->units) {
      const std::string at = label + " " + u->name + " @" +
                             std::to_string(threads);
      const ProcSummary* got = sb.summaryOf(u->name);
      const ProcSummary* want = eager.summaryOf(u->name);
      ASSERT_EQ(got != nullptr, want != nullptr) << at;
      if (got) {
        EXPECT_TRUE(*got == *want) << at;
      }
      EXPECT_EQ(sb.inheritedConstantsFor(u->name),
                eager.inheritedConstantsFor(u->name))
          << at;
      EXPECT_EQ(sb.inheritedRelationsFor(u->name),
                eager.inheritedRelationsFor(u->name))
          << at;
    }
    // Final summaries: a second phase adds nothing and gates nothing.
    support::TaskGraph again;
    EXPECT_TRUE(sb.schedule(again).empty()) << label;
    EXPECT_EQ(again.size(), 0u) << label;
  }
}

TEST(SummaryPhase, PooledRunMatchesEagerBuildOnDecksAndGeneratedDecks) {
  for (const workloads::Workload& w : workloads::all()) {
    expectPooledPhaseMatchesEagerBuild(w.source, w.name);
  }
  for (unsigned seed : {1U, 2U, 3U}) {
    expectPooledPhaseMatchesEagerBuild(
        psbench::generateDeck(seed, 2000).source,
        "generated seed " + std::to_string(seed));
  }
}

TEST(SummaryPhase, AnalysisWaitsOnDirectCalleesAndTheCensusForCommon) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      COMMON /C/ N\n"
      "      N = 8\n"
      "      CALL MID\n"
      "      END\n"
      "      SUBROUTINE MID\n"
      "      CALL LEAF\n"
      "      CALL LEAF\n"
      "      CALL LIBFN\n"
      "      END\n"
      "      SUBROUTINE LEAF\n"
      "      END\n");
  SummaryBuilder sb(*prog, SummaryBuilder::Deferred{});
  support::TaskGraph phase;
  const auto waits = sb.schedule(phase);
  auto waitsOf = [&](const std::string& name) {
    const std::vector<std::size_t>& w = waits.at(name);
    return std::set<std::size_t>(w.begin(), w.end());
  };
  // Nodes: LEAF, MID, MAIN (bottom-up), then the census.
  ASSERT_EQ(phase.size(), 4u);
  EXPECT_EQ(waitsOf("LEAF"), std::set<std::size_t>{});
  EXPECT_EQ(waitsOf("MID"), std::set<std::size_t>{0});
  EXPECT_EQ(waitsOf("MAIN"), (std::set<std::size_t>{1, 3}));
  phase.runInOrder();
  EXPECT_EQ(sb.inheritedConstantsFor("MID").count("N"), 0u);
  EXPECT_EQ(sb.inheritedConstantsFor("MAIN").at("N"), 8);
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
