#include <gtest/gtest.h>

#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "interp/machine.h"
#include "interproc/summaries.h"
#include "support/diagnostics.h"
#include "transform/transform.h"

namespace ps::transform {
namespace {

using fortran::Program;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;

std::unique_ptr<Program> parse(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return prog;
}

/// A parsed program with a workspace on one unit.
struct Fixture {
  std::unique_ptr<Program> prog;
  std::unique_ptr<Workspace> ws;
};

Fixture make(std::string_view src, const std::string& unit = "") {
  Fixture f;
  f.prog = parse(src);
  fortran::Procedure* proc =
      unit.empty() ? f.prog->units[0].get() : f.prog->findUnit(unit);
  EXPECT_NE(proc, nullptr);
  f.ws = std::make_unique<Workspace>(*f.prog, *proc);
  return f;
}

/// The n-th loop (pre-order) of the workspace's procedure.
StmtId nthLoop(const Workspace& ws, std::size_t n) {
  const auto& loops = ws.model->loops();
  EXPECT_LT(n, loops.size());
  return loops[n]->stmt->id;
}

/// The n-th statement of a given kind, pre-order.
StmtId nthStmt(const Workspace& ws, StmtKind kind, std::size_t n) {
  std::size_t seen = 0;
  for (const Stmt* s : ws.model->allStmts()) {
    if (s->kind == kind) {
      if (seen == n) return s->id;
      ++seen;
    }
  }
  ADD_FAILURE() << "statement not found";
  return fortran::kInvalidStmt;
}

/// Offer a transformation the way a user would: apply it when power
/// steering allows, then require the program to compute the same outputs
/// as before (the interpreter is the ground truth for `safe`). Returns
/// whether it was applied; `error` receives the refusal.
bool applyIfAllowedKeepsSemantics(
    std::string_view src, const std::string& name,
    const std::function<Target(Workspace&)>& mkTarget, std::string* error,
    const std::string& unit = "", double tol = 1e-9) {
  auto original = parse(src);
  auto r0 = interp::Machine(*original).run();
  EXPECT_TRUE(r0.ok) << r0.error;

  Fixture f = make(src, unit);
  const Transformation* tr = Registry::instance().byName(name);
  EXPECT_NE(tr, nullptr) << name;
  if (!tr) return false;
  const bool applied = tr->apply(*f.ws, mkTarget(*f.ws), error);

  auto r1 = interp::Machine(*f.prog).run();
  EXPECT_TRUE(r1.ok) << r1.error << "\n" << fortran::printProgram(*f.prog);
  EXPECT_TRUE(r1.ok && r0.outputEquals(r1, tol))
      << name << " changed program semantics:\n"
      << fortran::printProgram(*f.prog);
  return applied;
}

/// Apply a transformation that power steering must allow, and verify the
/// program still computes the same outputs.
void applyAndCheckSemantics(std::string_view src, const std::string& name,
                            const std::function<Target(Workspace&)>& mkTarget,
                            const std::string& unit = "",
                            double tol = 1e-9) {
  std::string error;
  EXPECT_TRUE(
      applyIfAllowedKeepsSemantics(src, name, mkTarget, &error, unit, tol))
      << name << ": " << error;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, AllFigure2TransformsPresent) {
  const char* expected[] = {
      "Loop Distribution",  "Loop Interchange",   "Loop Fusion",
      "Loop Reversal",      "Statement Interchange", "Loop Peeling",
      "Loop Splitting",     "Loop Skewing",       "Loop Alignment",
      "Privatization",      "Scalar Expansion",   "Array Renaming",
      "Strip Mining",       "Loop Unrolling",     "Unroll and Jam",
      "Scalar Replacement", "Sequential to Parallel",
      "Parallel to Sequential", "Loop Bounds Adjusting",
      "Statement Deletion", "Statement Addition",
      "Arithmetic IF Removal", "Control Flow Structuring",
      "Reduction Recognition", "Loop Extraction", "Loop Embedding",
  };
  for (const char* name : expected) {
    EXPECT_NE(Registry::instance().byName(name), nullptr) << name;
  }
}

TEST(Registry, TaxonomyListsCategories) {
  std::string tax = Registry::instance().taxonomy();
  EXPECT_NE(tax.find("Reordering"), std::string::npos);
  EXPECT_NE(tax.find("Dependence Breaking"), std::string::npos);
  EXPECT_NE(tax.find("Memory Optimizing"), std::string::npos);
  EXPECT_NE(tax.find("Miscellaneous"), std::string::npos);
  EXPECT_NE(tax.find("Loop Skewing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The power-steering gate
// ---------------------------------------------------------------------------

// Loops of every shape the catalog looks for (a parallel pair, a
// recurrence with a reduction and a temporary, a non-unit step, a perfect
// nest, a loop around a CALL) and statements (an arithmetic IF, a GOTO
// conditional, CALLs).
const char* kGateProgram =
    "      PROGRAM MAIN\n"
    "      REAL A(10), B(10), C(10, 10)\n"
    "      S = 0.0\n"
    "      DO I = 1, 10\n"
    "        A(I) = FLOAT(I)\n"
    "        B(I) = A(I)*2.0\n"
    "      ENDDO\n"
    "      DO 20 I = 2, 10\n"
    "        T = A(I - 1) + B(I)\n"
    "        A(I) = T\n"
    "        S = S + A(I)\n"
    "   20 CONTINUE\n"
    "      DO J = 1, 10, 2\n"
    "        B(J) = A(J)\n"
    "      ENDDO\n"
    "      DO J = 1, 10\n"
    "        DO I = 2, 10\n"
    "          C(I, J) = C(I - 1, J) + 1.0\n"
    "        ENDDO\n"
    "      ENDDO\n"
    "      DO K = 1, 10\n"
    "        CALL SCALE(B, K)\n"
    "      ENDDO\n"
    "      IF (S) 30, 30, 40\n"
    "   30 S = 1.0\n"
    "   40 CONTINUE\n"
    "      IF (S .GT. 5.0) GOTO 50\n"
    "      S = S + 1.0\n"
    "   50 CONTINUE\n"
    "      CALL FILL(C, 10)\n"
    "      WRITE(6, *) S, A(10), B(9), C(5, 5)\n"
    "      END\n"
    "      SUBROUTINE SCALE(B, K)\n"
    "      REAL B(10)\n"
    "      B(K) = B(K)*2.0\n"
    "      END\n"
    "      SUBROUTINE FILL(C, N)\n"
    "      REAL C(10, 10)\n"
    "      DO J = 1, N\n"
    "        C(1, J) = 0.0\n"
    "      ENDDO\n"
    "      END\n";

// Every transformation is applied through one gate: wherever advise does
// not answer safe, apply refuses with advise's explanation and the program
// stays as it was.
TEST(Gate, EveryTransformationRefusesWhatAdviseDoesNotCallSafe) {
  // Parsing assigns the same statement ids every time, so targets taken
  // from one fixture name the same statements in the next.
  Fixture probe = make(kGateProgram);
  std::vector<Target> targets;
  const auto& loops = probe.ws->model->loops();
  for (std::size_t i = 0; i < loops.size(); ++i) {
    for (const char* variable : {"", "S", "T", "A"}) {
      Target t;
      t.loop = loops[i]->stmt->id;
      if (i + 1 < loops.size()) t.secondLoop = loops[i + 1]->stmt->id;
      t.variable = variable;
      targets.push_back(t);
    }
  }
  for (const Stmt* s : probe.ws->model->allStmts()) {
    Target t;
    t.stmt = s->id;
    targets.push_back(t);
  }

  int refusals = 0;
  for (const Transformation* tr : Registry::instance().all()) {
    Fixture f = make(kGateProgram);
    const std::string before = fortran::printProgram(*f.prog);
    for (const Target& t : targets) {
      const Advice a = tr->advise(*f.ws, t);
      if (a.safe) continue;
      ++refusals;
      std::string error = "(not set)";
      EXPECT_FALSE(tr->apply(*f.ws, t, &error))
          << tr->name() << ": " << a.explanation;
      EXPECT_EQ(error, a.explanation) << tr->name();
      if (fortran::printProgram(*f.prog) != before) {
        ADD_FAILURE() << tr->name() << " changed the program although "
                      << "advise said: " << a.explanation;
        f.ws.reset();
        f = make(kGateProgram);
      }
    }
  }
  EXPECT_GT(refusals, 0);
}

// ---------------------------------------------------------------------------
// Loop Distribution
// ---------------------------------------------------------------------------

const char* kDistProgram =
    "      PROGRAM MAIN\n"
    "      REAL A(20), B(20), S(20)\n"
    "      S(1) = 1.0\n"
    "      DO I = 2, 20\n"
    "        S(I) = S(I - 1) + 1.0\n"
    "        A(I) = FLOAT(I)*2.0\n"
    "        B(I) = A(I) + 1.0\n"
    "      ENDDO\n"
    "      WRITE(6, *) S(20), A(20), B(20)\n"
    "      END\n";

TEST(Distribution, AdviceAndShape) {
  Fixture f = make(kDistProgram);
  const auto* tr = Registry::instance().byName("Loop Distribution");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  Advice a = tr->advise(*f.ws, t);
  EXPECT_TRUE(a.applicable);
  EXPECT_TRUE(a.safe);
  EXPECT_TRUE(a.profitable) << a.explanation;

  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  // Now there are at least two top-level loops, and at least one is
  // parallelizable while the recurrence one is not.
  auto tops = f.ws->model->topLevelLoops();
  ASSERT_GE(tops.size(), 2u);
  int parallel = 0, serial = 0;
  for (auto* l : tops) {
    if (f.ws->graph->parallelizable(*l)) {
      ++parallel;
    } else {
      ++serial;
    }
  }
  EXPECT_GE(parallel, 1);
  EXPECT_EQ(serial, 1);
}

TEST(Distribution, PreservesSemantics) {
  applyAndCheckSemantics(kDistProgram, "Loop Distribution",
                         [](Workspace& ws) {
                           Target t;
                           t.loop = nthLoop(ws, 0);
                           return t;
                         });
}

TEST(Distribution, RefusesUnstructuredBody) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      DO 10 I = 1, 10\n"
      "        IF (A(I) .GT. 0.0) GOTO 10\n"
      "        A(I) = 1.0\n"
      "   10 CONTINUE\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Distribution");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  Advice a = tr->advise(*f.ws, t);
  EXPECT_FALSE(a.safe);
}

TEST(Distribution, RespectsDependenceOrder) {
  // B depends on A's loop-carried result: B's group must come second even
  // though... actually the groups must respect topological order.
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(15), B(15)\n"
      "      A(1) = 1.0\n"
      "      DO I = 2, 15\n"
      "        A(I) = A(I - 1)*1.5\n"
      "        B(I) = A(I) + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(15), B(15)\n"
      "      END\n",
      "Loop Distribution", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        return t;
      });
}

// ---------------------------------------------------------------------------
// Loop Interchange
// ---------------------------------------------------------------------------

const char* kInterchangeProgram =
    "      PROGRAM MAIN\n"
    "      REAL A(8, 8)\n"
    "      DO J = 2, 8\n"
    "        DO I = 1, 8\n"
    "          A(I, J) = FLOAT(I + J)\n"
    "        ENDDO\n"
    "      ENDDO\n"
    "      WRITE(6, *) A(3, 5), A(8, 8)\n"
    "      END\n";

TEST(Interchange, SwapsHeaders) {
  Fixture f = make(kInterchangeProgram);
  const auto* tr = Registry::instance().byName("Loop Interchange");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  auto tops = f.ws->model->topLevelLoops();
  ASSERT_EQ(tops.size(), 1u);
  EXPECT_EQ(tops[0]->inductionVar(), "I");
  EXPECT_EQ(tops[0]->children[0]->inductionVar(), "J");
}

TEST(Interchange, PreservesSemantics) {
  applyAndCheckSemantics(kInterchangeProgram, "Loop Interchange",
                         [](Workspace& ws) {
                           Target t;
                           t.loop = nthLoop(ws, 0);
                           return t;
                         });
}

TEST(Interchange, RefusesIllegalDirectionVector) {
  // A(I,J) = A(I-1,J+1): dep vector (<,>) — interchange illegal.
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(10, 10)\n"
      "      DO I = 2, 9\n"
      "        DO J = 1, 9\n"
      "          A(I, J) = A(I - 1, J + 1)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Interchange");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  Advice a = tr->advise(*f.ws, t);
  EXPECT_TRUE(a.applicable);
  EXPECT_FALSE(a.safe);
}

TEST(Interchange, LegalWhenBothForward) {
  // A(I,J) = A(I-1,J-1): (<,<) — interchange legal, still (<,<).
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(10, 10)\n"
      "      DO I = 1, 10\n"
      "        A(I, 1) = FLOAT(I)\n"
      "        A(1, I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 2, 9\n"
      "        DO J = 2, 9\n"
      "          A(I, J) = A(I - 1, J - 1) + 1.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(9, 9), A(5, 7)\n"
      "      END\n",
      "Loop Interchange", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 1);
        return t;
      });
}

TEST(Interchange, RefusesTriangular) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(10, 10)\n"
      "      DO I = 1, 10\n"
      "        DO J = I, 10\n"
      "          A(I, J) = 1.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Interchange");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
}

TEST(Interchange, ProfitableWhenMovesParallelismOutward) {
  // Outer carries the dependence, inner is parallel: interchange puts the
  // parallel loop outside.
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(10, 10)\n"
      "      DO J = 2, 9\n"
      "        DO I = 1, 10\n"
      "          A(I, J) = A(I, J - 1)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Interchange");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  EXPECT_TRUE(a.profitable);
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error));
  auto tops = f.ws->model->topLevelLoops();
  EXPECT_TRUE(f.ws->graph->parallelizable(*tops[0]));
}

// ---------------------------------------------------------------------------
// Loop Fusion
// ---------------------------------------------------------------------------

const char* kFusionProgram =
    "      PROGRAM MAIN\n"
    "      REAL A(20), B(20)\n"
    "      DO I = 1, 20\n"
    "        A(I) = FLOAT(I)\n"
    "      ENDDO\n"
    "      DO I = 1, 20\n"
    "        B(I) = A(I)*2.0\n"
    "      ENDDO\n"
    "      WRITE(6, *) B(20)\n"
    "      END\n";

TEST(Fusion, FusesAdjacentCompatibleLoops) {
  Fixture f = make(kFusionProgram);
  const auto* tr = Registry::instance().byName("Loop Fusion");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  t.secondLoop = nthLoop(*f.ws, 1);
  Advice a = tr->advise(*f.ws, t);
  EXPECT_TRUE(a.safe) << a.explanation;
  EXPECT_TRUE(a.profitable);
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  EXPECT_EQ(f.ws->model->topLevelLoops().size(), 1u);
  EXPECT_EQ(f.ws->model->topLevelLoops()[0]->bodyStmts.size(), 2u);
}

TEST(Fusion, PreservesSemantics) {
  applyAndCheckSemantics(kFusionProgram, "Loop Fusion", [](Workspace& ws) {
    Target t;
    t.loop = nthLoop(ws, 0);
    t.secondLoop = nthLoop(ws, 1);
    return t;
  });
}

TEST(Fusion, RefusesBackwardDependence) {
  // Loop 2 reads A(I+1), written by loop 1: fusing would read a not-yet-
  // written value.
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(21), B(20)\n"
      "      DO I = 1, 20\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 20\n"
      "        B(I) = A(I + 1)\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Fusion");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  t.secondLoop = nthLoop(*f.ws, 1);
  Advice a = tr->advise(*f.ws, t);
  EXPECT_TRUE(a.applicable);
  EXPECT_FALSE(a.safe);
}

TEST(Fusion, RenamesDifferentInductionVariables) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(20), B(20)\n"
      "      DO I = 1, 20\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO K = 1, 20\n"
      "        B(K) = A(K)*3.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) B(7)\n"
      "      END\n",
      "Loop Fusion", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        t.secondLoop = nthLoop(ws, 1);
        return t;
      });
}

TEST(Fusion, RefusesDifferentBounds) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(20), B(20)\n"
      "      DO I = 1, 20\n"
      "        A(I) = 1.0\n"
      "      ENDDO\n"
      "      DO I = 1, 19\n"
      "        B(I) = 2.0\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Fusion");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  t.secondLoop = nthLoop(*f.ws, 1);
  EXPECT_FALSE(tr->advise(*f.ws, t).applicable);
}

// ---------------------------------------------------------------------------
// Reversal / Statement Interchange / Peeling / Splitting / Skewing
// ---------------------------------------------------------------------------

TEST(Reversal, SafeOnParallelLoopAndPreservesSemantics) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(12)\n"
      "      DO I = 1, 12\n"
      "        A(I) = FLOAT(I*I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(5), A(12)\n"
      "      END\n",
      "Loop Reversal", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        return t;
      });
}

TEST(Reversal, RefusesRecurrence) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(12)\n"
      "      DO I = 2, 12\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Loop Reversal");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
}

// DO I = 1, 10, 2 visits the odd iterations. Swapping its bounds and
// negating the step would visit 10, 8, ..., 2 instead, so only a step of 1
// or -1 is reversed.
TEST(Reversal, RefusesNonUnitStep) {
  std::string error;
  EXPECT_FALSE(applyIfAllowedKeepsSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      DO I = 1, 10\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      DO I = 1, 10, 2\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1), A(2), A(9), A(10)\n"
      "      END\n",
      "Loop Reversal", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 1);
        return t;
      },
      &error));
  EXPECT_EQ(error, "only loops with step 1 or -1 are reversed");
}

// slalom's DO 700 J = ..., -1 shape: a step of -1 is still reversed.
TEST(Reversal, ReversesStepMinusOne) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(12)\n"
      "      DO I = 12, 1, -1\n"
      "        A(I) = FLOAT(I*I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1), A(12)\n"
      "      END\n",
      "Loop Reversal", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        return t;
      });
}

TEST(StatementInterchange, SwapsIndependentRefusesDependent) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(10), B(10), C(10)\n"
      "      DO I = 1, 10\n"
      "        A(I) = FLOAT(I)\n"
      "        B(I) = FLOAT(I)*2.0\n"
      "        C(I) = B(I) + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(3), B(3), C(3)\n"
      "      END\n";
  // A and B assignments are independent: swap ok.
  applyAndCheckSemantics(src, "Statement Interchange", [](Workspace& ws) {
    Target t;
    t.stmt = nthStmt(ws, StmtKind::Assign, 0);
    return t;
  });
  // B and C are dependent: refuse.
  Fixture f = make(src);
  const auto* tr = Registry::instance().byName("Statement Interchange");
  Target t;
  t.stmt = nthStmt(*f.ws, StmtKind::Assign, 1);
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
}

TEST(Peeling, PreservesSemantics) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      A(1) = 5.0\n"
      "      DO I = 2, 10\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(10)\n"
      "      END\n",
      "Loop Peeling", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        return t;
      });
}

TEST(Peeling, ZeroTripLoopStillCorrect) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      A(1) = 5.0\n"
      "      N = 0\n"
      "      DO I = 1, N\n"
      "        A(I) = 99.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1)\n"
      "      END\n",
      "Loop Peeling", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        return t;
      });
}

class SplittingSweep : public ::testing::TestWithParam<long long> {};

TEST_P(SplittingSweep, PreservesSemanticsForAnySplitPoint) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(20)\n"
      "      S = 0.0\n"
      "      DO I = 1, 20\n"
      "        A(I) = FLOAT(I)\n"
      "        S = S + A(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n",
      "Loop Splitting", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        t.splitPoint = GetParam();
        return t;
      });
}

INSTANTIATE_TEST_SUITE_P(Points, SplittingSweep,
                         ::testing::Values(-5, 0, 1, 7, 19, 20, 50));

TEST(Skewing, PreservesSemantics) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(10, 30)\n"
      "      DO I = 1, 10\n"
      "        DO J = 1, 10\n"
      "          A(I, J) = FLOAT(I*J)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(3, 7), A(10, 10)\n"
      "      END\n",
      "Loop Skewing", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        t.factor = 1;
        return t;
      });
}

TEST(Alignment, MakesRecurrencePairParallel) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(22), C(22)\n"
      "      A(1) = 1.0\n"
      "      C(1) = 0.0\n"
      "      DO I = 2, 20\n"
      "        A(I) = FLOAT(I)*3.0\n"
      "        C(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(20), C(20), C(2)\n"
      "      END\n";
  Fixture f = make(src);
  const auto* tr = Registry::instance().byName("Loop Alignment");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  EXPECT_TRUE(a.profitable);
  applyAndCheckSemantics(src, "Loop Alignment", [](Workspace& ws) {
    Target t2;
    t2.loop = nthLoop(ws, 0);
    return t2;
  });
}

// ---------------------------------------------------------------------------
// Dependence breaking
// ---------------------------------------------------------------------------

TEST(ScalarExpansion, MakesLoopParallelAndPreservesSemantics) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(15)\n"
      "      DO I = 1, 15\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 15\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(15)\n"
      "      END\n";
  // With no privatization (ablation off), T's deps serialize the loop;
  // scalar expansion materially removes them.
  Fixture f = make(src);
  f.ws->actx.usePrivatization = false;
  f.ws->reanalyze();
  auto* loop = f.ws->model->topLevelLoops()[1];
  EXPECT_FALSE(f.ws->graph->parallelizable(*loop));
  const auto* tr = Registry::instance().byName("Scalar Expansion");
  Target t;
  t.loop = loop->stmt->id;
  t.variable = "T";
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  loop = f.ws->model->topLevelLoops()[1];
  EXPECT_TRUE(f.ws->graph->parallelizable(*loop));

  applyAndCheckSemantics(src, "Scalar Expansion", [](Workspace& ws) {
    Target t2;
    t2.loop = nthLoop(ws, 1);
    t2.variable = "T";
    return t2;
  });
}

TEST(ScalarExpansion, LastValueCopyOut) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(9)\n"
      "      DO I = 1, 9\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 9\n"
      "        T = A(I) + 1.0\n"
      "        A(I) = T*2.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) T\n"
      "      END\n",
      "Scalar Expansion", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 1);
        t.variable = "T";
        return t;
      });
}

// The statement after the loop reads T before assigning it, so the loop's
// last T must be copied out of the expansion array.
TEST(ScalarExpansion, LastValueCopyOutForReadThenWrite) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(9)\n"
      "      DO I = 1, 9\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 9\n"
      "        T = A(I) + 1.0\n"
      "        A(I) = T*2.0\n"
      "      ENDDO\n"
      "      T = T + 1.0\n"
      "      WRITE(6, *) T\n"
      "      END\n",
      "Scalar Expansion", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 1);
        t.variable = "T";
        return t;
      });
}

TEST(ScalarExpansion, RefusesAccumulator) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(9)\n"
      "      S = 0.0\n"
      "      DO I = 1, 9\n"
      "        S = S + FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Scalar Expansion");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  t.variable = "S";
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
}

// The inner bound reads the outer DO variable J. An expansion array
// T$X(1:J*5) would be sized at procedure entry, before J holds any
// iteration's value, and the second J's iterations would run past it.
TEST(ScalarExpansion, RefusesBoundsTheProcedureWrites) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(10, 2)\n"
      "      DO J = 1, 2\n"
      "        DO I = 1, J*5\n"
      "          T = FLOAT(I + J)\n"
      "          A(I, J) = T*2.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(5, 1), A(10, 2)\n"
      "      END\n";
  auto innerT = [](Workspace& ws) {
    Target t;
    t.loop = nthLoop(ws, 1);
    t.variable = "T";
    return t;
  };
  Fixture f = make(src);
  const auto* tr = Registry::instance().byName("Scalar Expansion");
  const Advice a = tr->advise(*f.ws, innerT(*f.ws));
  EXPECT_TRUE(a.applicable) << a.explanation;
  EXPECT_FALSE(a.safe) << a.explanation;
  EXPECT_NE(a.explanation.find("read J,"), std::string::npos)
      << a.explanation;
  std::string error;
  EXPECT_FALSE(
      applyIfAllowedKeepsSemantics(src, "Scalar Expansion", innerT, &error));
  EXPECT_EQ(error, a.explanation);
}

TEST(ArrayRenaming, BreaksAntiDependence) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(21)\n"
      "      DO I = 1, 21\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 20\n"
      "        A(I) = A(I + 1)*2.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1), A(20)\n"
      "      END\n";
  Fixture f = make(src);
  auto* loop = f.ws->model->topLevelLoops()[1];
  EXPECT_FALSE(f.ws->graph->parallelizable(*loop));
  const auto* tr = Registry::instance().byName("Array Renaming");
  Target t;
  t.loop = loop->stmt->id;
  t.variable = "A";
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  // The (second) original loop is now parallel.
  bool anyParallelWithWrite = false;
  for (auto* l : f.ws->model->topLevelLoops()) {
    if (l->stmt->body.size() == 1 && f.ws->graph->parallelizable(*l)) {
      anyParallelWithWrite = true;
    }
  }
  EXPECT_TRUE(anyParallelWithWrite);

  applyAndCheckSemantics(src, "Array Renaming", [](Workspace& ws) {
    Target t2;
    t2.loop = nthLoop(ws, 1);
    t2.variable = "A";
    return t2;
  });
}

TEST(ArrayRenaming, RefusesFlowDependence) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(21)\n"
      "      DO I = 2, 20\n"
      "        A(I) = A(I - 1)*2.0\n"
      "      ENDDO\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Array Renaming");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  t.variable = "A";
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
}

// ---------------------------------------------------------------------------
// Memory optimizing
// ---------------------------------------------------------------------------

TEST(StripMining, PreservesSemantics) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(23)\n"
      "      DO I = 1, 23\n"
      "        A(I) = FLOAT(I)*1.5\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1), A(17), A(23)\n"
      "      END\n",
      "Strip Mining", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        t.factor = 5;
        return t;
      });
}

class UnrollSweep : public ::testing::TestWithParam<long long> {};

TEST_P(UnrollSweep, PreservesSemanticsForAnyFactor) {
  // Trip count 23 is deliberately not divisible by most factors.
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(24)\n"
      "      A(1) = 1.0\n"
      "      DO I = 2, 23\n"
      "        A(I) = A(I - 1) + FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(23)\n"
      "      END\n",
      "Loop Unrolling", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 0);
        t.factor = GetParam();
        return t;
      });
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollSweep,
                         ::testing::Values(2, 3, 4, 5, 7, 11));

TEST(UnrollAndJam, PreservesSemantics) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(9, 9), B(9, 9)\n"
      "      DO I = 1, 9\n"
      "        DO J = 1, 9\n"
      "          B(I, J) = FLOAT(I + J)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      DO I = 1, 9\n"
      "        DO J = 1, 9\n"
      "          A(I, J) = B(I, J)*2.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(9, 9), A(4, 6)\n"
      "      END\n",
      "Unroll and Jam", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 2);
        t.factor = 2;
        return t;
      });
}

TEST(ScalarReplacement, ReplacesInvariantRef) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(10), B(10)\n"
      "      K = 3\n"
      "      DO I = 1, 10\n"
      "        B(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 10\n"
      "        B(I) = B(I) + A(K)\n"
      "      ENDDO\n"
      "      WRITE(6, *) B(10)\n"
      "      END\n";
  applyAndCheckSemantics(src, "Scalar Replacement", [](Workspace& ws) {
    Target t;
    t.loop = nthLoop(ws, 1);
    t.variable = "A";
    return t;
  });
}

// ---------------------------------------------------------------------------
// Sequential <-> Parallel with the race detector as ground truth
// ---------------------------------------------------------------------------

TEST(Parallelize, SafeLoopRunsWithoutRaces) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(30), B(30)\n"
      "      DO I = 1, 30\n"
      "        B(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 30\n"
      "        A(I) = B(I)*B(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(30)\n"
      "      END\n";
  Fixture f = make(src);
  const auto* tr = Registry::instance().byName("Sequential to Parallel");
  Target t;
  t.loop = nthLoop(*f.ws, 1);
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  // The race detector agrees with the static analysis.
  interp::Machine m(*f.prog);
  auto r = m.run();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
}

TEST(Parallelize, RefusedForRecurrenceAndDetectorAgrees) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(30)\n"
      "      A(1) = 1.0\n"
      "      DO I = 2, 30\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(30)\n"
      "      END\n";
  Fixture f = make(src);
  const auto* tr = Registry::instance().byName("Sequential to Parallel");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
  // Force it anyway (simulating a user overriding): the dynamic detector
  // reports a race.
  f.ws->model->topLevelLoops()[0]->stmt->isParallel = true;
  interp::Machine m(*f.prog);
  auto r = m.run();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.races.empty());
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

const char* kNeossProgram =
    "      PROGRAM MAIN\n"
    "      REAL DENV(8), RES(9)\n"
    "      DO I = 1, 8\n"
    "        DENV(I) = FLOAT(I) - 4.0\n"
    "      ENDDO\n"
    "      RES(9) = 0.0\n"
    "      DO 50 K = 1, 8\n"
    "        IF (DENV(K) - RES(9)) 100, 10, 10\n"
    "   10   CONTINUE\n"
    "        DENV(K) = DENV(K)*2.0\n"
    "        GOTO 101\n"
    "  100   DENV(K) = 0.0\n"
    "  101   RES(K) = DENV(K)\n"
    "   50 CONTINUE\n"
    "      WRITE(6, *) RES(1), RES(4), RES(8)\n"
    "      END\n";

TEST(ControlFlow, ArithmeticIfRemovalPreservesSemantics) {
  applyAndCheckSemantics(kNeossProgram, "Arithmetic IF Removal",
                         [](Workspace& ws) {
                           Target t;
                           t.stmt =
                               nthStmt(ws, StmtKind::ArithmeticIf, 0);
                           return t;
                         });
}

TEST(ControlFlow, FullNeossStructuringPipeline) {
  // Step 1: remove the arithmetic IF; step 2: structure the remaining
  // IF-GOTO pattern into IF-THEN-ELSE; the loop body ends up free of GOTOs
  // — the hand transformation §5.3 describes, automated.
  auto original = parse(kNeossProgram);
  interp::Machine m0(*original);
  auto r0 = m0.run();
  ASSERT_TRUE(r0.ok);

  Fixture f = make(kNeossProgram);
  const auto* aifr = Registry::instance().byName("Arithmetic IF Removal");
  Target t1;
  t1.stmt = nthStmt(*f.ws, StmtKind::ArithmeticIf, 0);
  std::string error;
  ASSERT_TRUE(aifr->apply(*f.ws, t1, &error)) << error;

  // Find the IF-GOTO produced by step 1 and structure it.
  const auto* cfs = Registry::instance().byName("Control Flow Structuring");
  StmtId ifGoto = fortran::kInvalidStmt;
  for (const Stmt* s : f.ws->model->allStmts()) {
    if (s->kind == StmtKind::If && s->isLogicalIf &&
        s->arms[0].body.size() == 1 &&
        s->arms[0].body[0]->kind == StmtKind::Goto) {
      ifGoto = s->id;
      break;
    }
  }
  ASSERT_NE(ifGoto, fortran::kInvalidStmt);
  Target t2;
  t2.stmt = ifGoto;
  Advice a = cfs->advise(*f.ws, t2);
  ASSERT_TRUE(a.safe) << a.explanation;
  ASSERT_TRUE(cfs->apply(*f.ws, t2, &error)) << error;

  // No GOTOs or arithmetic IFs remain in the loop body.
  int gotos = 0;
  f.ws->proc.forEachStmt([&](const Stmt& s) {
    if (s.kind == StmtKind::Goto || s.kind == StmtKind::ArithmeticIf) {
      ++gotos;
    }
  });
  EXPECT_EQ(gotos, 0) << fortran::printProcedure(f.ws->proc);

  interp::Machine m1(*f.prog);
  auto r1 = m1.run();
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_TRUE(r0.outputEquals(r1))
      << fortran::printProgram(*f.prog);
}

// ---------------------------------------------------------------------------
// Reduction recognition
// ---------------------------------------------------------------------------

TEST(Reduction, RecognizedAndParallelizesMainLoop) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(25)\n"
      "      S = 0.0\n"
      "      DO I = 1, 25\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 25\n"
      "        S = S + A(I)*A(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n";
  Fixture f = make(src);
  auto* loop = f.ws->model->topLevelLoops()[1];
  EXPECT_FALSE(f.ws->graph->parallelizable(*loop));
  const auto* tr = Registry::instance().byName("Reduction Recognition");
  Target t;
  t.loop = loop->stmt->id;
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  EXPECT_TRUE(a.profitable);
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  // The main loop (now computing partials) is parallelizable.
  loop = f.ws->model->topLevelLoops()[1];
  EXPECT_TRUE(f.ws->graph->parallelizable(*loop))
      << fortran::printProcedure(f.ws->proc);

  applyAndCheckSemantics(src, "Reduction Recognition", [](Workspace& ws) {
    Target t2;
    t2.loop = nthLoop(ws, 1);
    return t2;
  });
}

TEST(Reduction, RefusesWhenAccumulatorReadElsewhere) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(25)\n"
      "      S = 0.0\n"
      "      DO I = 1, 25\n"
      "        S = S + FLOAT(I)\n"
      "        A(I) = S\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(25)\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Reduction Recognition");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  EXPECT_FALSE(tr->advise(*f.ws, t).applicable);
}

TEST(Reduction, SubtractionForm) {
  applyAndCheckSemantics(
      "      PROGRAM MAIN\n"
      "      REAL A(12)\n"
      "      S = 100.0\n"
      "      DO I = 1, 12\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      DO I = 1, 12\n"
      "        S = S - A(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n",
      "Reduction Recognition", [](Workspace& ws) {
        Target t;
        t.loop = nthLoop(ws, 1);
        return t;
      });
}

// slalom's BACKSUB shape: the inner loop's lower bound reads the outer DO
// variable J. A partial-sum array T$PX(J + 1:5) would be sized at procedure
// entry, before J holds any iteration's value, so power steering must
// refuse instead of breaking the program.
TEST(Reduction, RefusesBoundsTheProcedureWrites) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL C(5, 5), R(5)\n"
      "      DO 10 I = 1, 5\n"
      "        R(I) = FLOAT(I)\n"
      "        DO 10 K = 1, 5\n"
      "          C(K, I) = 0.1*FLOAT(K + I)\n"
      "   10 CONTINUE\n"
      "      DO 700 J = 5, 1, -1\n"
      "        T = R(J)\n"
      "        DO 710 I = J + 1, 5\n"
      "          T = T - C(J, I)*R(I)\n"
      "  710   CONTINUE\n"
      "        R(J) = T\n"
      "  700 CONTINUE\n"
      "      DO 20 I = 1, 5\n"
      "        WRITE(6, *) R(I)\n"
      "   20 CONTINUE\n"
      "      END\n");
  const std::string before = fortran::printProgram(*f.prog);
  const auto* tr = Registry::instance().byName("Reduction Recognition");
  Target t;
  t.loop = nthLoop(*f.ws, 3);  // DO 710
  const Advice a = tr->advise(*f.ws, t);
  EXPECT_TRUE(a.applicable) << a.explanation;
  EXPECT_FALSE(a.safe) << a.explanation;
  EXPECT_NE(a.explanation.find("read J,"), std::string::npos)
      << a.explanation;
  std::string error;
  EXPECT_FALSE(tr->apply(*f.ws, t, &error));
  EXPECT_EQ(error, a.explanation);
  EXPECT_EQ(fortran::printProgram(*f.prog), before);
}

// The bound read from COMMON: SETN sets N = 5*K before each inner loop, so
// a partial-sum array S$PX(1:N) sized at procedure entry is too small for
// the second K. `writer` is the statement SETN runs.
std::string commonBoundProgram(const std::string& writer) {
  return "      PROGRAM P\n"
         "      COMMON /C/ N, M\n"
         "      REAL A(10)\n"
         "      DO 5 J = 1, 10\n"
         "        A(J) = FLOAT(J)\n"
         "    5 CONTINUE\n"
         "      T = 0.0\n"
         "      DO K = 1, 2\n"
         "        CALL SETN(K)\n"
         "        S = 0.0\n"
         "        DO I = 1, N\n"
         "          S = S + A(I)\n"
         "        ENDDO\n"
         "        T = T + S\n"
         "      ENDDO\n"
         "      WRITE(6, *) T\n"
         "      END\n"
         "      SUBROUTINE SETN(K)\n"
         "      COMMON /C/ N, M\n"
         "      " + writer + "\n"
         "      END\n";
}

// Power steering must refuse a reduction whose bound a callee writes: the
// callee's summary says it writes N, and with no oracle every call counts
// as a writer. A callee that writes only another COMMON member does not
// block the loop.
TEST(Reduction, RefusesBoundsACalleeWrites) {
  const auto* tr = Registry::instance().byName("Reduction Recognition");
  ASSERT_NE(tr, nullptr);
  auto adviseInner = [&](const std::string& writer, bool withOracle) {
    auto prog = parse(commonBoundProgram(writer));
    fortran::Procedure* main = prog->findUnit("P");
    interproc::SummaryBuilder summaries(*prog);
    interproc::InterproceduralOracle oracle(summaries, *main);
    dep::AnalysisContext actx;
    if (withOracle) actx.oracle = &oracle;
    Workspace ws(*prog, *main, actx);
    Target t;
    t.loop = nthLoop(ws, 2);  // DO I = 1, N
    const Advice a = tr->advise(ws, t);
    EXPECT_TRUE(a.applicable) << a.explanation;
    if (!a.safe) {
      const std::string before = fortran::printProgram(*prog);
      std::string error;
      EXPECT_FALSE(tr->apply(ws, t, &error));
      EXPECT_EQ(error, a.explanation);
      EXPECT_EQ(fortran::printProgram(*prog), before);
    }
    return a;
  };

  const Advice known = adviseInner("N = 5*K", true);
  EXPECT_FALSE(known.safe) << known.explanation;
  EXPECT_NE(known.explanation.find("read N, which a callee writes"),
            std::string::npos)
      << known.explanation;
  EXPECT_FALSE(adviseInner("N = 5*K", false).safe);

  const Advice other = adviseInner("M = 5*K", true);
  EXPECT_TRUE(other.safe) << other.explanation;
  EXPECT_FALSE(adviseInner("M = 5*K", false).safe);
}

// ---------------------------------------------------------------------------
// Interprocedural loop motion (§5.3)
// ---------------------------------------------------------------------------

const char* kExtractProgram =
    "      PROGRAM MAIN\n"
    "      REAL FLN(40, 6)\n"
    "      DO L = 1, 6\n"
    "        CALL FL22(FLN, 40, L)\n"
    "      ENDDO\n"
    "      WRITE(6, *) FLN(10, 3), FLN(40, 6)\n"
    "      END\n"
    "      SUBROUTINE FL22(FLN, N, L)\n"
    "      REAL FLN(40, 6)\n"
    "      DO I = 1, N\n"
    "        FLN(I, L) = FLOAT(I*L)\n"
    "      ENDDO\n"
    "      END\n";

TEST(Extraction, CreatesBodyProcedureAndPreservesSemantics) {
  auto original = parse(kExtractProgram);
  interp::Machine m0(*original);
  auto r0 = m0.run();
  ASSERT_TRUE(r0.ok);

  Fixture f = make(kExtractProgram, "MAIN");
  const auto* tr = Registry::instance().byName("Loop Extraction");
  Target t;
  t.stmt = nthStmt(*f.ws, StmtKind::Call, 0);
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  EXPECT_NE(f.prog->findUnit("FL22$B"), nullptr);
  // The call site now contains a double nest: L loop around the extracted
  // I loop.
  ASSERT_FALSE(f.ws->model->topLevelLoops().empty());
  auto* outer = f.ws->model->topLevelLoops()[0];
  ASSERT_EQ(outer->children.size(), 1u);

  interp::Machine m1(*f.prog);
  auto r1 = m1.run();
  ASSERT_TRUE(r1.ok) << r1.error << fortran::printProgram(*f.prog);
  EXPECT_TRUE(r0.outputEquals(r1)) << fortran::printProgram(*f.prog);
}

TEST(Embedding, MovesLoopIntoCalleeAndPreservesSemantics) {
  auto original = parse(kExtractProgram);
  interp::Machine m0(*original);
  auto r0 = m0.run();
  ASSERT_TRUE(r0.ok);

  Fixture f = make(kExtractProgram, "MAIN");
  const auto* tr = Registry::instance().byName("Loop Embedding");
  Target t;
  t.loop = nthLoop(*f.ws, 0);
  Advice a = tr->advise(*f.ws, t);
  ASSERT_TRUE(a.safe) << a.explanation;
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  EXPECT_NE(f.prog->findUnit("FL22$E"), nullptr);
  // The loop is gone from MAIN.
  EXPECT_TRUE(f.ws->model->topLevelLoops().empty());

  interp::Machine m1(*f.prog);
  auto r1 = m1.run();
  ASSERT_TRUE(r1.ok) << r1.error << fortran::printProgram(*f.prog);
  EXPECT_TRUE(r0.outputEquals(r1)) << fortran::printProgram(*f.prog);
}

// ---------------------------------------------------------------------------
// Statement deletion / addition
// ---------------------------------------------------------------------------

TEST(StatementEdit, DeletionRefusedWhenValueUsed) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      REAL A(5), B(5)\n"
      "      DO I = 1, 5\n"
      "        A(I) = FLOAT(I)\n"
      "        B(I) = A(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) B(5)\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Statement Deletion");
  Target t;
  t.stmt = nthStmt(*f.ws, StmtKind::Assign, 0);
  EXPECT_FALSE(tr->advise(*f.ws, t).safe);
}

TEST(StatementEdit, AdditionInsertsContinue) {
  Fixture f = make(
      "      PROGRAM MAIN\n"
      "      X = 1.0\n"
      "      END\n");
  const auto* tr = Registry::instance().byName("Statement Addition");
  Target t;
  t.stmt = nthStmt(*f.ws, StmtKind::Assign, 0);
  std::string error;
  ASSERT_TRUE(tr->apply(*f.ws, t, &error)) << error;
  EXPECT_EQ(f.ws->proc.body.size(), 2u);
  EXPECT_EQ(f.ws->proc.body[1]->kind, StmtKind::Continue);
}

}  // namespace
}  // namespace ps::transform
