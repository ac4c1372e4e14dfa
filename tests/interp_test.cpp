#include "interp/machine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "emit/emit.h"
#include "fortran/parser.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "workloads/emission_driver.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::interp {
namespace {

using fortran::Program;

std::unique_ptr<Program> parse(std::string_view src) {
  ps::DiagnosticEngine diags;
  auto prog = fortran::parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return prog;
}

RunResult runSrc(std::string_view src, RunOptions opts = {}) {
  auto prog = parse(src);
  Machine m(*prog);
  return m.run(opts);
}

TEST(Machine, ArithmeticAndOutput) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      X = 2.0 + 3.0*4.0\n"
      "      I = 7/2\n"
      "      WRITE(6, *) X, I\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.output.size(), 2u);
  EXPECT_DOUBLE_EQ(r.output[0], 14.0);
  EXPECT_DOUBLE_EQ(r.output[1], 3.0);  // integer division
}

TEST(Machine, DoLoopSum) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      S = 0.0\n"
      "      DO I = 1, 10\n"
      "        S = S + FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 55.0);
}

TEST(Machine, DoLoopWithStepAndFinalValue) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      N = 0\n"
      "      DO I = 10, 1, -2\n"
      "        N = N + 1\n"
      "      ENDDO\n"
      "      WRITE(6, *) N, I\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 5.0);
  EXPECT_DOUBLE_EQ(r.output[1], 0.0);  // 10 + 5*(-2)
}

TEST(Machine, ZeroTripLoop) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      N = 0\n"
      "      DO I = 5, 1\n"
      "        N = N + 1\n"
      "      ENDDO\n"
      "      WRITE(6, *) N\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 0.0);
}

TEST(Machine, ArraysColumnMajor) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(3, 2)\n"
      "      DO J = 1, 2\n"
      "        DO I = 1, 3\n"
      "          A(I, J) = FLOAT(I*10 + J)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(3, 1), A(1, 2)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 31.0);
  EXPECT_DOUBLE_EQ(r.output[1], 12.0);
}

TEST(Machine, BlockIfAndLogical) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      X = 3.0\n"
      "      IF (X .GT. 5.0) THEN\n"
      "        Y = 1.0\n"
      "      ELSE IF (X .GT. 2.0 .AND. X .LT. 4.0) THEN\n"
      "        Y = 2.0\n"
      "      ELSE\n"
      "        Y = 3.0\n"
      "      ENDIF\n"
      "      WRITE(6, *) Y\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 2.0);
}

TEST(Machine, GotoAndArithmeticIf) {
  // The neoss pattern, executable.
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL DENV(5), RES(6)\n"
      "      DO I = 1, 5\n"
      "        DENV(I) = FLOAT(I) - 3.0\n"
      "        RES(I) = 0.0\n"
      "      ENDDO\n"
      "      RES(6) = 0.0\n"
      "      DO 50 K = 1, 5\n"
      "        IF (DENV(K)) 100, 10, 10\n"
      "   10   CONTINUE\n"
      "        DENV(K) = DENV(K)*2.0\n"
      "        GOTO 101\n"
      "  100   DENV(K) = 0.0\n"
      "  101   RES(K) = DENV(K)\n"
      "   50 CONTINUE\n"
      "      WRITE(6, *) RES(1), RES(3), RES(5)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 0.0);  // negative -> zeroed
  EXPECT_DOUBLE_EQ(r.output[1], 0.0);  // exactly zero -> doubled 0
  EXPECT_DOUBLE_EQ(r.output[2], 4.0);  // 2 -> 4
}

TEST(Machine, SubroutineByReference) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(4)\n"
      "      DO I = 1, 4\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      CALL FILL(A, 4, 7.0)\n"
      "      WRITE(6, *) A(1), A(4)\n"
      "      END\n"
      "      SUBROUTINE FILL(X, N, V)\n"
      "      REAL X(N)\n"
      "      DO I = 1, N\n"
      "        X(I) = V\n"
      "      ENDDO\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 7.0);
  EXPECT_DOUBLE_EQ(r.output[1], 7.0);
}

TEST(Machine, ArrayElementActualAliases) {
  // Passing A(3) gives the callee a window starting at element 3.
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(6)\n"
      "      DO I = 1, 6\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      CALL FILL(A(3), 2, 9.0)\n"
      "      WRITE(6, *) A(2), A(3), A(4), A(5)\n"
      "      END\n"
      "      SUBROUTINE FILL(X, N, V)\n"
      "      REAL X(N)\n"
      "      DO I = 1, N\n"
      "        X(I) = V\n"
      "      ENDDO\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 0.0);
  EXPECT_DOUBLE_EQ(r.output[1], 9.0);
  EXPECT_DOUBLE_EQ(r.output[2], 9.0);
  EXPECT_DOUBLE_EQ(r.output[3], 0.0);
}

TEST(Machine, FunctionCall) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      X = TWICE(21.0)\n"
      "      WRITE(6, *) X\n"
      "      END\n"
      "      REAL FUNCTION TWICE(V)\n"
      "      TWICE = V*2.0\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 42.0);
}

TEST(Machine, CommonBlocks) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      COMMON /BLK/ Q, W(3)\n"
      "      Q = 5.0\n"
      "      W(2) = 6.0\n"
      "      CALL SHOW\n"
      "      END\n"
      "      SUBROUTINE SHOW\n"
      "      COMMON /BLK/ Q, W(3)\n"
      "      WRITE(6, *) Q, W(2)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 5.0);
  EXPECT_DOUBLE_EQ(r.output[1], 6.0);
}

TEST(Machine, ReadFromInputStream) {
  RunOptions opts;
  opts.input = {3.0, 4.0};
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      READ *, X, Y\n"
      "      WRITE(6, *) X + Y\n"
      "      END\n",
      opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 7.0);
}

TEST(Machine, Intrinsics) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      WRITE(6, *) ABS(-3.0), SQRT(16.0), MAX(2, 7), MOD(10, 3)\n"
      "      WRITE(6, *) MIN(2.0, -1.0), SIGN(5.0, -1.0), INT(3.7)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_DOUBLE_EQ(r.output[0], 3.0);
  EXPECT_DOUBLE_EQ(r.output[1], 4.0);
  EXPECT_DOUBLE_EQ(r.output[2], 7.0);
  EXPECT_DOUBLE_EQ(r.output[3], 1.0);
  EXPECT_DOUBLE_EQ(r.output[4], -1.0);
  EXPECT_DOUBLE_EQ(r.output[5], -5.0);
  EXPECT_DOUBLE_EQ(r.output[6], 3.0);
}

TEST(Machine, StopTerminates) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      WRITE(6, *) 1.0\n"
      "      STOP\n"
      "      WRITE(6, *) 2.0\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.output.size(), 1u);
}

TEST(Machine, StopInsideCallUnwinds) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      CALL QUIT\n"
      "      WRITE(6, *) 2.0\n"
      "      END\n"
      "      SUBROUTINE QUIT\n"
      "      STOP\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.output.empty());
}

TEST(Machine, OutOfBoundsDetected) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(3)\n"
      "      A(4) = 1.0\n"
      "      END\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("subscript"), std::string::npos);
}

TEST(Machine, StepLimitGuards) {
  RunOptions opts;
  opts.maxSteps = 100;
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "   10 CONTINUE\n"
      "      GOTO 10\n"
      "      END\n",
      opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("step limit"), std::string::npos);
}

TEST(Machine, ProfileCountsHotLoop) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      DO I = 1, 10\n"
      "        A(I) = 1.0\n"
      "      ENDDO\n"
      "      X = A(1)\n"
      "      END\n");
  Machine m(*prog);
  auto r = m.run();
  ASSERT_TRUE(r.ok) << r.error;
  const auto& main = *prog->units[0];
  const auto& loop = *main.body[0];
  const auto& bodyAssign = *loop.body[0];
  const auto& after = *main.body[1];
  EXPECT_EQ(r.stmtCounts.at(bodyAssign.id), 10);
  EXPECT_EQ(r.stmtCounts.at(after.id), 1);
}

TEST(Machine, LoopActivationsCountEntriesNotIterations) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      DO I = 1, 10\n"
      "        A(I) = 1.0\n"
      "      ENDDO\n"
      "      DO K = 1, 3\n"
      "        DO J = 1, 4\n"
      "          A(J) = A(J) + 1.0\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      END\n");
  Machine m(*prog);
  auto r = m.run();
  ASSERT_TRUE(r.ok) << r.error;
  const auto& main = *prog->units[0];
  const auto& first = *main.body[0];
  const auto& outer = *main.body[1];
  const auto& inner = *outer.body[0];
  EXPECT_EQ(r.loopActivations.at(first.id), 1);
  EXPECT_EQ(r.loopActivations.at(outer.id), 1);
  EXPECT_EQ(r.loopActivations.at(inner.id), 3);
  // The profile still counts the DO statement once per entry plus once per
  // iteration advance.
  EXPECT_EQ(r.stmtCounts.at(first.id), 11);
}

TEST(Machine, ShuffledLoopRunsAloneWhateverTheMarkings) {
  // Only the named loop runs shuffled with the race detector armed: the
  // PARALLEL marking on the other loop is ignored, and an unmarked loop can
  // be named.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(50)\n"
      "      DO I = 1, 50\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      PARALLEL DO I = 2, 50\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      DO I = 2, 50\n"
      "        A(I) = A(I - 1) * 0.5\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(50)\n"
      "      END\n");
  const auto& main = *prog->units[0];
  Machine m(*prog);
  RunOptions o;
  o.shuffledLoop = main.body[2]->id;
  auto r = m.run(o);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.races.empty());
  for (const Race& race : r.races) EXPECT_EQ(race.loop, main.body[2]->id);
  o.shuffledLoop = main.body[0]->id;
  r = m.run(o);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_FALSE(main.body[2]->isParallel);
  EXPECT_TRUE(main.body[1]->isParallel);
}

// ---------------------------------------------------------------------------
// Parallel loops and the race detector
// ---------------------------------------------------------------------------

TEST(Parallel, IndependentLoopHasNoRaces) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(50)\n"
      "      PARALLEL DO I = 1, 50\n"
      "        A(I) = FLOAT(I)*2.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(25)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_DOUBLE_EQ(r.output[0], 50.0);
}

TEST(Parallel, RecurrenceRaceDetected) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(50)\n"
      "      DO I = 1, 50\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      PARALLEL DO I = 2, 50\n"
      "        A(I) = A(I - 1) + 1.0\n"
      "      ENDDO\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.races.empty());
  EXPECT_EQ(r.races[0].variable, "A");
  EXPECT_FALSE(r.races[0].outputOnly);
}

TEST(Parallel, SharedScalarAccumulatorRace) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      S = 0.0\n"
      "      PARALLEL DO I = 1, 20\n"
      "        S = S + FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.races.empty());
  EXPECT_EQ(r.races[0].variable, "S");
}

TEST(Parallel, KilledScalarIsNotARace) {
  // T is written before read in every iteration: dynamically private.
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(20)\n"
      "      DO I = 1, 20\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      PARALLEL DO I = 1, 20\n"
      "        T = A(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(20)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  // Only a write-write (output) conflict on T remains; it is reported as
  // outputOnly, never as a flow/anti race.
  for (const auto& race : r.races) {
    EXPECT_TRUE(race.outputOnly) << race.variable;
  }
  EXPECT_DOUBLE_EQ(r.output[0], 41.0);
}

TEST(Parallel, InnerSequentialLoopIVNotFlagged) {
  auto r = runSrc(
      "      PROGRAM MAIN\n"
      "      REAL A(10, 10)\n"
      "      PARALLEL DO J = 1, 10\n"
      "        DO I = 1, 10\n"
      "          A(I, J) = FLOAT(I + J)\n"
      "        ENDDO\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(10, 10)\n"
      "      END\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_DOUBLE_EQ(r.output[0], 20.0);
}

TEST(Parallel, ShuffleIsDeterministicPerSeed) {
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(30)\n"
      "      PARALLEL DO I = 1, 30\n"
      "        A(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(7)\n"
      "      END\n";
  RunOptions o1;
  o1.shuffleSeed = 42;
  RunOptions o2;
  o2.shuffleSeed = 42;
  auto r1 = runSrc(src, o1);
  auto r2 = runSrc(src, o2);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_TRUE(r1.outputEquals(r2));
}

TEST(Parallel, OutputComparisonAcrossSchedules) {
  // A genuinely parallel loop must produce identical output under any
  // iteration order.
  const char* src =
      "      PROGRAM MAIN\n"
      "      REAL A(40), B(40)\n"
      "      DO I = 1, 40\n"
      "        B(I) = FLOAT(I)\n"
      "      ENDDO\n"
      "      PARALLEL DO I = 1, 40\n"
      "        A(I) = B(I)*B(I) + 1.0\n"
      "      ENDDO\n"
      "      DO I = 1, 40\n"
      "        WRITE(6, *) A(I)\n"
      "      ENDDO\n"
      "      END\n";
  RunOptions o1;
  o1.shuffleSeed = 1;
  RunOptions o2;
  o2.shuffleSeed = 999;
  auto r1 = runSrc(src, o1);
  auto r2 = runSrc(src, o2);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_TRUE(r1.outputEquals(r2));
  EXPECT_TRUE(r1.races.empty());
}

// ---------------------------------------------------------------------------
// Schedule independence: one shuffled run proves the others replay it
// ---------------------------------------------------------------------------

/// The first PARALLEL-marked DO of the program: the loop each case shuffles.
fortran::StmtId parallelLoopOf(const Program& prog) {
  fortran::StmtId id = fortran::kInvalidStmt;
  for (const auto& u : prog.units) {
    u->forEachStmt([&](const fortran::Stmt& s) {
      if (s.kind == fortran::StmtKind::Do && s.isParallel &&
          id == fortran::kInvalidStmt) {
        id = s.id;
      }
    });
  }
  return id;
}

RunResult runShuffled(const Program& prog, const LoopClauses& clauses,
                      unsigned seed) {
  RunOptions o;
  o.shuffledLoop = parallelLoopOf(prog);
  o.parallelClauses[o.shuffledLoop] = clauses;
  o.shuffleSeed = seed;
  Machine m(prog);
  return m.run(o);
}

/// What the proof promises: every other shuffle gives the same ok flag,
/// races and output, bit for bit.
void expectReplays(const Program& prog, const LoopClauses& clauses,
                   const RunResult& r) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    const RunResult other = runShuffled(prog, clauses, seed);
    EXPECT_EQ(other.ok, r.ok) << "seed " << seed;
    EXPECT_EQ(other.output, r.output) << "seed " << seed;
    EXPECT_EQ(other.races.size(), r.races.size()) << "seed " << seed;
    EXPECT_TRUE(other.orderIndependent) << "seed " << seed;
  }
}

constexpr char kPrivateTemp[] =
    "      PROGRAM MAIN\n"
    "      REAL A(20), B(20)\n"
    "      DO I = 1, 20\n"
    "        B(I) = FLOAT(I)\n"
    "      ENDDO\n"
    "      PARALLEL DO I = 1, 20\n"
    "        T = B(I)*2.0\n"
    "        A(I) = T + 1.0\n"
    "      ENDDO\n"
    "      WRITE(6, *) A(20), I\n";

TEST(OrderProof, DeadPrivateTemporaryIsIndependent) {
  // Every iteration leaves another value in T, but nothing reads T again;
  // I's value after the loop is stored explicitly.
  auto prog = parse(std::string(kPrivateTemp) + "      END\n");
  const LoopClauses clauses{{"T"}, {}};
  const RunResult r = runShuffled(*prog, clauses, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_TRUE(r.orderIndependent);
  expectReplays(*prog, clauses, r);
}

TEST(OrderProof, PrivateTemporaryReadAfterTheLoopIsNot) {
  auto prog = parse(std::string(kPrivateTemp) +
                    "      WRITE(6, *) T\n"
                    "      END\n");
  const LoopClauses clauses{{"T"}, {}};
  const RunResult r = runShuffled(*prog, clauses, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());  // T is privatized
  EXPECT_FALSE(r.orderIndependent);
  // T holds whatever the iteration that ran last left: another shuffle
  // prints another value.
  bool moved = false;
  for (unsigned seed = 1; seed <= 8 && !moved; ++seed) {
    moved = runShuffled(*prog, clauses, seed).output != r.output;
  }
  EXPECT_TRUE(moved);
}

TEST(OrderProof, EqualValuesLeftByEveryIterationAreIndependent) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(20)\n"
      "      PARALLEL DO I = 1, 20\n"
      "        T = FLOAT(I)*2.0\n"
      "        A(I) = T + 1.0\n"
      "        T = 0.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(20), T\n"
      "      END\n");
  const LoopClauses clauses{{"T"}, {}};
  const RunResult r = runShuffled(*prog, clauses, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.orderIndependent);
  expectReplays(*prog, clauses, r);
}

TEST(OrderProof, FirstAndLastWritersAgreeingDoesNotHideAnother) {
  // T ends each iteration at I's parity: on a schedule whose first and
  // last iterations share it, a middle one still left the other value.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      PARALLEL DO I = 1, 6\n"
      "        T = FLOAT(MOD(I, 2))\n"
      "      ENDDO\n"
      "      WRITE(6, *) T\n"
      "      END\n");
  for (unsigned seed = 1; seed <= 32; ++seed) {
    const RunResult r = runShuffled(*prog, {{"T"}, {}}, seed);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.orderIndependent) << "seed " << seed;
  }
}

TEST(OrderProof, ReductionIsNot) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL B(20)\n"
      "      DO I = 1, 20\n"
      "        B(I) = 1.0/FLOAT(I)\n"
      "      ENDDO\n"
      "      S = 0.0\n"
      "      PARALLEL DO I = 1, 20\n"
      "        S = S + B(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) S\n"
      "      END\n");
  const RunResult r = runShuffled(*prog, {{"S"}, {}}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());  // S is privatized
  EXPECT_FALSE(r.orderIndependent);
}

TEST(OrderProof, WriteInTheBodyIsNot) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(5)\n"
      "      PARALLEL DO I = 1, 5\n"
      "        A(I) = FLOAT(I)\n"
      "        WRITE(6, *) A(I)\n"
      "      ENDDO\n"
      "      END\n");
  const RunResult r = runShuffled(*prog, {}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_FALSE(r.orderIndependent);
}

TEST(OrderProof, GotoExitIsNot) {
  // Which iterations ran before the exit depends on the order. Nothing
  // runs after it, so only the unfinished activation shows.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(20)\n"
      "      PARALLEL DO 10 I = 1, 20\n"
      "        A(I) = FLOAT(I)\n"
      "        IF (I .EQ. 5) GOTO 20\n"
      "10    CONTINUE\n"
      "20    CONTINUE\n"
      "      END\n");
  const RunResult r = runShuffled(*prog, {}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_FALSE(r.orderIndependent);
}

TEST(OrderProof, LastPrivateTheLastIterationSkipsIsNot) {
  // Only iteration 3 writes X. The copy-out takes X as it stands when the
  // sequentially-last iteration ends: B(3) when iteration 3 ran before it,
  // the entry value otherwise.
  auto src = [](const char* writer) {
    return std::string(
               "      PROGRAM MAIN\n"
               "      REAL A(10), B(10)\n"
               "      DO I = 1, 10\n"
               "        B(I) = FLOAT(I)\n"
               "      ENDDO\n"
               "      X = -1.0\n"
               "      PARALLEL DO I = 1, 10\n"
               "        IF (I .EQ. ") +
           writer +
           ") X = B(I)\n"
           "        A(I) = B(I)\n"
           "      ENDDO\n"
           "      WRITE(6, *) X\n"
           "      END\n";
  };
  const LoopClauses clauses{{"X"}, {"X"}};
  auto skipped = parse(src("3"));
  const RunResult r = runShuffled(*skipped, clauses, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_FALSE(r.orderIndependent);

  // When the last iteration writes X, the copy-out is the same in every
  // order.
  auto written = parse(src("10"));
  const RunResult w = runShuffled(*written, clauses, 12345);
  ASSERT_TRUE(w.ok) << w.error;
  ASSERT_EQ(w.output, std::vector<double>{10.0});
  EXPECT_TRUE(w.orderIndependent);
  expectReplays(*written, clauses, w);
}

TEST(OrderProof, SecondExposedReaderIsNot) {
  // Iteration 2 reads X and then writes it; the others only read it. On a
  // schedule that runs iteration 2 first, the other iterations read the
  // value it left: the detector reports that flow as it reports the one
  // every other schedule shows.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(3)\n"
      "      X = 1.0\n"
      "      PARALLEL DO I = 1, 3\n"
      "        A(I) = X\n"
      "        IF (I .EQ. 2) X = 2.0\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1), A(3)\n"
      "      END\n");
  for (unsigned seed = 1; seed <= 32; ++seed) {
    const RunResult r = runShuffled(*prog, {}, seed);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.orderIndependent) << "seed " << seed;
    ASSERT_EQ(r.races.size(), 1u) << "seed " << seed;
    EXPECT_EQ(r.races.front().variable, "X") << "seed " << seed;
    EXPECT_FALSE(r.races.front().outputOnly) << "seed " << seed;
  }
}

TEST(OrderProof, InnerBoundResetAfterTheLoopIsIndependent) {
  // J ends each iteration at I + 1, so its value after the loop depends on
  // the order; the reset overwrites it before anything reads it.
  auto src = [](const char* after) {
    return std::string(
               "      PROGRAM MAIN\n"
               "      REAL A(10, 10)\n"
               "      PARALLEL DO I = 1, 10\n"
               "        DO J = 1, I\n"
               "          A(J, I) = FLOAT(J + I)\n"
               "        ENDDO\n"
               "      ENDDO\n") +
           after +
           "      WRITE(6, *) A(3, 7), J\n"
           "      END\n";
  };
  auto reset = parse(src("      J = 0\n"));
  const RunResult r = runShuffled(*reset, {}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_TRUE(r.orderIndependent);
  expectReplays(*reset, {}, r);

  auto kept = parse(src(""));
  const RunResult k = runShuffled(*kept, {}, 12345);
  ASSERT_TRUE(k.ok) << k.error;
  EXPECT_FALSE(k.orderIndependent);
}

TEST(OrderProof, RacyRunIsNot) {
  // Without the PRIVATE clause every iteration's write of T is a race,
  // reported with the iterations this order met first.
  auto prog = parse(std::string(kPrivateTemp) + "      END\n");
  const RunResult r = runShuffled(*prog, {}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_FALSE(r.races.empty());
  EXPECT_FALSE(r.orderIndependent);
}

TEST(OrderProof, WriterThroughAFormalOfAPrivateNameIsIndependent) {
  // Odd iterations write T through SETT's formal X. The clause privatizes
  // T's cell, whatever name reaches it, and each iteration reads only the
  // T it wrote, so every schedule is race-free and proves the rest.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(6)\n"
      "      PARALLEL DO I = 1, 6\n"
      "        IF (MOD(I, 2) .EQ. 0) THEN\n"
      "          T = FLOAT(I)\n"
      "        ELSE\n"
      "          CALL SETT(T, I)\n"
      "        ENDIF\n"
      "        A(I) = T\n"
      "      ENDDO\n"
      "      WRITE(6, *) A(1), A(2)\n"
      "      END\n"
      "      SUBROUTINE SETT(X, I)\n"
      "      X = FLOAT(I)\n"
      "      END\n");
  const LoopClauses clauses{{"T"}, {}};
  for (unsigned seed = 1; seed <= 32; ++seed) {
    const RunResult r = runShuffled(*prog, clauses, seed);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.races.empty()) << "seed " << seed;
    EXPECT_TRUE(r.orderIndependent) << "seed " << seed;
  }
  const RunResult r = runShuffled(*prog, clauses, 12345);
  expectReplays(*prog, clauses, r);
}

TEST(OrderProof, CommonFirstTouchedInsideTheLoopIsNot) {
  // W's storage takes its type from the first unit to touch it: INTEGER
  // when TA runs first, REAL when TB does.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      PARALLEL DO I = 1, 2\n"
      "        IF (I .EQ. 1) CALL TA\n"
      "        IF (I .EQ. 2) CALL TB\n"
      "      ENDDO\n"
      "      CALL SHOW\n"
      "      END\n"
      "      SUBROUTINE TA\n"
      "      INTEGER Q\n"
      "      COMMON /W/ Q(2)\n"
      "      Q(1) = 2.5\n"
      "      END\n"
      "      SUBROUTINE TB\n"
      "      COMMON /W/ Q(2)\n"
      "      Q(2) = 3.5\n"
      "      END\n"
      "      SUBROUTINE SHOW\n"
      "      COMMON /W/ Q(2)\n"
      "      WRITE(6, *) Q(1), Q(2)\n"
      "      END\n");
  std::set<std::vector<double>> outputs;
  for (unsigned seed = 1; seed <= 16; ++seed) {
    const RunResult r = runShuffled(*prog, {}, seed);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.races.empty());
    EXPECT_FALSE(r.orderIndependent) << "seed " << seed;
    outputs.insert(r.output);
  }
  EXPECT_EQ(outputs.size(), 2u);
}

TEST(OrderProof, FunctionResultLeftByTheLoopIsNot) {
  // F returns whatever the iteration that ran last assigned it.
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      X = F(4)\n"
      "      WRITE(6, *) X\n"
      "      END\n"
      "      REAL FUNCTION F(N)\n"
      "      PARALLEL DO I = 1, N\n"
      "        F = FLOAT(I)\n"
      "      ENDDO\n"
      "      END\n");
  const RunResult r = runShuffled(*prog, {{"F"}, {}}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.races.empty());
  EXPECT_FALSE(r.orderIndependent);
}

TEST(OrderProof, ZeroTripActivationIsIndependent) {
  auto prog = parse(
      "      PROGRAM MAIN\n"
      "      REAL A(10)\n"
      "      N = 0\n"
      "      PARALLEL DO I = 1, N\n"
      "        A(I) = X\n"
      "        X = FLOAT(I)\n"
      "      ENDDO\n"
      "      WRITE(6, *) X, I\n"
      "      END\n");
  const RunResult r = runShuffled(*prog, {}, 12345);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.loopActivations.at(parallelLoopOf(*prog)), 1);
  EXPECT_TRUE(r.orderIndependent);
  expectReplays(*prog, {}, r);
}

TEST(OrderProof, OnlyShuffledRunsCarryIt) {
  auto prog = parse(std::string(kPrivateTemp) + "      END\n");
  Machine m(*prog);
  EXPECT_FALSE(m.run().orderIndependent);  // PARALLEL markings, no loop named
  RunOptions serial;
  serial.checkParallel = false;
  serial.shuffledLoop = parallelLoopOf(*prog);
  EXPECT_FALSE(m.run(serial).orderIndependent);
}

// ---------------------------------------------------------------------------
// Golden digests on the eight decks
// ---------------------------------------------------------------------------

// The interpreter's observable behaviour on every deck, pinned as digests:
// the serial run, the traced run (default and tight budgets), and three
// shuffled schedules of every PARALLEL loop run alone with its emission
// clauses. Storage creation order, trace element ids, iteration contexts,
// race report order and step counts all feed a digest, so any drift in
// them fails here.

/// FNV-1a over the fields of interpreter results.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void num(long long v) { bytes(&v, sizeof v); }
  void real(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    bytes(&b, sizeof b);
  }
  void str(const std::string& s) {
    num(static_cast<long long>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void hashRun(Fnv& h, const RunResult& r) {
  h.num(r.ok);
  h.str(r.error);
  h.num(r.errorStmt);
  h.num(r.stopStmt);
  h.num(static_cast<long long>(r.output.size()));
  for (double v : r.output) h.real(v);
  h.num(r.steps);
  h.num(static_cast<long long>(r.stmtCounts.size()));
  for (const auto& [id, n] : r.stmtCounts) {
    h.num(id);
    h.num(n);
  }
  h.num(static_cast<long long>(r.races.size()));
  for (const Race& race : r.races) {
    h.num(race.loop);
    h.str(race.variable);
    h.num(race.iterationA);
    h.num(race.iterationB);
    h.num(race.outputOnly);
  }
}

void hashTrace(Fnv& h, const Trace& t) {
  h.num(static_cast<long long>(t.events.size()));
  for (const TraceEvent& e : t.events) {
    h.num(e.stmt);
    h.num(e.element);
    h.num(e.ctx);
    h.num(e.isWrite);
  }
  h.num(static_cast<long long>(t.nodes.size()));
  for (const IterNode& n : t.nodes) {
    h.num(n.parent);
    h.num(n.loop);
    h.num(n.iter);
  }
  h.num(static_cast<long long>(t.elementVar.size()));
  for (const std::string& v : t.elementVar) h.str(v);
  h.num(static_cast<long long>(t.uninitReads.size()));
  for (const UninitRead& u : t.uninitReads) {
    h.num(u.stmt);
    h.str(u.variable);
  }
  h.num(t.uninitReadCount);
  h.num(t.eventsOverflowed);
  h.num(t.elementsSaturated);
  h.num(t.eventsDropped);
}

struct DeckDigests {
  std::string serial, trace, traceTight, shuffled;
  bool operator==(const DeckDigests&) const = default;
};

std::string tracedDigest(Machine& m, const RunOptions& serial,
                         TraceLimits limits) {
  Trace t;
  t.limits = limits;
  RunOptions o = serial;
  o.trace = &t;
  Fnv h;
  hashRun(h, m.run(o));
  hashTrace(h, t);
  return h.hex();
}

DeckDigests digestDeck(const std::string& deck) {
  DeckDigests d;
  auto s = workloads::loadDeck(deck);
  if (!s) return d;
  (void)workloads::markParallelLoops(*s, /*forceAllLoops=*/true);
  // The clause plan only: no relative runs, no round trip.
  emit::EmitOptions eo;
  eo.relativeValidation = false;
  eo.roundTrip = false;
  const emit::EmissionReport plan = s->emitOpenMP(eo);
  Machine m(s->program());

  RunOptions serial;
  serial.checkParallel = false;
  Fnv hs;
  hashRun(hs, m.run(serial));
  d.serial = hs.hex();
  d.trace = tracedDigest(m, serial, TraceLimits{});
  TraceLimits tight;
  tight.maxEvents = 2000;
  tight.maxElements = 256;
  d.traceTight = tracedDigest(m, serial, tight);

  Fnv hp;
  for (const emit::LoopEmission& le : plan.loops) {
    for (unsigned k = 0; k < 3; ++k) {
      RunOptions o;
      o.maxSteps = 20'000'000;
      o.shuffleSeed = 12345u + 0x9e3779b9u * (k + 1);
      o.shuffledLoop = le.loop;
      o.parallelClauses[le.loop] = le.interpClauses;
      hp.num(le.loop);
      hashRun(hp, m.run(o));
    }
  }
  d.shuffled = hp.hex();
  return d;
}

// Recorded on the tree-walking interpreter that looked every variable up
// by name, before slot resolution. The shuffled digests of spec77, neoss,
// dpmin, slab2d, slalom and arc3d were recorded again when the race
// detector began to report the flow from a cell's first writer, when it
// read the cell first, to a later iteration's exposed read: a sum
// accumulator's race on a forced-marked loop now reads as read-write,
// not write-write, and a hidden flow is reported first where its cell
// comes first.
const std::map<std::string, DeckDigests>& goldenDigests() {
  static const std::map<std::string, DeckDigests> kGolden = {
      {"spec77",
       {"50fe743ef0529261", "007998490deecfd0",
        "2490a944d3abad2a", "88c543cd4d89aaec"}},
      {"neoss",
       {"e2c19a539a761aad", "6ce27aa38dbb2977",
        "918681bf0a6d73b2", "09250cb2b6f801fe"}},
      {"nxsns",
       {"5267fe52ae1ae6ac", "85562a53cd6d659c",
        "85562a53cd6d659c", "55abc60a83521c7f"}},
      {"dpmin",
       {"42fa6291e6f25845", "ae39b0c2a6fcc535",
        "f676c329600bb4f2", "4acaca6dcaa44b4b"}},
      {"slab2d",
       {"73f2f994432e02fc", "24bc634dc630ec70",
        "ef9b95b319a99e15", "0a38433a6ced4b2d"}},
      {"slalom",
       {"8c221b0b198225c5", "a87f7be4ef156e20",
        "c60c2e3b5efc191b", "27623a3b15876bbe"}},
      {"pueblo3d",
       {"6d4fe9e1121f8713", "9b616bb5191b04fb",
        "b0dacd14d8c62f71", "64053f32ca0e967c"}},
      {"arc3d",
       {"b2273c7ca85c9762", "9a7b97221e9a53bc",
        "0deeaa321c2ab1e0", "a56609683d0105b0"}},
  };
  return kGolden;
}

TEST(GoldenDigests, EveryDeckMatchesPinnedBehaviour) {
  std::ostringstream table;
  bool allMatch = true;
  for (const workloads::Workload& w : workloads::all()) {
    const DeckDigests got = digestDeck(w.name);
    table << "      {\"" << w.name << "\",\n       {\"" << got.serial
          << "\", \"" << got.trace << "\",\n        \"" << got.traceTight
          << "\", \"" << got.shuffled << "\"}},\n";
    auto it = goldenDigests().find(w.name);
    const bool match = it != goldenDigests().end() && it->second == got;
    EXPECT_TRUE(match) << w.name << " digests drifted";
    allMatch = allMatch && match;
  }
  EXPECT_EQ(goldenDigests().size(), workloads::all().size());
  if (!allMatch) std::cout << "computed digests:\n" << table.str();
}

}  // namespace
}  // namespace ps::interp
