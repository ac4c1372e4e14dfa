#include "fortran/pretty.h"

#include <gtest/gtest.h>

#include "fortran/parser.h"
#include "support/diagnostics.h"

namespace ps::fortran {
namespace {

std::unique_ptr<Program> parse(std::string_view src) {
  DiagnosticEngine diags;
  auto prog = parseSource(src, diags);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
  return prog;
}

/// Structural equality of two programs, ignoring ids and locations.
bool sameShape(const Program& a, const Program& b) {
  if (a.units.size() != b.units.size()) return false;
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    std::vector<std::string> linesA, linesB;
    a.units[i]->forEachStmt(
        [&](const Stmt& s) { linesA.push_back(stmtHeadline(s)); });
    b.units[i]->forEachStmt(
        [&](const Stmt& s) { linesB.push_back(stmtHeadline(s)); });
    if (linesA != linesB) return false;
  }
  return true;
}

TEST(Pretty, ExprBasic) {
  auto prog = parse("      SUBROUTINE S\n      X = A + B*C\n      END\n");
  EXPECT_EQ(printExpr(*prog->units[0]->body[0]->rhs), "A + B*C");
}

TEST(Pretty, ExprParenthesizesWhenNeeded) {
  auto prog = parse("      SUBROUTINE S\n      X = (A + B)*C\n      END\n");
  EXPECT_EQ(printExpr(*prog->units[0]->body[0]->rhs), "(A + B)*C");
}

TEST(Pretty, ExprSubtractionRhs) {
  auto prog = parse("      SUBROUTINE S\n      X = A - (B - C)\n      END\n");
  EXPECT_EQ(printExpr(*prog->units[0]->body[0]->rhs), "A - (B - C)");
}

TEST(Pretty, NegativeStep) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO I = N, 1, -1\n"
      "        A(I) = 0.0\n"
      "      ENDDO\n"
      "      END\n");
  std::string text = printProcedure(*prog->units[0]);
  EXPECT_NE(text.find("DO I = N, 1, -1"), std::string::npos);
}

TEST(Pretty, ArrayRefPrinting) {
  auto prog = parse(
      "      SUBROUTINE S(UF, I, MCN, M)\n"
      "      REAL UF(1000, 5)\n"
      "      UF(I, M) = UF(I + MCN, 3)\n"
      "      END\n");
  const Stmt& s = *prog->units[0]->body[0];
  EXPECT_EQ(printExpr(*s.lhs), "UF(I, M)");
  EXPECT_EQ(printExpr(*s.rhs), "UF(I + MCN, 3)");
}

struct RoundTripCase {
  const char* name;
  const char* source;
};

// Test listings show the case name; gtest's default would dump the bytes of
// the two pointers, which change with the load address of every process.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTrip, PrintParseAgain) {
  auto prog1 = parse(GetParam().source);
  std::string printed = printProgram(*prog1);
  DiagnosticEngine diags;
  auto prog2 = parseSource(printed, diags);
  ASSERT_FALSE(diags.hasErrors())
      << "re-parse of pretty output failed:\n" << printed << diags.dump();
  EXPECT_TRUE(sameShape(*prog1, *prog2)) << printed;
  // Printing must be a fixpoint: print(parse(print(p))) == print(p).
  EXPECT_EQ(printProgram(*prog2), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RoundTrip,
    ::testing::Values(
        RoundTripCase{"simple",
                      "      SUBROUTINE S(A, N)\n"
                      "      REAL A(N)\n"
                      "      DO I = 1, N\n"
                      "        A(I) = 0.0\n"
                      "      ENDDO\n"
                      "      END\n"},
        RoundTripCase{"labeled_do",
                      "      SUBROUTINE S(A, N)\n"
                      "      REAL A(N)\n"
                      "      DO 10 I = 1, N\n"
                      "        A(I) = A(I)*2.0\n"
                      "   10 CONTINUE\n"
                      "      END\n"},
        RoundTripCase{"if_else",
                      "      SUBROUTINE S(X, Y)\n"
                      "      IF (X .GT. Y) THEN\n"
                      "        X = Y\n"
                      "      ELSE IF (X .LT. 0.0) THEN\n"
                      "        X = 0.0\n"
                      "      ELSE\n"
                      "        Y = X\n"
                      "      ENDIF\n"
                      "      END\n"},
        RoundTripCase{"logical_if",
                      "      SUBROUTINE S(X)\n"
                      "      IF (X .GT. 0.0) X = -X\n"
                      "      END\n"},
        RoundTripCase{"goto_aif",
                      "      SUBROUTINE S(K, N)\n"
                      "      DO 50 K = 1, N\n"
                      "        IF (K - 5) 100, 10, 10\n"
                      "   10   CONTINUE\n"
                      "        GOTO 101\n"
                      "  100   CONTINUE\n"
                      "  101   CONTINUE\n"
                      "   50 CONTINUE\n"
                      "      END\n"},
        RoundTripCase{"calls_io",
                      "      PROGRAM MAIN\n"
                      "      REAL A(100)\n"
                      "      READ *, N\n"
                      "      CALL INIT(A, N)\n"
                      "      WRITE(6, *) A(1)\n"
                      "      END\n"
                      "      SUBROUTINE INIT(A, N)\n"
                      "      REAL A(N)\n"
                      "      DO I = 1, N\n"
                      "        A(I) = FLOAT(I)\n"
                      "      ENDDO\n"
                      "      END\n"},
        RoundTripCase{"nested_shared_label",
                      "      SUBROUTINE S(A, N, M)\n"
                      "      REAL A(N, M)\n"
                      "      DO 16 J = 1, M\n"
                      "      DO 16 K = 1, N\n"
                      "      A(K, J) = 0.0\n"
                      "   16 CONTINUE\n"
                      "      END\n"},
        RoundTripCase{"expressions",
                      "      SUBROUTINE S\n"
                      "      X = A + B*C**2 - D/E\n"
                      "      L = A .LT. B .AND. .NOT. (C .GT. D)\n"
                      "      Y = -X + 1.5E2\n"
                      "      END\n"},
        RoundTripCase{"parallel_do",
                      "      SUBROUTINE S(A, N)\n"
                      "      REAL A(N)\n"
                      "      PARALLEL DO I = 1, N\n"
                      "        A(I) = 0.0\n"
                      "      ENDDO\n"
                      "      END\n"},
        RoundTripCase{"assertion",
                      "      SUBROUTINE S(A, IT, N)\n"
                      "      REAL A(N)\n"
                      "      INTEGER IT(N)\n"
                      "CPED$ ASSERT PERMUTATION (IT)\n"
                      "      DO I = 1, N\n"
                      "        A(IT(I)) = 0.0\n"
                      "      ENDDO\n"
                      "      END\n"}),
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      return info.param.name;
    });

TEST(Pretty, HeadlineForLoop) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      REAL A(N)\n"
      "      DO 10 I = 2, N - 1\n"
      "        A(I) = 0.0\n"
      "   10 CONTINUE\n"
      "      END\n");
  EXPECT_EQ(stmtHeadline(*prog->units[0]->body[0]), "DO 10 I = 2, N - 1");
}

TEST(Pretty, DeclarationsPrinted) {
  auto prog = parse(
      "      SUBROUTINE S(A, N)\n"
      "      INTEGER N\n"
      "      REAL A(N, 10)\n"
      "      COMMON /BLK/ Q\n"
      "      END\n");
  std::string text = printProcedure(*prog->units[0]);
  EXPECT_NE(text.find("REAL A(N, 10)"), std::string::npos);
  EXPECT_NE(text.find("COMMON /BLK/ Q"), std::string::npos);
}

}  // namespace
}  // namespace ps::fortran
