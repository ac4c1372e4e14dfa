// OpenMP emission suite.
//
// The subsystem's contract: every PARALLEL-marked loop either emits a
// "!$OMP PARALLEL DO" directive whose deck round-trips (re-lexes to the
// exact payloads written, and re-analyzes to a dependence graph
// byte-identical to the directive-stripped source at 1/2/4/8 threads) and
// survives shuffled-schedule relative validation, or is refused with the
// blocking dependence edges named — never silently dropped. The suite
// checks clause derivation on small programs with known answers, the
// refusal and demotion paths, directive wrapping at the fixed-form
// 72-column limit, and the fixed point on all eight workshop decks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "emit/emit.h"
#include "fortran/lexer.h"
#include "fortran/pretty.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/taskpool.h"
#include "workloads/emission_driver.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::workloads {
namespace {

std::unique_ptr<ped::Session> loadSource(const char* src,
                                         const std::string& deck) {
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  EXPECT_TRUE(s && !diags.hasErrors()) << "load failed for " << deck;
  if (s) s->setDeckName(deck);
  return s;
}

/// The emission row for one loop id; null when absent.
const emit::LoopEmission* rowFor(const emit::EmissionReport& rep,
                                 fortran::StmtId loop) {
  for (const emit::LoopEmission& le : rep.loops) {
    if (le.loop == loop) return &le;
  }
  return nullptr;
}

/// True when the payload's `clause` list names `var` exactly. The clause
/// is matched at a word boundary (so PRIVATE does not match inside
/// LASTPRIVATE) and the variable list is split on ", ".
bool payloadLists(const std::string& payload, const std::string& clause,
                  const std::string& var) {
  const std::size_t at = payload.find(" " + clause + "(");
  if (at == std::string::npos) return false;
  std::size_t open = payload.find('(', at + 1);
  const std::size_t close = payload.find(')', open);
  std::string list = payload.substr(open + 1, close - open - 1);
  if (list.rfind("+:", 0) == 0) list = list.substr(2);  // REDUCTION(+:...)
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(", ", pos);
    const std::string item = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (item == var) return true;
    if (comma == std::string::npos) break;
    pos = comma + 2;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Clause derivation on small programs with known answers
// ---------------------------------------------------------------------------

constexpr char kReduction[] =
    "      PROGRAM RED\n"
    "      DIMENSION A(50)\n"
    "      DO 5 I = 1, 50\n"
    "        A(I) = FLOAT(I)\n"
    "5     CONTINUE\n"
    "      S = 0.0\n"
    "      DO 10 I = 1, 50\n"
    "        S = S + A(I)\n"
    "10    CONTINUE\n"
    "      PRINT *, S\n"
    "      END\n";

TEST(ClauseDerivation, SumReductionEmitsReductionClause) {
  auto s = loadSource(kReduction, "red");
  ASSERT_TRUE(s);
  const MarkCounts mc = markParallelLoops(*s, /*forceAllLoops=*/false);
  EXPECT_GE(mc.safe, 1);       // the initialization loop
  EXPECT_EQ(mc.reduction, 1);  // the sum loop, via the rejection workflow
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_EQ(rep.loopsConsidered, 2);
  bool sawReduction = false;
  for (const emit::LoopEmission& le : rep.loops) {
    ASSERT_TRUE(le.emitted) << le.refusal;
    if (le.payload.find("REDUCTION(+:S)") != std::string::npos) {
      sawReduction = true;
      // The accumulator must not also appear in SHARED or PRIVATE.
      EXPECT_FALSE(payloadLists(le.payload, "SHARED", "S"));
      EXPECT_FALSE(payloadLists(le.payload, "PRIVATE", "S"));
    }
  }
  EXPECT_TRUE(sawReduction) << rep.str();
  EXPECT_TRUE(rep.roundTripChecked);
  EXPECT_TRUE(rep.roundTripOk) << rep.roundTripDetail;
}

constexpr char kPrivScalar[] =
    "      PROGRAM PRIV\n"
    "      DIMENSION A(40), B(40)\n"
    "      DO 5 I = 1, 40\n"
    "        A(I) = FLOAT(I)\n"
    "5     CONTINUE\n"
    "      DO 10 I = 1, 40\n"
    "        T = A(I)*2.0\n"
    "        B(I) = T + 1.0\n"
    "10    CONTINUE\n"
    "      PRINT *, B(7)\n"
    "      END\n";

TEST(ClauseDerivation, PrivatizableScalarIsPrivate) {
  auto s = loadSource(kPrivScalar, "priv");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  bool sawT = false;
  for (const emit::LoopEmission& le : rep.loops) {
    ASSERT_TRUE(le.emitted) << le.refusal;
    if (payloadLists(le.payload, "PRIVATE", "T")) {
      sawT = true;
      EXPECT_TRUE(le.relativeChecked);
      EXPECT_FALSE(le.relativeDiverged) << le.evidence;
      EXPECT_TRUE(le.interpClauses.privatized.count("T"));
    }
  }
  EXPECT_TRUE(sawT) << rep.str();
}

constexpr char kLastValue[] =
    "      PROGRAM LASTV\n"
    "      DIMENSION A(40), B(40)\n"
    "      DO 5 I = 1, 40\n"
    "        A(I) = FLOAT(I)\n"
    "5     CONTINUE\n"
    "      DO 10 I = 1, 40\n"
    "        T = A(I)*2.0\n"
    "        B(I) = T + 1.0\n"
    "10    CONTINUE\n"
    "      PRINT *, T\n"
    "      END\n";

TEST(ClauseDerivation, LiveOutScalarIsLastPrivate) {
  auto s = loadSource(kLastValue, "lastv");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  bool sawT = false;
  for (const emit::LoopEmission& le : rep.loops) {
    if (!le.emitted) continue;
    if (payloadLists(le.payload, "LASTPRIVATE", "T")) {
      sawT = true;
      EXPECT_TRUE(le.interpClauses.lastPrivate.count("T"));
      EXPECT_TRUE(le.relativeChecked);
      EXPECT_FALSE(le.relativeDiverged) << le.evidence;
    }
  }
  EXPECT_TRUE(sawT) << rep.str();
}

constexpr char kRecurrence[] =
    "      PROGRAM REC\n"
    "      DIMENSION A(60)\n"
    "      A(1) = 1.0\n"
    "      DO 10 I = 2, 60\n"
    "        A(I) = A(I-1) + 1.0\n"
    "10    CONTINUE\n"
    "      PRINT *, A(60)\n"
    "      END\n";

TEST(ClauseDerivation, CarriedEdgeRefusesNamingBlockingEdges) {
  auto s = loadSource(kRecurrence, "rec");
  ASSERT_TRUE(s);
  // Force-mark: reject the carried edges, mark PARALLEL, restore — the
  // state an unsound session leaves behind after PR 7 auto-restores a
  // deletion.
  const MarkCounts mc = markParallelLoops(*s, /*forceAllLoops=*/true);
  EXPECT_EQ(mc.safe, 0);
  EXPECT_EQ(mc.forced, 1);
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  ASSERT_EQ(rep.loopsConsidered, 1);
  ASSERT_EQ(rep.loopsRefused, 1);
  const emit::LoopEmission& le = rep.loops.front();
  EXPECT_FALSE(le.emitted);
  EXPECT_FALSE(le.refusal.empty());
  ASSERT_FALSE(le.blocking.empty());
  bool namesA = false;
  for (const emit::BlockingEdge& be : le.blocking) {
    EXPECT_FALSE(be.type.empty());
    EXPECT_NE(le.refusal.find(be.str()), std::string::npos)
        << "refusal must name every blocking edge";
    if (be.variable == "A") namesA = true;
  }
  EXPECT_TRUE(namesA);
  // Refusals leave the deck directive-free for this loop, and the deck
  // still round-trips.
  EXPECT_TRUE(rep.roundTripChecked);
  EXPECT_TRUE(rep.roundTripOk) << rep.roundTripDetail;
}

// A user classification of a privatizable scalar as SHARED flows through
// the whole pipeline: the reanalyzed graph regrows the carried edges the
// privatization had removed, and emission refuses the loop naming them —
// the override makes the loop genuinely non-parallel, and emission must
// not contradict that.
TEST(ClauseDerivation, UserOverrideToSharedRegrowsBlockingEdges) {
  auto s = loadSource(kPrivScalar, "priv-override");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  ASSERT_TRUE(s->selectProcedure(s->procedureNames().front()));
  fortran::StmtId target = fortran::kInvalidStmt;
  for (const auto& row : s->loops()) {
    if (row.headline.find("10") != std::string::npos) target = row.id;
  }
  ASSERT_NE(target, fortran::kInvalidStmt);
  ASSERT_TRUE(s->selectLoop(target));
  ASSERT_TRUE(s->classifyVariable("T", /*asPrivate=*/false, "user says no"));
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  const emit::LoopEmission* le = rowFor(rep, target);
  ASSERT_NE(le, nullptr);
  EXPECT_FALSE(le->emitted);
  bool namesT = false;
  for (const emit::BlockingEdge& be : le->blocking) {
    if (be.variable == "T") namesT = true;
  }
  EXPECT_TRUE(namesT) << le->refusal;
}

// A read-only scalar the user asserts private becomes FIRSTPRIVATE: its
// upward-exposed read needs the copy-in value.
constexpr char kReadOnlyScalar[] =
    "      PROGRAM FPRIV\n"
    "      DIMENSION A(40), B(40)\n"
    "      X = 3.0\n"
    "      DO 5 I = 1, 40\n"
    "        A(I) = FLOAT(I)\n"
    "5     CONTINUE\n"
    "      DO 10 I = 1, 40\n"
    "        B(I) = A(I) + X\n"
    "10    CONTINUE\n"
    "      PRINT *, B(3)\n"
    "      END\n";

TEST(ClauseDerivation, UserOverrideToPrivateOnReadOnlyIsFirstPrivate) {
  auto s = loadSource(kReadOnlyScalar, "fpriv");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  ASSERT_TRUE(s->selectProcedure(s->procedureNames().front()));
  fortran::StmtId target = fortran::kInvalidStmt;
  for (const auto& row : s->loops()) {
    if (row.headline.find("10") != std::string::npos) target = row.id;
  }
  ASSERT_NE(target, fortran::kInvalidStmt);
  ASSERT_TRUE(s->selectLoop(target));
  ASSERT_TRUE(
      s->classifyVariable("X", /*asPrivate=*/true, "thread-local copy"));
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  const emit::LoopEmission* le = rowFor(rep, target);
  ASSERT_NE(le, nullptr);
  ASSERT_TRUE(le->emitted) << le->refusal;
  EXPECT_TRUE(payloadLists(le->payload, "FIRSTPRIVATE", "X")) << le->payload;
  EXPECT_TRUE(le->relativeChecked);
  EXPECT_FALSE(le->relativeDiverged) << le->evidence;
}

// ---------------------------------------------------------------------------
// Relative validation demotes unsound emissions
// ---------------------------------------------------------------------------

// The carried dependence on A is real (K = 1 at runtime), but a user
// deletion of the Pending edge makes the loop eligible. Emission must not
// trust the deletion: the shuffled schedules diverge from the serial run
// and the loop demotes to refused.
constexpr char kUnsoundDeletion[] =
    "      PROGRAM UDEL\n"
    "      DIMENSION A(200)\n"
    "      READ *, K\n"
    "      DO 10 I = 1, 50\n"
    "        A(I+K) = A(I) + 1.0\n"
    "10    CONTINUE\n"
    "      PRINT *, A(51)\n"
    "      END\n";

TEST(Emission, UnsoundDeletionDemotedByRelativeValidation) {
  auto s = loadSource(kUnsoundDeletion, "udel");
  ASSERT_TRUE(s);
  ASSERT_TRUE(s->selectProcedure("UDEL"));
  // Reject every carried edge on A (the unsound deletions), then mark.
  std::vector<std::uint32_t> ids;
  for (const dep::Dependence& d : s->workspace().graph->all()) {
    if (d.variable == "A" && d.level > 0) ids.push_back(d.id);
  }
  ASSERT_FALSE(ids.empty());
  for (std::uint32_t id : ids) {
    ASSERT_TRUE(s->markDependence(id, dep::DepMark::Rejected,
                                  "user asserts no overlap", "test"));
  }
  fortran::StmtId loopId = fortran::kInvalidStmt;
  for (const auto& row : s->loops()) loopId = row.id;
  ASSERT_NE(loopId, fortran::kInvalidStmt);
  transform::Target t;
  t.loop = loopId;
  std::string err;
  ASSERT_TRUE(s->applyTransformation("Sequential to Parallel", t, &err))
      << err;
  emit::EmitOptions opts;
  opts.run.input = {1.0};  // K = 1 at runtime: the deleted edge is real
  const emit::EmissionReport rep = s->emitOpenMP(opts);
  ASSERT_TRUE(rep.ran) << rep.error;
  const emit::LoopEmission* le = rowFor(rep, loopId);
  ASSERT_NE(le, nullptr);
  EXPECT_FALSE(le->emitted) << "unsound deletion must not emit";
  EXPECT_TRUE(le->relativeChecked);
  EXPECT_TRUE(le->relativeDiverged);
  EXPECT_NE(le->refusal.find("relative validation diverged"),
            std::string::npos)
      << le->refusal;
  EXPECT_GT(le->serialExecutions, 0);
}

// ---------------------------------------------------------------------------
// Directive wrapping and re-lexing
// ---------------------------------------------------------------------------

TEST(Wrapping, LongDirectiveStaysWithin72ColumnsAndRelexes) {
  // Build a payload long enough to need several continuation lines.
  std::vector<emit::Clause> clauses;
  for (char c = 'A'; c <= 'Z'; ++c) {
    emit::Clause cl;
    cl.kind = emit::ClauseKind::Shared;
    cl.variable = std::string("VAR") + c + "LONGISH";
    clauses.push_back(cl);
  }
  clauses.push_back({emit::ClauseKind::Private, "I"});
  const std::string payload = emit::renderPayload(clauses);
  const std::string text = fortran::wrapOmpDirective(payload);

  // Every physical line fits fixed-form column 72 and carries the sentinel.
  std::size_t lines = 0;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t nl = text.find('\n', at);
    ASSERT_NE(nl, std::string::npos) << "directive lines end in newline";
    const std::string line = text.substr(at, nl - at);
    EXPECT_LE(line.size(), 72u) << line;
    if (lines == 0) {
      EXPECT_EQ(line.rfind("!$OMP ", 0), 0u) << line;
    } else {
      EXPECT_EQ(line.rfind("!$OMP& ", 0), 0u) << line;
    }
    at = nl + 1;
    ++lines;
  }
  EXPECT_GE(lines, 3u) << "payload long enough to wrap";

  // The lexer reassembles the continuations to the exact payload.
  DiagnosticEngine diags;
  fortran::Lexer lx(text, diags);
  lx.run();
  ASSERT_EQ(lx.ompDirectives().size(), 1u);
  EXPECT_EQ(lx.ompDirectives().front().text, payload);
}

TEST(Wrapping, EmittedDeckLinesFitFixedForm) {
  auto s = loadSource(kReduction, "red-cols");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  emit::EmitOptions opts;
  opts.relativeValidation = false;
  const emit::EmissionReport rep = s->emitOpenMP(opts);
  ASSERT_TRUE(rep.ran);
  std::size_t at = 0;
  while (at < rep.deckText.size()) {
    std::size_t nl = rep.deckText.find('\n', at);
    if (nl == std::string::npos) nl = rep.deckText.size();
    const std::string line = rep.deckText.substr(at, nl - at);
    if (line.rfind("!$OMP", 0) == 0) {
      EXPECT_LE(line.size(), 72u) << line;
    }
    at = nl + 1;
  }
}

// ---------------------------------------------------------------------------
// Fixed point on the eight workshop decks
// ---------------------------------------------------------------------------

class EmissionDecks : public ::testing::TestWithParam<const char*> {};

// Every PARALLEL-marked loop on the deck either emits a directive that
// round-trips to a byte-identical dependence graph, or is refused with the
// blocking edges named — zero silent drops, at every thread count.
TEST_P(EmissionDecks, EmitReparseReanalyzeFixedPoint) {
  const std::string deck = GetParam();
  auto s = loadDeck(deck);
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, /*forceAllLoops=*/true);
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_EQ(rep.loopsConsidered,
            static_cast<int>(rep.loops.size()));
  EXPECT_EQ(rep.loopsEmitted + rep.loopsRefused, rep.loopsConsidered);
  for (const emit::LoopEmission& le : rep.loops) {
    if (le.emitted) {
      EXPECT_FALSE(le.payload.empty());
      EXPECT_EQ(le.payload.rfind("PARALLEL DO DEFAULT(NONE)", 0), 0u);
    } else {
      EXPECT_FALSE(le.refusal.empty())
          << deck << " stmt" << le.loop << " dropped silently";
    }
  }
  ASSERT_TRUE(rep.roundTripChecked);
  EXPECT_TRUE(rep.roundTripOk) << deck << ": " << rep.roundTripDetail;
  EXPECT_EQ(rep.roundTripThreads, (std::vector<int>{1, 2, 4, 8}));
}

// Emission eligibility is a program property, not a scheduling artifact:
// the emitted/refused partition is identical after analysis at 1/2/4/8
// threads.
TEST_P(EmissionDecks, PartitionStableAcrossAnalysisThreadCounts) {
  const std::string deck = GetParam();
  std::string want;
  for (int threads : {1, 2, 4, 8}) {
    auto s = loadDeck(deck);
    ASSERT_TRUE(s);
    s->analyzeParallel(threads);
    (void)markParallelLoops(*s, /*forceAllLoops=*/true);
    emit::EmitOptions opts;
    opts.relativeValidation = false;  // partition only; keep the test fast
    opts.roundTrip = false;
    const emit::EmissionReport rep = s->emitOpenMP(opts);
    ASSERT_TRUE(rep.ran) << rep.error;
    std::string got;
    for (const emit::LoopEmission& le : rep.loops) {
      got += le.procedure + " stmt" + std::to_string(le.loop) +
             (le.emitted ? " " + le.payload : " REFUSED " + le.refusal) +
             "\n";
    }
    if (threads == 1) {
      want = got;
      EXPECT_FALSE(want.empty()) << deck << " considered no loops";
    } else {
      EXPECT_EQ(got, want) << deck << " at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, EmissionDecks,
                         ::testing::Values("spec77", "neoss", "nxsns",
                                           "dpmin", "slab2d", "slalom",
                                           "pueblo3d", "arc3d"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// ---------------------------------------------------------------------------
// Relative validation fans out on a pool without changing the report
// ---------------------------------------------------------------------------

/// The report, each loop's validation evidence and every failure record.
std::string renderEmission(const emit::EmissionReport& rep,
                           const ped::Session& s) {
  std::string out = rep.str() + "\n";
  for (const emit::LoopEmission& le : rep.loops) {
    out += "stmt" + std::to_string(le.loop) + " x" +
           std::to_string(le.serialExecutions) + " " + le.evidence + "\n";
  }
  for (const ped::FailureReport& f : s.failures()) {
    out += f.operation + (f.rolledBack ? " [rolled back] " : " ") + f.detail +
           "\n";
  }
  return out;
}

constexpr int kPoolWidths[] = {1, 2, 4, 8};

TEST_P(EmissionDecks, ReportIdenticalAtEveryPoolWidth) {
  const std::string deck = GetParam();
  std::string want;
  for (int width : kPoolWidths) {
    auto s = loadDeck(deck);
    ASSERT_TRUE(s);
    (void)markParallelLoops(*s, /*forceAllLoops=*/true);
    support::TaskPool pool(width);
    emit::EmitOptions opts;
    opts.roundTrip = false;  // the fan-out is what varies
    opts.pool = &pool;
    const emit::EmissionReport rep = s->emitOpenMP(opts);
    ASSERT_TRUE(rep.ran) << rep.error;
    const std::string got = renderEmission(rep, *s);
    if (width == 1) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << deck << " at pool width " << width;
    }
  }
}

TEST(EmissionFanOut, DivergingLoopIdenticalAtEveryPoolWidth) {
  std::string want;
  for (int width : kPoolWidths) {
    auto s = loadSource(kUnsoundDeletion, "udel-fanout");
    ASSERT_TRUE(s);
    ASSERT_TRUE(s->selectProcedure("UDEL"));
    for (const dep::Dependence& d : s->workspace().graph->all()) {
      if (d.variable == "A" && d.level > 0) {
        ASSERT_TRUE(s->markDependence(d.id, dep::DepMark::Rejected,
                                      "user asserts no overlap", "test"));
      }
    }
    fortran::StmtId loopId = fortran::kInvalidStmt;
    for (const auto& row : s->loops()) loopId = row.id;
    transform::Target t;
    t.loop = loopId;
    std::string err;
    ASSERT_TRUE(s->applyTransformation("Sequential to Parallel", t, &err))
        << err;
    support::TaskPool pool(width);
    emit::EmitOptions opts;
    opts.run.input = {1.0};  // the deleted edge is real
    opts.pool = &pool;
    const emit::EmissionReport rep = s->emitOpenMP(opts);
    const emit::LoopEmission* le = rowFor(rep, loopId);
    ASSERT_NE(le, nullptr);
    EXPECT_TRUE(le->relativeDiverged);
    const std::string got = renderEmission(rep, *s);
    if (width == 1) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << "pool width " << width;
    }
  }
}

// The evidence counts loop entries, not iteration advances: one activation
// of a 10-trip loop reports 1.
TEST(EmissionFanOut, SerialExecutionsCountsActivations) {
  constexpr char kTenTrips[] =
      "      PROGRAM TEN\n"
      "      DIMENSION A(10)\n"
      "      DO 10 I = 1, 10\n"
      "        A(I) = FLOAT(I)\n"
      "10    CONTINUE\n"
      "      PRINT *, A(10)\n"
      "      END\n";
  auto s = loadSource(kTenTrips, "ten");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  const emit::EmissionReport rep = s->emitOpenMP();
  ASSERT_EQ(rep.loops.size(), 1u);
  const emit::LoopEmission& le = rep.loops.front();
  ASSERT_TRUE(le.emitted) << le.refusal;
  EXPECT_EQ(le.serialExecutions, 1);
  EXPECT_NE(le.evidence.find("loop executed 1x serially"), std::string::npos)
      << le.evidence;
}

// ---------------------------------------------------------------------------
// Emission evidence persists in the program database
// ---------------------------------------------------------------------------

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(EmissionPersistence, ReportSurvivesPdbRoundTrip) {
  auto s = loadSource(kReduction, "red-pdb");
  ASSERT_TRUE(s);
  (void)markParallelLoops(*s, false);
  const emit::EmissionReport orig = s->emitOpenMP();
  ASSERT_TRUE(orig.ran) << orig.error;
  ASSERT_GT(orig.loopsEmitted, 0);

  ScopedFile store("emission.red.pspdb");
  ASSERT_TRUE(s->savePdb(store.path()));

  for (int threads : {1, 4}) {
    DiagnosticEngine diags;
    auto warm =
        ped::Session::openWarm(kReduction, store.path(), diags, threads);
    ASSERT_NE(warm, nullptr);
    const emit::EmissionReport& r = warm->lastEmission();
    ASSERT_TRUE(r.ran) << "emission evidence lost across reopen @" << threads;
    ASSERT_EQ(r.loops.size(), orig.loops.size());
    for (std::size_t i = 0; i < r.loops.size(); ++i) {
      EXPECT_EQ(r.loops[i].procedure, orig.loops[i].procedure);
      EXPECT_EQ(r.loops[i].loop, orig.loops[i].loop);
      EXPECT_EQ(r.loops[i].emitted, orig.loops[i].emitted);
      EXPECT_EQ(r.loops[i].payload, orig.loops[i].payload);
      EXPECT_EQ(r.loops[i].relativeChecked, orig.loops[i].relativeChecked);
      EXPECT_EQ(r.loops[i].serialExecutions, orig.loops[i].serialExecutions);
    }
    EXPECT_EQ(r.loopsEmitted, orig.loopsEmitted);
    EXPECT_EQ(r.loopsRefused, orig.loopsRefused);
  }
}

// The restored PARALLEL marks are part of the printed text every graph key
// covers, so the warm open keys its graph slices after reapplying them:
// a marked and emitted deck reopens with every slice restored, no live
// test, and the analysis of the saving session.
TEST(EmissionPersistence, MarkedDeckRestoresEveryGraphSlice) {
  auto s = loadDeck("slab2d");
  ASSERT_TRUE(s);
  s->analyzeParallel(1);
  (void)markParallelLoops(*s, false);
  ASSERT_TRUE(s->emitOpenMP().ran);
  const std::string want = analysisSnapshot(*s);
  ScopedFile store("emission.marked.pspdb");
  ASSERT_TRUE(s->savePdb(store.path()));

  for (int threads : {1, 4}) {
    DiagnosticEngine diags;
    auto warm = ped::Session::openWarm(byName("slab2d")->source,
                                       store.path(), diags, threads);
    ASSERT_NE(warm, nullptr);
    EXPECT_TRUE(warm->lastEmission().ran) << threads;
    const ped::PdbStats& ps = warm->pdbStats();
    EXPECT_EQ(ps.quarantined, 0u) << threads;
    EXPECT_EQ(ps.graphMisses, 0u) << threads;
    EXPECT_EQ(ps.graphHits, s->procedureNames().size()) << threads;
    EXPECT_EQ(ps.testsRunLive, 0) << threads;
    EXPECT_EQ(analysisSnapshot(*warm), want) << threads;
  }
}

// The sweep driver aggregates without losing loops, and its invariants
// hold on the real corpus.
TEST(EmissionSweepTest, CorpusSweepHoldsInvariants) {
  EmissionDriverOptions opts;
  opts.forceAllLoops = true;
  const EmissionSweep sw = emitAllDecks(opts);
  EXPECT_EQ(sw.decks.size(), all().size());
  EXPECT_TRUE(sw.allDecksRan);
  EXPECT_TRUE(sw.allRoundTripsOk);
  EXPECT_TRUE(sw.zeroSilentDrops);
  EXPECT_GT(sw.loopsConsidered, 0);
  EXPECT_GT(sw.loopsEmitted, 0);
  EXPECT_GT(sw.loopsRefused, 0) << "forced marks must exercise refusals";
  int histogramTotal = 0;
  for (const auto& [k, n] : sw.clauseHistogram) histogramTotal += n;
  EXPECT_GT(histogramTotal, 0);
}

}  // namespace
}  // namespace ps::workloads
