// Dynamic dependence validation suite.
//
// The paper's workshop experience is that users deleted dependences that
// were actually carried, and PED trusted them. This suite asserts the
// trust gap is closed: a deletion the trace refutes is auto-restored with
// a provenance-naming failure report, a deletion the trace confirms safe
// STAYS deleted with its evidence attached, and everything the pass
// cannot check degrades to an explicit unvalidated tag — on all eight
// decks, byte-identically at 1/2/4/8 analysis threads, and across the
// persistent program database round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fortran/pretty.h"
#include "interp/machine.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/taskpool.h"
#include "validate/validate.h"
#include "workloads/emission_driver.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::workloads {
namespace {

class ScopedFile {
 public:
  explicit ScopedFile(std::string path) : path_(std::move(path)) {}
  ~ScopedFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// A loop whose dependence on A is real only when the runtime value of K
// makes the write range overlap the read range. Analysis cannot know K, so
// the edge is Pending — exactly the kind of edge workshop users deleted.
constexpr char kRuntimeDep[] =
    "      PROGRAM RTDEP\n"
    "      DIMENSION A(200)\n"
    "      READ *, K\n"
    "      DO 10 I = 1, 50\n"
    "        A(I+K) = A(I) + 1.0\n"
    "10    CONTINUE\n"
    "      PRINT *, A(1)\n"
    "      END\n";

// Same shape, but the array is too small: running it traps out of bounds,
// so nothing dynamic can be concluded about any deletion.
constexpr char kCrashing[] =
    "      PROGRAM CRASH\n"
    "      DIMENSION A(10)\n"
    "      READ *, K\n"
    "      DO 10 I = 1, 50\n"
    "        A(I+K) = A(I) + 1.0\n"
    "10    CONTINUE\n"
    "      END\n";

// A first-order recurrence hidden behind a call: the carried dependence is
// an interprocedural summary edge the trace matcher cannot attribute, so
// only relative execution can refute its deletion.
constexpr char kInterprocRecurrence[] =
    "      PROGRAM IPREC\n"
    "      DIMENSION A(100)\n"
    "      COMMON /BLK/ A\n"
    "      A(1) = 1.0\n"
    "      DO 10 I = 2, 50\n"
    "        CALL STEP(I)\n"
    "10    CONTINUE\n"
    "      PRINT *, A(50)\n"
    "      END\n"
    "      SUBROUTINE STEP(I)\n"
    "      DIMENSION A(100)\n"
    "      COMMON /BLK/ A\n"
    "      A(I) = A(I-1) + 1.0\n"
    "      END\n";

std::unique_ptr<ped::Session> loadSource(const char* src,
                                         const std::string& deck) {
  DiagnosticEngine diags;
  auto s = ped::Session::load(src, diags);
  if (s) s->setDeckName(deck);
  return s;
}

// The Rejected edges of one procedure, by id.
std::vector<const dep::Dependence*> rejectedEdges(ped::Session& s,
                                                  const std::string& proc) {
  std::vector<const dep::Dependence*> out;
  EXPECT_TRUE(s.selectProcedure(proc));
  for (const dep::Dependence& d : s.workspace().graph->all()) {
    if (d.mark == dep::DepMark::Rejected) out.push_back(&d);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Interpreter diagnostics carry statement ids (trace mode prerequisites).
// ---------------------------------------------------------------------------

TEST(InterpDiagnostics, OutOfBoundsNamesTheFaultingStatement) {
  auto s = loadSource(kCrashing, "crash");
  ASSERT_NE(s, nullptr);
  interp::RunOptions ro;
  ro.input = {0.0};  // K = 0: A(I) with I up to 50 overruns A(10)
  interp::RunResult r = s->profile(ro);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errorStmt, fortran::kInvalidStmt);
  // The faulting statement must be one the program actually executed.
  EXPECT_TRUE(r.stmtCounts.count(r.errorStmt))
      << "errorStmt " << r.errorStmt << " never executed";
}

TEST(InterpDiagnostics, TraceRecordsEventsAndUninitializedReads) {
  constexpr char kUninit[] =
      "      PROGRAM UREAD\n"
      "      DIMENSION A(10)\n"
      "      S = A(3) + 1.0\n"
      "      PRINT *, S\n"
      "      END\n";
  auto s = loadSource(kUninit, "uninit");
  ASSERT_NE(s, nullptr);
  interp::Trace trace;
  interp::RunOptions ro;
  ro.trace = &trace;
  interp::RunResult r = s->profile(ro);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(trace.complete());
  EXPECT_GT(trace.events.size(), 0u);
  ASSERT_GT(trace.uninitReadCount, 0u);
  EXPECT_EQ(trace.uninitReads[0].variable, "A");
  EXPECT_NE(trace.uninitReads[0].stmt, fortran::kInvalidStmt);
}

TEST(InterpDiagnostics, TracedRunIsObservationallyIdentical) {
  for (const Workload& w : all()) {
    auto s = loadDeck(w.name);
    ASSERT_NE(s, nullptr) << w.name;
    interp::RunResult plain = s->profile({});
    interp::Trace trace;
    interp::RunOptions ro;
    ro.trace = &trace;
    interp::RunResult traced = s->profile(ro);
    ASSERT_EQ(plain.ok, traced.ok) << w.name;
    EXPECT_TRUE(plain.outputEquals(traced)) << w.name;
    EXPECT_EQ(plain.steps, traced.steps) << w.name;
    EXPECT_GT(trace.events.size(), 0u) << w.name;
  }
}

// ---------------------------------------------------------------------------
// Verdicts on the runtime-dependent loop.
// ---------------------------------------------------------------------------

// Reject every pending carried edge on A in RTDEP's loop; returns how many.
int deleteLoopEdges(ped::Session& s) {
  auto loops = s.loops();
  EXPECT_FALSE(loops.empty());
  EXPECT_TRUE(s.selectLoop(loops[0].id));
  ped::Session::DependenceFilter f;
  f.variable = "A";
  f.mark = dep::DepMark::Pending;
  return s.markAllMatching(f, dep::DepMark::Rejected, "believed independent");
}

TEST(ValidateDeletions, WitnessRefutesAndAutoRestoresUnsoundDeletion) {
  auto s = loadSource(kRuntimeDep, "rtdep");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(deleteLoopEdges(*s), 0);
  const std::size_t rejectedBefore = rejectedEdges(*s, "RTDEP").size();
  ASSERT_GT(rejectedBefore, 0u);

  ped::Session::ValidationOptions opts;
  opts.run.input = {1.0};  // K = 1: the recurrence is real
  validate::ValidationReport rep = s->validateDeletions(opts);
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_TRUE(rep.traceComplete);
  EXPECT_GT(rep.refuted, 0);
  EXPECT_EQ(rep.refuted, rep.restored);
  // Whatever is STILL deleted must be confirmed safe, never merely trusted
  // (with K=1 the True dep is real and restored; the Anti direction has no
  // witness on this input and legitimately survives, evidence attached).
  for (const dep::Dependence* d : rejectedEdges(*s, "RTDEP")) {
    EXPECT_NE(d->evidence.find("no witness"), std::string::npos)
        << "surviving deletion lacks safety evidence:\n"
        << rep.str();
  }

  // The restored edges carry the witness and survive reanalysis.
  bool sawEvidence = false;
  for (const dep::Dependence& d : s->workspace().graph->all()) {
    if (d.evidence.rfind("trace witness:", 0) == 0) {
      sawEvidence = true;
      EXPECT_EQ(d.mark, dep::DepMark::Pending);
      EXPECT_NE(d.reason.find("auto-restored"), std::string::npos);
    }
  }
  EXPECT_TRUE(sawEvidence);

  // The failure report names the deletion's provenance.
  ASSERT_FALSE(s->failures().empty());
  const ped::FailureReport& f = s->failures().back();
  EXPECT_EQ(f.operation, "validateDeletions");
  EXPECT_TRUE(f.rolledBack);
  EXPECT_NE(f.detail.find("deleted by user"), std::string::npos) << f.detail;
  EXPECT_NE(f.detail.find("deck 'rtdep'"), std::string::npos) << f.detail;
  EXPECT_NE(f.detail.find("believed independent"), std::string::npos)
      << f.detail;
}

TEST(ValidateDeletions, CompleteTraceWithoutWitnessConfirmsSafeDeletion) {
  auto s = loadSource(kRuntimeDep, "rtdep");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(deleteLoopEdges(*s), 0);
  const std::size_t rejectedBefore = rejectedEdges(*s, "RTDEP").size();

  ped::Session::ValidationOptions opts;
  opts.run.input = {100.0};  // K = 100: ranges never overlap
  validate::ValidationReport rep = s->validateDeletions(opts);
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_TRUE(rep.traceComplete);
  EXPECT_EQ(rep.refuted, 0) << rep.str();
  EXPECT_GT(rep.confirmedSafe, 0);

  // Confirmed-safe deletions STAY deleted, with their evidence attached.
  auto rejected = rejectedEdges(*s, "RTDEP");
  EXPECT_EQ(rejected.size(), rejectedBefore);
  for (const dep::Dependence* d : rejected) {
    EXPECT_NE(d->evidence.find("no witness"), std::string::npos)
        << d->evidence;
  }
  EXPECT_TRUE(s->failures().empty());
  EXPECT_TRUE(s->degradationReport().unvalidated.empty());
}

TEST(ValidateDeletions, FailedRunDegradesDeletionsToUnvalidated) {
  auto s = loadSource(kCrashing, "crash");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(deleteLoopEdges(*s), 0);

  ped::Session::ValidationOptions opts;
  opts.run.input = {0.0};  // traps out of bounds
  validate::ValidationReport rep = s->validateDeletions(opts);
  EXPECT_FALSE(rep.ran);
  EXPECT_FALSE(rep.error.empty());
  EXPECT_NE(rep.errorStmt, fortran::kInvalidStmt);
  EXPECT_GT(rep.unvalidated, 0);

  // Deletions survive (nothing proved them wrong) but are explicitly
  // tagged, and the degradation report lists them.
  auto rejected = rejectedEdges(*s, "CRASH");
  ASSERT_FALSE(rejected.empty());
  for (const dep::Dependence* d : rejected) {
    EXPECT_NE(d->evidence.find("unvalidated"), std::string::npos);
  }
  EXPECT_FALSE(s->degradationReport().unvalidated.empty());
}

TEST(ValidateDeletions, BudgetOverflowDegradesToUnvalidatedNotSafe) {
  auto s = loadSource(kRuntimeDep, "rtdep");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(deleteLoopEdges(*s), 0);

  ped::Session::ValidationOptions opts;
  opts.run.input = {100.0};  // safe input, but the trace cannot hold it
  opts.budget.maxEvents = 8;
  opts.relativeChecks = false;
  validate::ValidationReport rep = s->validateDeletions(opts);
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_FALSE(rep.traceComplete);
  EXPECT_EQ(rep.confirmedSafe, 0)
      << "an overflowed trace must never confirm safety:\n"
      << rep.str();
  EXPECT_GT(rep.unvalidated, 0);
  EXPECT_FALSE(s->degradationReport().unvalidated.empty());
}

// ---------------------------------------------------------------------------
// Relative execution: the checker the trace matcher cannot replace.
// ---------------------------------------------------------------------------

TEST(RelativeExecution, RecurrenceLoopDivergesUnderShuffledSchedules) {
  auto s = loadSource(kInterprocRecurrence, "iprec");
  ASSERT_NE(s, nullptr);
  auto loops = s->loops();
  ASSERT_FALSE(loops.empty());
  interp::RunOptions base;
  interp::RunResult serial = s->profile(base);
  ASSERT_TRUE(serial.ok) << serial.error;
  validate::RelativeResult rr = validate::relativeCheck(
      s->program(), loops[0].id, base, serial, /*schedules=*/3);
  EXPECT_TRUE(rr.ran);
  EXPECT_TRUE(rr.diverged) << rr.detail;
  EXPECT_FALSE(rr.detail.empty());
}

TEST(ValidateDeletions, RelativeCheckRestoresInterproceduralDeletion) {
  auto s = loadSource(kInterprocRecurrence, "iprec");
  ASSERT_NE(s, nullptr);
  // Delete every pending carried edge on the loop — including the
  // interprocedural summary edges the trace matcher cannot attribute.
  auto loops = s->loops();
  ASSERT_FALSE(loops.empty());
  ASSERT_TRUE(s->selectLoop(loops[0].id));
  ped::Session::DependenceFilter f;
  f.mark = dep::DepMark::Pending;
  ASSERT_GT(s->markAllMatching(f, dep::DepMark::Rejected, "looks parallel"),
            0);
  ASSERT_FALSE(rejectedEdges(*s, "IPREC").empty());

  validate::ValidationReport rep = s->validateDeletions();
  ASSERT_TRUE(rep.ran) << rep.error;
  EXPECT_GE(rep.relativeChecks, 1) << rep.str();
  EXPECT_GE(rep.relativeDivergences, 1) << rep.str();
  EXPECT_GT(rep.restored, 0) << rep.str();
  // The recurrence-carrying deletions are back; the failure report exists.
  bool sawRelativeEvidence = false;
  ASSERT_TRUE(s->selectProcedure("IPREC"));
  for (const dep::Dependence& d : s->workspace().graph->all()) {
    if (d.evidence.rfind("relative execution:", 0) == 0) {
      sawRelativeEvidence = true;
      EXPECT_EQ(d.mark, dep::DepMark::Pending);
    }
  }
  EXPECT_TRUE(sawRelativeEvidence) << rep.str();
  EXPECT_FALSE(s->failures().empty());
}

// ---------------------------------------------------------------------------
// All eight decks: known-unsound deletions are refuted and auto-restored,
// byte-identically at 1/2/4/8 analysis threads.
// ---------------------------------------------------------------------------

class ValidationDecks : public ::testing::TestWithParam<std::string> {};

TEST_P(ValidationDecks, UnsoundDeletionsRefutedIdenticallyAcrossThreads) {
  const std::string deck = GetParam();

  // One scenario, replayed per thread count: analyze, validate a clean
  // graph to learn which pending edges the trace proves real, delete
  // exactly those (the known-unsound deletions), re-validate, snapshot.
  auto runScenario = [&](int threads, int* victims,
                         validate::ValidationReport* out) -> std::string {
    auto s = loadDeck(deck);
    if (!s) return "LOAD FAILED";
    (void)s->analyzeParallel(threads);

    ped::Session::ValidationOptions opts;
    opts.relativeChecks = false;  // phase under test: the trace matcher
    validate::ValidationReport base = s->validateDeletions(opts);
    EXPECT_TRUE(base.ran) << deck << ": " << base.error;
    EXPECT_EQ(base.refuted, 0) << deck;

    std::vector<std::pair<std::string, std::uint32_t>> toDelete;
    for (const validate::Finding& f : base.findings) {
      if (f.verdict != validate::Verdict::WitnessFound) continue;
      if (f.edge.type == dep::DepType::Input) continue;
      if (toDelete.size() >= 4) break;
      toDelete.push_back({f.edge.procedure, f.edge.depId});
    }
    *victims = static_cast<int>(toDelete.size());
    for (const auto& [proc, id] : toDelete) {
      EXPECT_TRUE(s->selectProcedure(proc)) << deck;
      EXPECT_TRUE(s->markDependence(id, dep::DepMark::Rejected,
                                    "workshop-style deletion"))
          << deck << " dep#" << id;
    }

    validate::ValidationReport rep = s->validateDeletions(opts);
    EXPECT_TRUE(rep.ran) << deck << ": " << rep.error;
    // Every known-unsound deletion is refuted and restored; none survive.
    EXPECT_EQ(rep.refuted, *victims) << deck << ":\n" << rep.str();
    EXPECT_EQ(rep.restored, *victims) << deck;
    for (const auto& [proc, id] : toDelete) {
      EXPECT_TRUE(s->selectProcedure(proc));
      const dep::Dependence* d = s->workspace().graph->byId(id);
      EXPECT_NE(d, nullptr) << deck;
      if (!d) continue;
      EXPECT_EQ(d->mark, dep::DepMark::Pending) << deck << " dep#" << id;
      EXPECT_NE(d->evidence.find("trace witness"), std::string::npos);
    }
    if (out) *out = rep;
    return analysisSnapshot(*s);
  };

  int victims1 = 0;
  validate::ValidationReport rep1;
  const std::string snap1 = runScenario(1, &victims1, &rep1);
  ASSERT_NE(snap1, "LOAD FAILED") << deck;
  for (int threads : {2, 4, 8}) {
    int victims = 0;
    const std::string snap = runScenario(threads, &victims, nullptr);
    EXPECT_EQ(victims, victims1) << deck << " @" << threads;
    EXPECT_EQ(snap, snap1) << deck << " @" << threads
                           << " threads: snapshot diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(All, ValidationDecks, ::testing::Values(
    "spec77", "neoss", "nxsns", "dpmin", "slab2d", "slalom", "pueblo3d",
    "arc3d"));

// ---------------------------------------------------------------------------
// Relative execution fans out on a pool without changing any answer.
// ---------------------------------------------------------------------------

/// The report and every failure record, rendered.
std::string renderValidation(const validate::ValidationReport& rep,
                             const ped::Session& s) {
  std::string out = rep.str() + "\n";
  for (const validate::RelativeResult& r : rep.relative) {
    out += "stmt" + std::to_string(r.loop) + " x" +
           std::to_string(r.serialExecutions) + " " + r.detail + "\n";
  }
  for (const ped::FailureReport& f : s.failures()) {
    out += f.operation + (f.rolledBack ? " [rolled back] " : " ") + f.detail +
           "\n";
  }
  return out;
}

/// Reject every pending edge of every loop: each loop the deletions make
/// parallelizable becomes a relative-execution candidate.
void deleteEveryPendingEdge(ped::Session& s) {
  for (const std::string& proc : s.procedureNames()) {
    ASSERT_TRUE(s.selectProcedure(proc));
    for (const auto& row : s.loops()) {
      ASSERT_TRUE(s.selectLoop(row.id));
      ped::Session::DependenceFilter f;
      f.mark = dep::DepMark::Pending;
      (void)s.markAllMatching(f, dep::DepMark::Rejected, "looks parallel");
    }
  }
}

constexpr int kPoolWidths[] = {1, 2, 4, 8};

TEST_P(ValidationDecks, RelativeFanOutIdenticalAtEveryPoolWidth) {
  const std::string deck = GetParam();
  std::string want;
  for (int width : kPoolWidths) {
    auto s = loadDeck(deck);
    ASSERT_NE(s, nullptr);
    deleteEveryPendingEdge(*s);
    support::TaskPool pool(width);
    ped::Session::ValidationOptions opts;
    opts.pool = &pool;
    const validate::ValidationReport rep = s->validateDeletions(opts);
    ASSERT_TRUE(rep.ran) << deck << ": " << rep.error;
    const std::string got = renderValidation(rep, *s);
    if (width == 1) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << deck << " at pool width " << width;
    }
  }
}

TEST(RelativeExecution, DivergingCheckIdenticalAtEveryPoolWidth) {
  std::string want;
  for (int width : kPoolWidths) {
    auto s = loadSource(kInterprocRecurrence, "iprec");
    ASSERT_NE(s, nullptr);
    deleteEveryPendingEdge(*s);
    support::TaskPool pool(width);
    ped::Session::ValidationOptions opts;
    opts.pool = &pool;
    const validate::ValidationReport rep = s->validateDeletions(opts);
    ASSERT_TRUE(rep.ran) << rep.error;
    EXPECT_GE(rep.relativeDivergences, 1) << rep.str();
    const std::string got = renderValidation(rep, *s);
    if (width == 1) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << "pool width " << width;
    }
  }
}

std::string parallelFlags(const fortran::Program& p) {
  std::string out;
  for (const auto& u : p.units) {
    u->forEachStmt([&](const fortran::Stmt& s) {
      if (s.kind == fortran::StmtKind::Do) {
        out += std::to_string(s.id) + (s.isParallel ? "P " : "S ");
      }
    });
  }
  return out;
}

// Relative execution only reads the program: no marking flips, even on a
// loop that is not PARALLEL-marked, and the batch answers exactly what
// one-at-a-time checks answer while its runs share the program.
TEST(RelativeExecution, ChecksLeaveProgramUntouchedAndBatchMatchesSingle) {
  for (const std::string deck : {"slab2d", "dpmin"}) {
    auto s = loadDeck(deck);
    ASSERT_NE(s, nullptr);
    (void)markParallelLoops(*s, /*forceAllLoops=*/false);
    const fortran::Program& prog = s->program();
    const std::string flags = parallelFlags(prog);
    const std::string text = fortran::printProgram(prog);
    ASSERT_NE(flags.find('P'), std::string::npos) << deck;
    ASSERT_NE(flags.find('S'), std::string::npos) << deck;

    interp::RunOptions serialOpts;
    serialOpts.checkParallel = false;
    const interp::RunResult serial = s->profile(serialOpts);
    ASSERT_TRUE(serial.ok) << serial.error;
    std::vector<validate::RelativeJob> jobs;
    for (const auto& u : prog.units) {
      u->forEachStmt([&](const fortran::Stmt& st) {
        if (st.kind == fortran::StmtKind::Do) jobs.push_back({st.id, {}});
      });
    }
    support::TaskPool pool(4);
    const std::vector<validate::RelativeResult> batch =
        validate::relativeCheckAll(prog, jobs, serial, 3, &pool);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const validate::RelativeResult one =
          validate::relativeCheck(prog, jobs[i].loop, {}, serial, 3);
      EXPECT_EQ(batch[i].loop, one.loop);
      EXPECT_EQ(batch[i].ran, one.ran);
      EXPECT_EQ(batch[i].diverged, one.diverged) << deck << " " << one.loop;
      EXPECT_EQ(batch[i].serialExecutions, one.serialExecutions);
      EXPECT_EQ(batch[i].detail, one.detail);
      EXPECT_EQ(batch[i].raceVariables, one.raceVariables);
    }
    EXPECT_EQ(parallelFlags(prog), flags) << deck;
    EXPECT_EQ(fortran::printProgram(prog), text) << deck;
  }
}

// At least one deck must actually yield witnessed pending edges, or the
// whole parameterized suite proves nothing.
TEST(ValidationDecks, SuiteIsNotVacuous) {
  int totalWitnessed = 0;
  for (const Workload& w : all()) {
    auto s = loadDeck(w.name);
    ASSERT_NE(s, nullptr) << w.name;
    ped::Session::ValidationOptions opts;
    opts.relativeChecks = false;
    validate::ValidationReport rep = s->validateDeletions(opts);
    if (rep.ran) totalWitnessed += rep.witnessedPending;
  }
  EXPECT_GT(totalWitnessed, 0);
}

// ---------------------------------------------------------------------------
// Evidence persists through the program database.
// ---------------------------------------------------------------------------

TEST(ValidationPersistence, EvidenceAndMarksSurviveWarmReopen) {
  auto s = loadSource(kRuntimeDep, "rtdep");
  ASSERT_NE(s, nullptr);
  ASSERT_GT(deleteLoopEdges(*s), 0);
  ped::Session::ValidationOptions opts;
  opts.run.input = {100.0};
  validate::ValidationReport rep = s->validateDeletions(opts);
  ASSERT_TRUE(rep.ran) << rep.error;
  ASSERT_GT(rep.confirmedSafe, 0);

  ScopedFile store("validation.rtdep.pspdb");
  ASSERT_TRUE(s->savePdb(store.path()));

  for (int threads : {1, 4}) {
    DiagnosticEngine diags;
    auto warm =
        ped::Session::openWarm(kRuntimeDep, store.path(), diags, threads);
    ASSERT_NE(warm, nullptr);
    EXPECT_GT(warm->pdbStats().graphHits, 0u) << "marks changed graph keys?";
    auto rejected = rejectedEdges(*warm, "RTDEP");
    ASSERT_FALSE(rejected.empty())
        << "confirmed-safe deletion lost across reopen @" << threads;
    for (const dep::Dependence* d : rejected) {
      EXPECT_NE(d->evidence.find("no witness"), std::string::npos)
          << "evidence lost across reopen @" << threads;
    }
    // The restored mark table keeps the deletion alive across reanalysis.
    warm->fullReanalysis();
    EXPECT_FALSE(rejectedEdges(*warm, "RTDEP").empty());
  }
}

TEST(ValidationPersistence, ValidationOffAddsNothingToAnalysisState) {
  // A session that never validates produces graphs with no evidence and a
  // snapshot identical across thread counts — the zero-overhead contract.
  for (const std::string deck : {"slab2d", "dpmin"}) {
    auto s1 = loadDeck(deck);
    ASSERT_NE(s1, nullptr);
    (void)s1->analyzeParallel(1);
    std::string snap1 = analysisSnapshot(*s1);
    EXPECT_EQ(snap1.find(" evidence="), std::string::npos) << deck;
    for (int threads : {2, 8}) {
      auto s = loadDeck(deck);
      ASSERT_NE(s, nullptr);
      (void)s->analyzeParallel(threads);
      EXPECT_EQ(analysisSnapshot(*s), snap1) << deck << " @" << threads;
    }
  }
}

}  // namespace
}  // namespace ps::workloads
