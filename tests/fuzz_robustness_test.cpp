// Fuzz / fault-injection harness for the transactional edit engine.
//
// The paper's power-steering claim is a robustness claim: whatever the user
// feeds the editor — garbage decks, mid-flight transformation failures,
// hostile edits — the system must respond with diagnostics, never a crash
// and never a silently corrupted program database. This harness mutates the
// eight workload sources with a fixed-seed generator and drives
// load -> analyze -> transform -> edit -> rollback cycles, asserting after
// every step that the invariant auditor finds nothing.
//
// Iteration count: PS_FUZZ_ITERS overrides the default (520) so CI can run
// a quick smoke pass and a nightly can run longer.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "fortran/pretty.h"
#include "ped/session.h"
#include "support/audit.h"
#include "support/diagnostics.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps {
namespace {

int fuzzIterations() {
  if (const char* env = std::getenv("PS_FUZZ_ITERS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 520;
}

// PS_FUZZ_PARALLEL=<n> (n > 0) routes the harness's whole-program analyses
// through the task-DAG engine with n worker threads, so the mutated-deck
// corpus also hammers the parallel path. Unset/0 keeps the lazy sequential
// analysis this harness originally exercised.
int fuzzParallelThreads() {
  if (const char* env = std::getenv("PS_FUZZ_PARALLEL")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 0;
}

void maybeParallelAnalyze(ped::Session& s) {
  if (int n = fuzzParallelThreads()) (void)s.analyzeParallel(n);
}

// PS_VALIDATE=1 runs a dynamic-validation pass after each analyzed cycle:
// the traced interpreter run, the witness matcher and any auto-restores
// must hold up on mutated decks too — diagnostics or clean verdicts,
// never a crash, never an audit violation.
bool fuzzValidate() {
  if (const char* env = std::getenv("PS_VALIDATE")) {
    return std::atoi(env) > 0;
  }
  return false;
}

void maybeValidate(ped::Session& s) {
  if (!fuzzValidate()) return;
  ped::Session::ValidationOptions opts;
  opts.budget.maxEvents = 200'000;   // keep the fuzz corpus fast
  opts.run.maxSteps = 2'000'000;
  opts.budget.maxRelativeChecks = 2;
  validate::ValidationReport rep = s.validateDeletions(opts);
  // ran == false is fine (mutated decks crash); silence is what's banned.
  if (!rep.ran) {
    EXPECT_FALSE(rep.error.empty());
  }
}

// ---------------------------------------------------------------------------
// Source mutators. Each takes the rng and returns a mutated copy; all are
// byte-level so they can produce every flavor of malformed fixed-form deck:
// truncated statements, corrupted continuation columns, spliced tokens,
// garbage subscripts.
// ---------------------------------------------------------------------------

using Rng = std::mt19937;

std::size_t pick(Rng& rng, std::size_t n) {
  return n == 0 ? 0 : std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

std::string truncate(std::string s, Rng& rng) {
  if (s.empty()) return s;
  s.resize(pick(rng, s.size()));
  return s;
}

std::string spliceTokens(std::string s, Rng& rng) {
  if (s.size() < 8) return s;
  std::size_t from = pick(rng, s.size() - 4);
  std::size_t len = 1 + pick(rng, 16);
  if (from + len > s.size()) len = s.size() - from;
  std::size_t to = pick(rng, s.size());
  s.insert(to, s.substr(from, len));
  return s;
}

std::string garbageColumns(std::string s, Rng& rng) {
  static const char pool[] = "()=+-*/,.$&0123ABCXYZ \t";
  std::size_t start = pick(rng, s.size());
  std::size_t len = 1 + pick(rng, 24);
  for (std::size_t i = start; i < s.size() && i < start + len; ++i) {
    if (s[i] == '\n') continue;  // keep the card structure recognizable
    s[i] = pool[pick(rng, sizeof(pool) - 2)];
  }
  return s;
}

std::vector<std::string> splitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find('\n', start);
    if (end == std::string::npos) {
      if (start < s.size()) lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string duplicateLine(std::string s, Rng& rng) {
  auto lines = splitLines(s);
  if (lines.empty()) return s;
  std::size_t i = pick(rng, lines.size());
  lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
  return joinLines(lines);
}

std::string deleteLine(std::string s, Rng& rng) {
  auto lines = splitLines(s);
  if (lines.size() < 2) return s;
  lines.erase(lines.begin() + static_cast<long>(pick(rng, lines.size())));
  return joinLines(lines);
}

/// Corrupt a continuation card: make column 6 of a random line non-blank so
/// the line glues onto its predecessor, or blank out a real continuation.
std::string corruptContinuation(std::string s, Rng& rng) {
  auto lines = splitLines(s);
  if (lines.empty()) return s;
  std::string& l = lines[pick(rng, lines.size())];
  while (l.size() < 6) l += ' ';
  l[5] = (l[5] == ' ') ? '1' : ' ';
  return joinLines(lines);
}

/// Stuff garbage inside a parenthesized region — subscript torture.
std::string garbageSubscript(std::string s, Rng& rng) {
  std::vector<std::size_t> parens;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '(') parens.push_back(i);
  }
  if (parens.empty()) return s;
  static const char* junk[] = {"I+", "**", "J,K,", "(", "))", "IT(", "-",
                               "1E", ",,"};
  s.insert(parens[pick(rng, parens.size())] + 1,
           junk[pick(rng, sizeof(junk) / sizeof(junk[0]))]);
  return s;
}

std::string mutateSource(const std::string& original, Rng& rng) {
  std::string s = original;
  int rounds = 1 + static_cast<int>(pick(rng, 3));
  for (int i = 0; i < rounds; ++i) {
    switch (pick(rng, 7)) {
      case 0: s = truncate(std::move(s), rng); break;
      case 1: s = spliceTokens(std::move(s), rng); break;
      case 2: s = garbageColumns(std::move(s), rng); break;
      case 3: s = duplicateLine(std::move(s), rng); break;
      case 4: s = deleteLine(std::move(s), rng); break;
      case 5: s = corruptContinuation(std::move(s), rng); break;
      case 6: s = garbageSubscript(std::move(s), rng); break;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Phase 1: mutated-source loads. The parser must recover (diagnostics plus
// a usable partial program) and whatever it builds must satisfy every
// structural invariant; a deep round-trip audit runs on a sample.
// ---------------------------------------------------------------------------

TEST(FuzzRobustness, MutatedSourceLoadsNeverCrashOrCorrupt) {
  const auto& programs = workloads::all();
  ASSERT_FALSE(programs.empty());
  Rng rng(20260806u);
  const int iters = fuzzIterations();

  int loaded = 0, rejected = 0, deepAudits = 0;
  for (int i = 0; i < iters; ++i) {
    const auto& w = programs[static_cast<std::size_t>(i) % programs.size()];
    std::string mutated = mutateSource(w.source, rng);

    DiagnosticEngine diags;
    auto session = ped::Session::load(mutated, diags);
    if (!session) {
      ++rejected;  // nothing parsed at all: diagnostics-only failure
      continue;
    }
    ++loaded;

    const bool deep = (i % 8) == 0;
    if (deep) ++deepAudits;
    audit::Report rep = session->auditNow(deep);
    EXPECT_TRUE(rep.ok()) << "iteration " << i << " (" << w.name
                          << "): " << rep.str();

    // Exercise the analysis stack on a sample: progressive disclosure over
    // a mutated deck must still produce a coherent model + graph.
    if (i % 4 == 0) {
      maybeParallelAnalyze(*session);
      (void)session->loops();
      audit::Report after = session->auditNow(false);
      EXPECT_TRUE(after.ok())
          << "post-analysis audit, iteration " << i << " (" << w.name
          << "): " << after.str();
      if (i % 16 == 0) {
        maybeValidate(*session);
        audit::Report postValidate = session->auditNow(false);
        EXPECT_TRUE(postValidate.ok())
            << "post-validation audit, iteration " << i << " (" << w.name
            << "): " << postValidate.str();
      }
    }
  }
  // The mutators must actually produce both outcomes, or they are too tame
  // (or the parser rejects everything and the test proves nothing).
  EXPECT_GT(loaded, 0);
  EXPECT_GT(deepAudits, 0);
  SUCCEED() << loaded << " loaded, " << rejected << " rejected";
}

// ---------------------------------------------------------------------------
// Phase 2: fault-injected transform/edit/rollback cycles on clean programs.
// ---------------------------------------------------------------------------

TEST(FuzzRobustness, FaultInjectedTransformCyclesRollBackCleanly) {
  Rng rng(97531u);
  const auto& programs = workloads::all();
  const int cycles = std::max(8, fuzzIterations() / 16);

  for (int i = 0; i < cycles; ++i) {
    const auto& w = programs[static_cast<std::size_t>(i) % programs.size()];
    DiagnosticEngine diags;
    auto session = ped::Session::load(w.source, diags);
    ASSERT_NE(session, nullptr) << w.name;

    // Materialize the analysis and pick a loop to torture.
    maybeParallelAnalyze(*session);
    auto loops = session->loops();
    if (loops.empty()) continue;
    auto loopId = loops[pick(rng, loops.size())].id;

    // The transformation to fault: one of the loop's applicable and safe
    // guidance entries, else Loop Reversal, so the rollback undoes what
    // the catalog really does to a unit (cloned, moved and deleted
    // statements).
    std::string name = "Loop Reversal";
    transform::Target t;
    t.loop = loopId;
    std::vector<ped::Session::GuidanceEntry> offered;
    for (auto& e : session->guidance(loopId, /*safeOnly=*/false)) {
      if (e.advice.applicable && e.advice.safe) offered.push_back(std::move(e));
    }
    if (!offered.empty()) {
      const ped::Session::GuidanceEntry& e = offered[pick(rng, offered.size())];
      name = e.transformation;
      t = e.target;
    }

    const std::string procedure = session->currentProcedure();
    const std::string before = fortran::printProgram(session->program());
    const std::string analysis = workloads::analysisSnapshot(*session);
    ASSERT_TRUE(session->selectProcedure(procedure));

    // A fault-injected apply must fail, roll back, and leave the program
    // and its analysis byte-identical.
    session->injectFaultOnce(pick(rng, 2) == 0 ? ped::Fault::MidApply
                                               : ped::Fault::CorruptState);
    std::string error;
    bool ok = session->applyTransformation(name, t, &error);
    if (!ok) {
      EXPECT_EQ(fortran::printProgram(session->program()), before)
          << "cycle " << i << " (" << w.name << ", " << name
          << "): rollback not clean";
      ASSERT_FALSE(session->failures().empty());
      EXPECT_TRUE(session->failures().back().rolledBack);
      EXPECT_EQ(workloads::analysisSnapshot(*session), analysis)
          << "cycle " << i << " (" << w.name << ", " << name << ")";
      ASSERT_TRUE(session->selectProcedure(procedure));
    }
    EXPECT_TRUE(session->auditNow(true).ok()) << "cycle " << i;

    // Garbage edits are rejected before mutation; valid edits commit and
    // audit clean.
    std::string snapshot = fortran::printProgram(session->program());
    EXPECT_FALSE(session->editStatement(loopId, ")))garbage(((") );
    EXPECT_EQ(fortran::printProgram(session->program()), snapshot);

    auto rows = session->sourcePane();
    if (!rows.empty()) {
      auto stmt = rows[pick(rng, rows.size())].stmt;
      (void)session->insertStatementAfter(stmt, "CONTINUE");
    }
    audit::Report rep = session->auditNow(true);
    EXPECT_TRUE(rep.ok()) << "cycle " << i << " (" << w.name
                          << "): " << rep.str();
  }
}

// ---------------------------------------------------------------------------
// Phase 3: degradation under starvation budgets. Tiny budgets must coarsen
// answers (degraded, conservative), never crash, and be fully reported.
// ---------------------------------------------------------------------------

TEST(FuzzRobustness, StarvationBudgetsDegradeConservatively) {
  Rng rng(424242u);
  const auto& programs = workloads::all();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    DiagnosticEngine diags;
    auto session = ped::Session::load(programs[i].source, diags);
    ASSERT_NE(session, nullptr) << programs[i].name;
    (void)session->loops();  // materialize under the default budget

    dep::AnalysisBudget starved;
    starved.fmMaxConstraints = 1 + pick(rng, 4);
    starved.fmMaxEliminations = static_cast<int>(pick(rng, 2));
    starved.maxSubscriptNodes = 1 + pick(rng, 3);
    starved.maxSymbolicRelations = pick(rng, 2);
    session->setAnalysisBudget(starved);

    (void)session->loops();
    EXPECT_TRUE(session->auditNow(false).ok()) << programs[i].name;
    // Whatever degraded must be visible in the report; and a degraded build
    // never invents a *disproof* (checked structurally: report consistent).
    auto report = session->degradationReport();
    for (const auto& e : report.edges) {
      EXPECT_FALSE(e.procedure.empty());
    }
  }
}

}  // namespace
}  // namespace ps
