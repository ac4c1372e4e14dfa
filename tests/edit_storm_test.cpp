// Edit-storm determinism suite for the dirty-set-driven parallel
// incremental re-analysis path.
//
// A fixed-seed generator drives the same sequence of statement-level edits
// (rewrite / insert / delete, the fuzz harness's generator idiom) through
// six lockstep sessions per deck:
//
//   - seq:    the sequential inline-incremental reference (every edit
//             settles its dirty set immediately),
//   - par(t): deferred-analysis sessions for t in {1, 2, 4, 8, 16} — each edit
//             accumulates the dirty set, then analyzeParallel(t) schedules
//             exactly that set, answering unchanged tests from the DepMemo
//             under its generation protocol,
//   - full:   a from-scratch fullReanalysis() after every edit.
//
// After EVERY edit the observable analysis state — every field of every
// dependence edge in every procedure, the degradation report, and a deep
// audit — must be bit-identical across all six, and every session's summary
// call graph must equal a fresh CallGraph::build. The deep audit must also
// be clean, both on the deck as loaded and after every edit. This is the
// suite's hard invariant; it also runs under TSan in CI.
//
// The snapshot and the edit generator live in workloads/harness.{h,cpp},
// shared with the persistent-program-database warm-start suites.
//
// Edit count: PS_STORM_EDITS overrides the default (6) per deck.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ped/session.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::workloads {
namespace {

int stormEdits() {
  if (const char* env = std::getenv("PS_STORM_EDITS")) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 6;
}

class EditStorm : public ::testing::TestWithParam<std::string> {};

TEST_P(EditStorm, ParallelIncrementalMatchesSequentialAndScratch) {
  const std::string deck = GetParam();
  auto seq = loadDeck(deck);
  auto full = loadDeck(deck);
  auto fresh = loadDeck(deck);
  ASSERT_NE(seq, nullptr);
  ASSERT_NE(full, nullptr);
  ASSERT_NE(fresh, nullptr);
  fresh->analyzeParallel(1);
  const audit::Report loaded = fresh->auditNow(true);
  EXPECT_TRUE(loaded.ok()) << deck << ": " << loaded.str();

  const std::vector<int> threadCounts = {1, 2, 4, 8, 16};
  std::vector<std::unique_ptr<ped::Session>> par;
  for (int t : threadCounts) {
    (void)t;
    auto s = loadDeck(deck);
    ASSERT_NE(s, nullptr);
    s->setDeferredAnalysis(true);
    par.push_back(std::move(s));
  }

  Rng rng(0xED17u ^ static_cast<unsigned>(std::hash<std::string>{}(deck)));
  const int edits = stormEdits();
  for (int k = 0; k < edits; ++k) {
    EditStep step;
    if (!nextStep(*seq, rng, &step)) break;  // deck ran dry of targets

    const bool okSeq = applyStep(*seq, step);
    const bool okFull = applyStep(*full, step);
    EXPECT_EQ(okSeq, okFull) << deck << " edit " << k;
    // The summary update refreshes the call graph only at the edited
    // procedure; it must still equal a fresh build.
    EXPECT_EQ(callGraphDrift(*seq), "") << deck << " edit " << k;
    EXPECT_EQ(callGraphDrift(*full), "") << deck << " edit " << k;
    full->fullReanalysis();
    const std::string want = analysisSnapshot(*seq);
    EXPECT_EQ(want, analysisSnapshot(*full))
        << deck << " edit " << k << ": incremental diverged from scratch";
    const audit::Report audited = seq->auditNow(true);
    EXPECT_TRUE(audited.ok()) << deck << " edit " << k << ": " << audited.str();

    for (std::size_t i = 0; i < par.size(); ++i) {
      const bool okPar = applyStep(*par[i], step);
      EXPECT_EQ(okSeq, okPar)
          << deck << " edit " << k << " @" << threadCounts[i] << " threads";
      EXPECT_EQ(callGraphDrift(*par[i]), "")
          << deck << " edit " << k << " @" << threadCounts[i] << " threads";
      ped::ParallelReport rep = par[i]->analyzeParallel(threadCounts[i]);
      if (okSeq) {
        EXPECT_TRUE(rep.incremental)
            << deck << " edit " << k << " @" << threadCounts[i]
            << " threads took the full path";
      }
      EXPECT_EQ(want, analysisSnapshot(*par[i]))
          << deck << " edit " << k << " @" << threadCounts[i] << " threads";
    }
  }
}

// A rebuild of every materialized workspace (a new assertion, a new
// budget) also settles a pending deferred edit: afterwards nothing is
// dirty — so savePdb keeps and auditNow checks every graph — and the state
// equals a from-scratch analysis of the same inputs.
TEST_P(EditStorm, RebuildLeavesNothingDirty) {
  const std::string deck = GetParam();
  dep::AnalysisBudget tight;
  tight.fmMaxEliminations = 4;
  const std::vector<std::pair<std::string, std::function<void(ped::Session&)>>>
      rebuilds = {
          {"addAssertion",
           [](ped::Session& s) {
             EXPECT_TRUE(s.addAssertion("ASSERT RANGE (QQA, 1, 10)"));
           }},
          {"setAnalysisBudget",
           [&](ped::Session& s) { s.setAnalysisBudget(tight); }},
      };
  for (const auto& [what, rebuild] : rebuilds) {
    auto s = loadDeck(deck);
    ASSERT_NE(s, nullptr);
    s->analyzeParallel(1);
    s->setDeferredAnalysis(true);
    Rng rng(0xB17Du ^ static_cast<unsigned>(std::hash<std::string>{}(deck)));
    EditStep step;
    ASSERT_TRUE(nextStep(*s, rng, &step)) << deck;
    ASSERT_TRUE(applyStep(*s, step)) << deck;
    ASSERT_FALSE(s->dirtyProcedures().empty()) << deck;

    // The snapshot's degradation counters are cumulative: count only the
    // rebuild here and only the from-scratch analysis below.
    s->resetAnalysisStats();
    rebuild(*s);
    EXPECT_TRUE(s->dirtyProcedures().empty()) << deck << " " << what;

    auto scratch = loadDeck(deck);
    ASSERT_NE(scratch, nullptr);
    ASSERT_TRUE(applyStep(*scratch, step)) << deck;
    rebuild(*scratch);
    scratch->resetAnalysisStats();
    scratch->fullReanalysis();
    EXPECT_EQ(analysisSnapshot(*s), analysisSnapshot(*scratch))
        << deck << " " << what;
  }
}

std::vector<std::string> deckNames() {
  std::vector<std::string> names;
  for (const Workload& w : all()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDecks, EditStorm,
                         ::testing::ValuesIn(deckNames()));

}  // namespace
}  // namespace ps::workloads
