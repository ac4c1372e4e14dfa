#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dependence/graph.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "workloads/batch.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::workloads {
namespace {

void expectStatsEqual(const dep::TestStats& a, const dep::TestStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.zivDisproofs, b.zivDisproofs) << what;
  EXPECT_EQ(a.zivExact, b.zivExact) << what;
  EXPECT_EQ(a.strongSiv, b.strongSiv) << what;
  EXPECT_EQ(a.strongSivDisproofs, b.strongSivDisproofs) << what;
  EXPECT_EQ(a.indexArrayDisproofs, b.indexArrayDisproofs) << what;
  EXPECT_EQ(a.fmRuns, b.fmRuns) << what;
  EXPECT_EQ(a.fmDisproofs, b.fmDisproofs) << what;
  EXPECT_EQ(a.assumed, b.assumed) << what;
  EXPECT_EQ(a.fmDegraded, b.fmDegraded) << what;
  EXPECT_EQ(a.degradedAnswers, b.degradedAnswers) << what;
  EXPECT_EQ(a.linearizeDegraded, b.linearizeDegraded) << what;
  EXPECT_EQ(a.symbolicTruncated, b.symbolicTruncated) << what;
  EXPECT_EQ(a.testsRequested, b.testsRequested) << what;
  EXPECT_EQ(a.memoHits, b.memoHits) << what;
  EXPECT_EQ(a.memoMisses, b.memoMisses) << what;
  EXPECT_EQ(a.pairsTested, b.pairsTested) << what;
}

class ParallelDeterminism : public ::testing::TestWithParam<std::string> {};

// The core tentpole contract: analyzeParallel produces the SAME dependence
// graphs (every edge, every id), the same degradation report and the same
// audit verdict as the sequential fullReanalysis, at every thread count.
TEST_P(ParallelDeterminism, GraphsMatchSequentialAtAllThreadCounts) {
  auto reference = loadDeck(GetParam());
  ASSERT_NE(reference, nullptr);
  reference->fullReanalysis();
  const std::string expected = analysisSnapshot(*reference);
  ASSERT_FALSE(expected.empty());

  for (int threads : {1, 2, 4, 8, 16}) {
    auto s = loadDeck(GetParam());
    ASSERT_NE(s, nullptr);
    ped::ParallelReport rep = s->analyzeParallel(threads);
    EXPECT_EQ(rep.threads, threads);
    EXPECT_GT(rep.procedures, 0u);
    EXPECT_EQ(analysisSnapshot(*s), expected)
        << GetParam() << " diverged at " << threads << " threads";
  }
}

// Satellite: TestStats merging is race-free and, on the single-threaded
// reference path, the merged totals are bit-identical to the sequential
// run — every counter, not just the totals that happen to be stable. Both
// the full path and the incremental one (the same deferred edits settled
// by settleEdits() and by analyzeParallel(1)).
TEST_P(ParallelDeterminism, MergedStatsEqualSequentialAtOneThread) {
  auto reference = loadDeck(GetParam());
  ASSERT_NE(reference, nullptr);
  reference->resetAnalysisStats();
  reference->fullReanalysis();
  const dep::TestStats seq = reference->analysisStats();

  auto s = loadDeck(GetParam());
  ASSERT_NE(s, nullptr);
  s->resetAnalysisStats();
  (void)s->analyzeParallel(1);
  expectStatsEqual(s->analysisStats(), seq, GetParam() + " @1 thread");

  // Incremental: `reference` settles on the calling thread, `s` on the
  // 1-thread pool. Each picks its edit from its own (identical) state.
  for (ped::Session* session : {reference.get(), s.get()}) {
    session->setDeferredAnalysis(true);
    session->resetAnalysisStats();
  }
  const unsigned seed =
      0x5E771Eu ^ static_cast<unsigned>(std::hash<std::string>{}(GetParam()));
  Rng seqRng(seed);
  Rng parRng(seed);
  int settled = 0;
  for (int k = 0; k < 4; ++k) {
    EditStep seqStep;
    EditStep parStep;
    if (!nextStep(*reference, seqRng, &seqStep)) break;
    ASSERT_TRUE(nextStep(*s, parRng, &parStep));
    ASSERT_EQ(seqStep.stmt, parStep.stmt);
    ASSERT_EQ(seqStep.text, parStep.text);
    const bool ok = applyStep(*reference, seqStep);
    ASSERT_EQ(ok, applyStep(*s, parStep)) << "edit " << k;
    if (!ok) continue;
    reference->settleEdits();
    const ped::ParallelReport rep = s->analyzeParallel(1);
    EXPECT_TRUE(rep.incremental) << "edit " << k;
    ++settled;
  }
  EXPECT_GT(settled, 0);
  expectStatsEqual(s->analysisStats(), reference->analysisStats(),
                   GetParam() + " incremental @1 thread");
  EXPECT_EQ(analysisSnapshot(*s), analysisSnapshot(*reference));
}

// At higher thread counts the memo hit/miss SPLIT may differ (two workers
// can race to first-compute the same key), but the deterministic counters
// — pair enumeration and the total number of queries issued — must not
// move.
TEST_P(ParallelDeterminism, DeterministicCountersStableUnderThreads) {
  auto reference = loadDeck(GetParam());
  ASSERT_NE(reference, nullptr);
  reference->resetAnalysisStats();
  reference->fullReanalysis();
  const dep::TestStats seq = reference->analysisStats();

  for (int threads : {2, 4}) {
    auto s = loadDeck(GetParam());
    ASSERT_NE(s, nullptr);
    s->resetAnalysisStats();
    (void)s->analyzeParallel(threads);
    const dep::TestStats par = s->analysisStats();
    const std::string what = GetParam() + " @" + std::to_string(threads);
    EXPECT_EQ(par.pairsTested, seq.pairsTested) << what;
    EXPECT_EQ(par.testsRequested, seq.testsRequested) << what;
    EXPECT_EQ(par.memoHits + par.memoMisses, seq.memoHits + seq.memoMisses)
        << what;
  }
}

std::vector<std::string> deckNames() {
  std::vector<std::string> names;
  for (const Workload& w : all()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDecks, ParallelDeterminism,
                         ::testing::ValuesIn(deckNames()));

// The batch driver runs every deck on one shared pool; the per-deck results
// must match what each deck reports when analyzed alone, sequentially.
TEST(ParallelBatch, BatchMatchesPerDeckSequential) {
  std::vector<std::unique_ptr<ped::Session>> sessions;
  BatchResult batch = analyzeAllDecks(4, &sessions);
  ASSERT_EQ(batch.decks.size(), all().size());
  ASSERT_EQ(sessions.size(), batch.decks.size());

  for (std::size_t i = 0; i < batch.decks.size(); ++i) {
    const BatchDeck& deck = batch.decks[i];
    ASSERT_TRUE(deck.ok) << deck.name;
    ASSERT_NE(sessions[i], nullptr);

    auto reference = loadDeck(deck.name);
    ASSERT_NE(reference, nullptr);
    reference->fullReanalysis();
    EXPECT_EQ(analysisSnapshot(*sessions[i]), analysisSnapshot(*reference))
        << deck.name;
  }
}

TEST(ParallelBatch, ReportsPoolActivity) {
  BatchResult batch = analyzeAllDecks(2);
  EXPECT_EQ(batch.threads, 2);
  EXPECT_GT(batch.tasksExecuted, batch.decks.size());
  EXPECT_GT(batch.memoHits() + batch.memoMisses(), 0);
  EXPECT_GT(batch.seconds, 0.0);
}

}  // namespace
}  // namespace ps::workloads
