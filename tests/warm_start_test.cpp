// Warm-start determinism suite for the persistent program database.
//
// For every deck:
//   1. An unmodified reopen must be pure reuse: every summary and graph
//      record hits, ZERO dependence tests run, and the snapshot (every
//      edge field, degradation report, deep audit) is bit-identical to
//      the cold analysis at 1/2/4/8 threads.
//   2. After one fixed-seed edit (the shared edit-storm generator), a warm
//      reopen of the edited source must equal a from-scratch analysis of
//      the same text at every thread count: the edited procedure's key
//      misses and is recomputed through the dirty-set path; everything the
//      edit didn't invalidate restores from disk.
//
// Sessions that parse the same text assign the same statement ids, so the
// snapshots are directly comparable strings.
//
// A third check pins the bytes themselves: every deck's saved store, minus
// its header, hashes to a recorded digest.

#include <gtest/gtest.h>

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fortran/pretty.h"
#include "pdb/pdb.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/io.h"
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

class WarmStart : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmStart, UnmodifiedReopenIsPureReuse) {
  const std::string deck = GetParam();
  const Workload* w = byName(deck);
  ASSERT_NE(w, nullptr);

  auto cold = loadDeck(deck);
  ASSERT_NE(cold, nullptr);
  cold->analyzeParallel(1);
  const std::string want = analysisSnapshot(*cold);
  const std::size_t nProcs = cold->procedureNames().size();

  ScopedFile store(deck + ".unmod.pspdb");
  ASSERT_TRUE(cold->savePdb(store.path()));
  EXPECT_GT(cold->pdbStats().bytesWritten, 0u);

  for (int t : {1, 2, 4, 8, 16}) {
    DiagnosticEngine diags;
    auto warm = ped::Session::openWarm(w->source, store.path(), diags, t);
    ASSERT_NE(warm, nullptr) << deck << " @" << t << " threads";
    EXPECT_FALSE(diags.hasErrors());

    const ped::PdbStats& ps = warm->pdbStats();
    EXPECT_FALSE(ps.storeRejected) << deck << " @" << t;
    EXPECT_EQ(ps.quarantined, 0u) << deck << " @" << t;
    EXPECT_EQ(ps.graphHits, nProcs) << deck << " @" << t;
    EXPECT_EQ(ps.graphMisses, 0u) << deck << " @" << t;
    EXPECT_EQ(ps.summaryMisses, 0u) << deck << " @" << t;
    // The acceptance bar: a warm open of an unmodified deck runs zero
    // dependence tests.
    EXPECT_EQ(ps.testsRunLive, 0) << deck << " @" << t;
    EXPECT_EQ(warm->analysisStats().testsRequested, 0) << deck << " @" << t;

    EXPECT_EQ(want, analysisSnapshot(*warm)) << deck << " @" << t;
  }
}

TEST_P(WarmStart, EditThenReopenMatchesScratchAtEveryThreadCount) {
  const std::string deck = GetParam();

  auto base = loadDeck(deck);
  ASSERT_NE(base, nullptr);
  base->analyzeParallel(1);
  ScopedFile store(deck + ".edit.pspdb");
  ASSERT_TRUE(base->savePdb(store.path()));

  // One deterministic edit from the shared generator, applied to the
  // saving session; the edited TEXT is what later sessions parse.
  Rng rng(0x9DB5u ^ static_cast<unsigned>(std::hash<std::string>{}(deck)));
  EditStep step;
  ASSERT_TRUE(nextStep(*base, rng, &step)) << deck << ": no editable stmt";
  ASSERT_TRUE(applyStep(*base, step)) << deck;
  const std::string editedSrc = fortran::printProgram(base->program());

  // From-scratch reference over the edited text (fresh parse, fresh ids).
  DiagnosticEngine coldDiags;
  auto cold = ped::Session::load(editedSrc, coldDiags);
  ASSERT_NE(cold, nullptr);
  ASSERT_FALSE(coldDiags.hasErrors());
  cold->analyzeParallel(1);
  const std::string want = analysisSnapshot(*cold);

  for (int t : {1, 2, 4, 8, 16}) {
    DiagnosticEngine diags;
    auto warm = ped::Session::openWarm(editedSrc, store.path(), diags, t);
    ASSERT_NE(warm, nullptr) << deck << " @" << t << " threads";
    EXPECT_FALSE(diags.hasErrors());

    const ped::PdbStats& ps = warm->pdbStats();
    EXPECT_FALSE(ps.storeRejected) << deck << " @" << t;
    EXPECT_EQ(ps.quarantined, 0u) << deck << " @" << t;
    // The edited procedure's text changed, so its graph key must miss and
    // recompute; the store must never serve it stale.
    EXPECT_GE(ps.graphMisses, 1u) << deck << " @" << t;

    EXPECT_EQ(want, analysisSnapshot(*warm)) << deck << " @" << t;
  }
}

std::vector<std::string> deckNames() {
  std::vector<std::string> names;
  for (const Workload& w : all()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDecks, WarmStart,
                         ::testing::ValuesIn(deckNames()));

// xxh64 of each deck's store image after analyzeParallel(1) + savePdb,
// header excluded (its build stamp names the compiler). Recorded with the
// save that filed records one at a time on the calling thread: a match
// means the pooled save writes the same records in the same order, so
// stores written before it still open warm.
const std::map<std::string, std::string>& goldenStoreDigests() {
  static const std::map<std::string, std::string> kGolden = {
      {"spec77", "459c154af24c5200"},
      {"neoss", "a4a94edebf11f17c"},
      {"nxsns", "88a0f048c109e6b4"},
      {"dpmin", "c97d4058be83216e"},
      {"slab2d", "46fb41f560e303a4"},
      {"slalom", "f17e1a9d6417962b"},
      {"pueblo3d", "73eec006c2566da8"},
      {"arc3d", "2de9373fd2b54d9d"},
  };
  return kGolden;
}

TEST(StoreBytes, EveryDeckMatchesPinnedDigest) {
  const std::string header = pdb::StoreWriter().bytes();
  std::ostringstream table;
  bool allMatch = true;
  for (const Workload& w : all()) {
    auto cold = loadDeck(w.name);
    ASSERT_NE(cold, nullptr) << w.name;
    cold->analyzeParallel(1);
    ScopedFile store(w.name + ".golden.pspdb");
    ASSERT_TRUE(cold->savePdb(store.path())) << w.name;
    std::string image;
    ASSERT_TRUE(support::readFile(store.path(), &image)) << w.name;
    ASSERT_EQ(image.compare(0, header.size(), header), 0) << w.name;
    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0')
        << support::xxh64(std::string_view(image).substr(header.size()));
    table << "      {\"" << w.name << "\", \"" << hex.str() << "\"},\n";
    auto it = goldenStoreDigests().find(w.name);
    const bool match =
        it != goldenStoreDigests().end() && it->second == hex.str();
    EXPECT_TRUE(match) << w.name << " store bytes drifted";
    allMatch = allMatch && match;
  }
  EXPECT_EQ(goldenStoreDigests().size(), all().size());
  if (!allMatch) std::cout << "computed digests:\n" << table.str();
}

}  // namespace
}  // namespace ps::workloads
