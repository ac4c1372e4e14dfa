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
// its header, hashes to a recorded digest. The rest reopen edited and
// transformed sessions, whose statement ids are not the ids a fresh parse
// of their printed text assigns.

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
#include "gen.h"
#include "pdb/pdb.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/io.h"
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

// Summaries are computed on demand: right after load, with no analysis
// call, showSummary and a saved store see the same final summaries as an
// analyzed session does.
TEST_P(WarmStart, SummariesOnDemandRightAfterLoad) {
  const std::string deck = GetParam();
  const Workload* w = byName(deck);
  ASSERT_NE(w, nullptr);

  auto analyzed = loadDeck(deck);
  ASSERT_NE(analyzed, nullptr);
  analyzed->analyzeParallel(1);
  auto lazy = loadDeck(deck);
  ASSERT_NE(lazy, nullptr);
  for (const std::string& name : lazy->procedureNames()) {
    EXPECT_EQ(lazy->showSummary(name), analyzed->showSummary(name))
        << deck << " " << name;
  }

  // A store saved right after load holds every summary record (and no
  // graph), so its reopen hits on every non-recursive procedure, exactly
  // like a store saved after a full analysis.
  ScopedFile full(deck + ".analyzed.pspdb");
  ASSERT_TRUE(analyzed->savePdb(full.path()));
  auto fresh = loadDeck(deck);
  ASSERT_NE(fresh, nullptr);
  ScopedFile early(deck + ".loaded.pspdb");
  ASSERT_TRUE(fresh->savePdb(early.path()));

  DiagnosticEngine refDiags;
  auto ref = ped::Session::openWarm(w->source, full.path(), refDiags, 1);
  ASSERT_NE(ref, nullptr);
  DiagnosticEngine diags;
  auto warm = ped::Session::openWarm(w->source, early.path(), diags, 1);
  ASSERT_NE(warm, nullptr);
  const ped::PdbStats& ps = warm->pdbStats();
  EXPECT_FALSE(ps.storeRejected) << deck;
  EXPECT_EQ(ps.quarantined, 0u) << deck;
  EXPECT_GT(ps.summaryHits, 0u) << deck;
  EXPECT_EQ(ps.summaryHits, ref->pdbStats().summaryHits) << deck;
  EXPECT_EQ(ps.summaryMisses, 0u) << deck;
  EXPECT_EQ(ps.graphHits, 0u) << deck;
  EXPECT_EQ(analysisSnapshot(*warm), analysisSnapshot(*analyzed)) << deck;
}

/// A store saved by `s` to `file` and reopened warm over its printed text
/// holds what a cold build of that text computes: the same summaries and
/// the same analysis snapshot. False (nothing checked) when the text does
/// not parse.
bool reopensLikeAColdBuild(ped::Session& s, const std::string& file,
                           const std::string& label) {
  ScopedFile store(file);
  EXPECT_TRUE(s.savePdb(store.path())) << label;
  const std::string text = fortran::printProgram(s.program());
  DiagnosticEngine coldDiags;
  auto cold = ped::Session::load(text, coldDiags);
  if (!cold || coldDiags.hasErrors()) return false;
  cold->analyzeParallel(1);
  DiagnosticEngine diags;
  auto warm = ped::Session::openWarm(text, store.path(), diags, 1);
  EXPECT_NE(warm, nullptr) << label;
  if (!warm) return true;
  EXPECT_FALSE(warm->pdbStats().storeRejected) << label;
  for (const std::string& name : cold->procedureNames()) {
    EXPECT_EQ(warm->showSummary(name), cold->showSummary(name))
        << label << " " << name;
  }
  EXPECT_EQ(analysisSnapshot(*warm), analysisSnapshot(*cold)) << label;
  return true;
}

// A transformation updates the summaries the way an edit does, so a store
// saved right after one holds what a cold build of the transformed text
// computes: peeling INITF's loop moves INITF's write section of FLN.
TEST(WarmStartAfterTransformation, PeeledLoopReopensLikeAColdBuild) {
  auto s = loadDeck("spec77");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("INITF"));
  const std::vector<ped::Session::LoopRow> loops = s->loops();
  ASSERT_FALSE(loops.empty());
  transform::Target t;
  t.loop = loops[0].id;
  std::string error;
  ASSERT_TRUE(s->applyTransformation("Loop Peeling", t, &error)) << error;
  EXPECT_TRUE(reopensLikeAColdBuild(*s, "spec77.peeled.pspdb", "peeled"));
}

// The same for every applicable and safe guidance entry on every loop of
// every deck whose transformed text re-parses. Rewritten statements carry
// ids minted after parsing, where the re-parse numbers them in pre-order,
// so nothing stored may depend on id order (neoss NSTATE after Arithmetic
// IF Removal once restored its control edges in another order).
TEST(WarmStartAfterTransformation,
     EveryGuidedApplicationReopensLikeAColdBuild) {
  int checked = 0;
  for (const Workload& w : all()) {
    auto probe = loadDeck(w.name);
    ASSERT_NE(probe, nullptr) << w.name;
    for (const std::string& proc : probe->procedureNames()) {
      ASSERT_TRUE(probe->selectProcedure(proc));
      for (const auto& loop : probe->loops()) {
        for (const auto& entry : probe->guidance(loop.id, false)) {
          if (!entry.advice.applicable || !entry.advice.safe) continue;
          auto s = loadDeck(w.name);
          ASSERT_TRUE(s->selectProcedure(proc));
          std::string error;
          if (!s->applyTransformation(entry.transformation, entry.target,
                                      &error)) {
            continue;
          }
          const std::string label = w.name + "." + proc + "." +
                                    std::to_string(loop.id) + "." +
                                    entry.transformation;
          if (reopensLikeAColdBuild(*s, w.name + ".sweep.pspdb", label)) {
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 300);
}

// ---------------------------------------------------------------------------
// Dependence marks and PARALLEL loops across an edit and a reopen. A
// deletion marks one edge, and the store names every statement by its
// unit and pre-order ordinal, because an edited session's ids are not the
// ids a fresh parse of its printed text assigns.
// ---------------------------------------------------------------------------

/// The source-pane statement of `proc` whose text contains `needle`.
fortran::StmtId findStmt(ped::Session& s, const std::string& proc,
                         const std::string& needle) {
  if (!s.selectProcedure(proc)) return fortran::kInvalidStmt;
  for (const auto& row : s.sourcePane()) {
    if (row.text.find(needle) != std::string::npos) return row.stmt;
  }
  return fortran::kInvalidStmt;
}

/// The current procedure's rejected edges, rendered with their references.
std::vector<std::string> rejectedEdges(ped::Session& s) {
  std::vector<std::string> out;
  for (const dep::Dependence& d : s.workspace().graph->all()) {
    if (d.mark != dep::DepMark::Rejected) continue;
    out.push_back(std::string(dep::depTypeName(d.type)) + " " + d.variable +
                  " " + (d.srcRef ? fortran::printExpr(*d.srcRef) : "") +
                  " -> " + (d.dstRef ? fortran::printExpr(*d.dstRef) : ""));
  }
  return out;
}

// slab2d STEP's two anti edges on WADV run between the same statements at
// the same level; only their reads, WADV(I + 1) and WADV(I - 1), differ.
TEST(StoredMarks, ADeletionMarksOneOfTwoEdgesBetweenTheSameStatements) {
  auto s = loadDeck("slab2d");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("STEP"));
  std::vector<const dep::Dependence*> twins;
  for (const dep::Dependence& d : s->workspace().graph->all()) {
    if (d.type == dep::DepType::Anti && d.variable == "WADV" &&
        d.level == 1) {
      twins.push_back(&d);
    }
  }
  ASSERT_EQ(twins.size(), 2u);
  ASSERT_EQ(twins[0]->srcStmt, twins[1]->srcStmt);
  ASSERT_EQ(twins[0]->dstStmt, twins[1]->dstStmt);
  ASSERT_TRUE(s->markDependence(twins[0]->id, dep::DepMark::Rejected,
                                "one of two"));
  const std::vector<std::string> want = rejectedEdges(*s);
  ASSERT_EQ(want.size(), 1u);
  s->fullReanalysis();
  ASSERT_TRUE(s->selectProcedure("STEP"));
  EXPECT_EQ(rejectedEdges(*s), want);
}

// After an edit, a deletion on the edited statement survives a save, a
// warm open of the printed program and a full re-analysis there. The edge
// is one of the WADV anti edges from the U statement to the WADV
// statement: rewriting the WADV statement gives it an id minted after
// parsing, and a CONTINUE inserted after it moves the U statement's
// pre-order past its id.
TEST(StoredMarks, ADeletionAfterAnEditSurvivesAReopenAndAReanalysis) {
  const std::string target = "WADV(I) = WFLX(I)*0.5";
  for (const bool insert : {false, true}) {
    SCOPED_TRACE(insert ? "CONTINUE inserted" : "statement rewritten");
    auto s = loadDeck("slab2d");
    ASSERT_NE(s, nullptr);
    fortran::StmtId stmt = findStmt(*s, "STEP", target);
    ASSERT_NE(stmt, fortran::kInvalidStmt);
    if (insert) {
      ASSERT_TRUE(s->insertStatementAfter(stmt, "CONTINUE"));
    } else {
      const std::string text =
          fortran::printStmt(*s->workspace().model->stmt(stmt));
      ASSERT_TRUE(s->editStatement(stmt, text));
      stmt = findStmt(*s, "STEP", target);
    }
    ASSERT_TRUE(s->selectProcedure("STEP"));
    std::uint32_t edge = 0;
    for (const dep::Dependence& d : s->workspace().graph->all()) {
      if (d.type == dep::DepType::Anti && d.variable == "WADV" &&
          d.level == 1 && d.dstStmt == stmt) {
        edge = d.id;
        break;
      }
    }
    ASSERT_NE(edge, 0u);
    ASSERT_TRUE(s->markDependence(edge, dep::DepMark::Rejected, "edited"));
    const std::vector<std::string> want = rejectedEdges(*s);
    ASSERT_EQ(want.size(), 1u);

    (void)s->analyzeParallel(1);  // every unit's graph is stored
    ScopedFile store(std::string("slab2d.marked.") +
                     (insert ? "insert" : "rewrite") + ".pspdb");
    ASSERT_TRUE(s->savePdb(store.path()));
    DiagnosticEngine diags;
    auto warm = ped::Session::openWarm(fortran::printProgram(s->program()),
                                       store.path(), diags, 1);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->pdbStats().quarantined, 0u);
    EXPECT_EQ(warm->pdbStats().graphMisses, 0u) << warm->pdbStats().str();
    ASSERT_TRUE(warm->selectProcedure("STEP"));
    EXPECT_EQ(rejectedEdges(*warm), want);
    warm->fullReanalysis();
    ASSERT_TRUE(warm->selectProcedure("STEP"));
    EXPECT_EQ(rejectedEdges(*warm), want);
  }
}

// A CONTINUE at the top of every unit moves every statement's pre-order
// past its id. The Emission record's PARALLEL loops then restore onto the
// loops the saving session marked, in a warm open of the text printed
// without markers (the record's designed use).
TEST(StoredMarks, ParallelLoopsAfterAnInsertSurviveAReopen) {
  for (const Workload& w : all()) {
    auto s = loadDeck(w.name);
    ASSERT_NE(s, nullptr) << w.name;
    for (const std::string& proc : s->procedureNames()) {
      ASSERT_TRUE(s->selectProcedure(proc)) << w.name;
      const fortran::Procedure& unit = s->workspace().proc;
      ASSERT_FALSE(unit.body.empty()) << w.name << " " << proc;
      ASSERT_TRUE(s->insertStatementAfter(unit.body.front()->id, "CONTINUE"))
          << w.name << " " << proc;
    }
    (void)markParallelLoops(*s, /*forceAllLoops=*/false);
    ASSERT_TRUE(s->emitOpenMP().ran) << w.name;
    ScopedFile store(w.name + ".parallel.pspdb");
    ASSERT_TRUE(s->savePdb(store.path())) << w.name;

    fortran::PrettyOptions plain;
    plain.emitParallelMarkers = false;
    DiagnosticEngine diags;
    auto warm = ped::Session::openWarm(
        fortran::printProgram(s->program(), plain), store.path(), diags, 1);
    ASSERT_NE(warm, nullptr) << w.name;
    EXPECT_TRUE(warm->lastEmission().ran) << w.name;
    EXPECT_EQ(fortran::printProgram(warm->program()),
              fortran::printProgram(s->program()))
        << w.name;
  }
}

std::vector<std::string> deckNames() {
  std::vector<std::string> names;
  for (const Workload& w : all()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDecks, WarmStart,
                         ::testing::ValuesIn(deckNames()));

// xxh64 of each deck's store image (the eight workloads, the generated
// decks and one marked deck) after analyzeParallel(1) + savePdb, header
// excluded (its build stamp names the compiler). Recorded with the
// save that filed records one at a time on the calling thread: a match
// means the pooled save writes the same records in the same order, so
// stores written before it still open warm. The marked deck's digest was
// recorded before the store moved out of session.cpp, and pins the Marks
// and Emission records and their keys.
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
      {"generated_seed1", "8e5ada5e5585c1f8"},
      {"generated_seed2", "ce8b8798897a28aa"},
      {"slab2d_marked", "cbf7fd17314daedd"},
  };
  return kGolden;
}

/// The generated decks the store digests also pin: 2,000-line
/// psbench/gen.cpp decks, with call chains and COMMON blocks.
constexpr unsigned kGeneratedSeeds[] = {1, 2};

/// The marked deck's session state: every loop marked the way a workshop
/// user would, one deletion (the first pending carried edge in unit
/// order), one classification override (that edge's variable, private in
/// its carrier loop) and an emitOpenMP pass.
void markForStore(ped::Session& s) {
  (void)markParallelLoops(s, /*forceAllLoops=*/false);
  for (const std::string& proc : s.procedureNames()) {
    ASSERT_TRUE(s.selectProcedure(proc));
    for (const dep::Dependence& d : s.workspace().graph->all()) {
      if (d.mark != dep::DepMark::Pending || !d.loopCarried()) continue;
      const std::uint32_t id = d.id;
      const std::string variable = d.variable;
      ASSERT_TRUE(s.selectLoop(d.carrierLoop));
      ASSERT_TRUE(s.markDependence(id, dep::DepMark::Rejected, "pinned"));
      ASSERT_TRUE(s.classifyVariable(variable, /*asPrivate=*/true, "pinned"));
      ASSERT_TRUE(s.emitOpenMP().ran);
      return;
    }
  }
  FAIL() << "no pending carried edge to delete";
}

TEST(StoreBytes, EveryDeckMatchesPinnedDigest) {
  const std::string header = pdb::StoreWriter().bytes();
  std::vector<std::pair<std::string, std::string>> decks;
  for (const Workload& w : all()) decks.emplace_back(w.name, w.source);
  for (unsigned seed : kGeneratedSeeds) {
    decks.emplace_back("generated_seed" + std::to_string(seed),
                       psbench::generateDeck(seed, 2000).source);
  }
  decks.emplace_back("slab2d_marked", byName("slab2d")->source);
  std::ostringstream table;
  bool allMatch = true;
  for (const auto& [name, source] : decks) {
    DiagnosticEngine diags;
    auto cold = ped::Session::load(source, diags);
    ASSERT_NE(cold, nullptr) << name;
    ASSERT_FALSE(diags.hasErrors()) << name;
    cold->setDeckName(name);
    cold->analyzeParallel(1);
    const bool marked = name == "slab2d_marked";
    if (marked) {
      ASSERT_NO_FATAL_FAILURE(markForStore(*cold)) << name;
    }
    ScopedFile store(name + ".golden.pspdb");
    ASSERT_TRUE(cold->savePdb(store.path())) << name;
    std::string image;
    ASSERT_TRUE(support::readFile(store.path(), &image)) << name;
    ASSERT_EQ(image.compare(0, header.size(), header), 0) << name;
    if (marked) {
      const pdb::StoreReader reader(image);
      EXPECT_TRUE(reader.holds(pdb::RecordType::Marks)) << name;
      EXPECT_TRUE(reader.holds(pdb::RecordType::Emission)) << name;
    }
    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0')
        << support::xxh64(std::string_view(image).substr(header.size()));
    table << "      {\"" << name << "\", \"" << hex.str() << "\"},\n";
    auto it = goldenStoreDigests().find(name);
    const bool match =
        it != goldenStoreDigests().end() && it->second == hex.str();
    EXPECT_TRUE(match) << name << " store bytes drifted";
    allMatch = allMatch && match;
  }
  EXPECT_EQ(goldenStoreDigests().size(), decks.size());
  if (!allMatch) std::cout << "computed digests:\n" << table.str();
}

}  // namespace
}  // namespace ps::workloads
