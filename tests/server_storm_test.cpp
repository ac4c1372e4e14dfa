// Server-storm determinism suite.
//
// The analysis server multiplexes N concurrent editing sessions over one
// shared store image and one shared warm dependence-test memo. The bar,
// for every deck and at 1/2/4/8 analysis threads: each scripted session's
// final dependence graphs are BYTE-IDENTICAL to a solo cold session that
// replayed the same fixed-seed edit stream — concurrency and sharing may
// change where answers come from and how fast, never what they are.
//
// Plus sharing across fact bases: session A's new assertion changes only
// the keys of A's tests, so session B keeps hitting every entry it used.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "support/diagnostics.h"
#include "workloads/harness.h"
#include "workloads/server_driver.h"
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

class ServerStorm : public ::testing::TestWithParam<std::string> {};

// Concurrent scripted sessions on one cold server, at every thread count,
// all replaying the same stream as the solo baseline.
TEST_P(ServerStorm, ConcurrentSessionsMatchSoloByteForByte) {
  const std::string deck = GetParam();
  StormScript script{deck, /*seed=*/7, /*bursts=*/3, /*editsPerBurst=*/4};
  const std::vector<server::Edit> edits = stormEdits(script);
  ASSERT_FALSE(edits.empty()) << deck;

  const StormResult solo = runSoloBaseline(script, &edits);
  ASSERT_TRUE(solo.ok) << deck;

  for (int t : {1, 2, 4, 8, 16}) {
    server::AnalysisServer srv({/*storePath=*/"", /*analysisThreads=*/t});
    constexpr int kSessions = 3;
    std::vector<StormResult> results(kSessions);
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (int c = 0; c < kSessions; ++c) {
      clients.emplace_back([&, c] {
        results[c] = runStormSession(
            srv, deck + ".client" + std::to_string(c), script, &edits);
      });
    }
    for (auto& th : clients) th.join();
    for (int c = 0; c < kSessions; ++c) {
      ASSERT_TRUE(results[c].ok) << deck << " client " << c << " @" << t;
      EXPECT_EQ(results[c].snapshot, solo.snapshot)
          << deck << " client " << c << " @" << t << " threads";
    }
    EXPECT_EQ(srv.stats().sessionsOpened, static_cast<std::size_t>(kSessions));
    EXPECT_TRUE(srv.stats().ioFailures.empty());
  }
}

// Warm server: sessions attach over a saved store and share the memo.
// The aggregate dependence tests the N sessions run themselves must come
// in well below N solo cold runs — that is the whole point of the server.
TEST_P(ServerStorm, WarmSessionsShareTheStoreAndMemo) {
  const std::string deck = GetParam();
  const Workload* w = byName(deck);
  ASSERT_NE(w, nullptr);

  auto solo = loadDeck(deck);
  ASSERT_NE(solo, nullptr);
  solo->analyzeParallel(1);
  const long long soloCold = solo->analysisStats().testsRun();
  const std::string want = analysisSnapshot(*solo);
  ScopedFile store(deck + ".server.pspdb");
  ASSERT_TRUE(solo->savePdb(store.path()));

  server::AnalysisServer srv({store.path(), /*analysisThreads=*/4});
  ASSERT_TRUE(srv.warm());
  constexpr int kSessions = 4;
  std::vector<std::string> snaps(kSessions);
  std::vector<long long> live(kSessions, -1);
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      server::ServerSession* ss =
          srv.openSession(deck + ".warm" + std::to_string(c), w->source);
      if (!ss) return;
      snaps[c] = analysisSnapshot(ss->session());
      live[c] = ss->session().analysisStats().testsRun();
    });
  }
  for (auto& th : clients) th.join();

  long long aggregate = 0;
  for (int c = 0; c < kSessions; ++c) {
    ASSERT_GE(live[c], 0) << deck << " warm client " << c << " failed to open";
    EXPECT_EQ(snaps[c], want) << deck << " warm client " << c;
    // An unmodified warm attach is pure reuse: zero live tests.
    EXPECT_EQ(live[c], 0) << deck << " warm client " << c;
    aggregate += live[c];
  }
  // Trivially true given the per-session zeros, but this is the acceptance
  // shape: N sessions' aggregate live work far under N solo cold runs.
  if (soloCold > 0) {
    EXPECT_LT(aggregate, kSessions * soloCold);
  }
}

// The first seeded edit stream (over the pristine deck) whose opening edit
// is a Rewrite — a single edit the coalescing and memo-view tests can
// replay standalone. Deterministic: the seed search order is fixed.
server::Edit firstRewriteEdit(const std::string& deck) {
  for (unsigned seed = 1; seed < 64; ++seed) {
    StormScript s{deck, seed, /*bursts=*/1, /*editsPerBurst=*/1};
    std::vector<server::Edit> edits = stormEdits(s);
    if (!edits.empty() && edits[0].kind == server::Edit::Kind::Rewrite) {
      return edits[0];
    }
  }
  return {};
}

// A's assertion changes the keys of A's tests only: B keeps hitting every
// entry in the shared memo, and A re-derives against its new fact base.
TEST(ServerMemo, NeighborAssertionLeavesMyHitsIntact) {
  const Workload* w = byName("slab2d");  // assertion-free deck: opens share
  ASSERT_NE(w, nullptr);
  server::AnalysisServer srv({"", /*analysisThreads=*/1});
  server::ServerSession* a = srv.openSession("a", w->source);
  ASSERT_NE(a, nullptr);
  const long long aLive = a->session().analysisStats().testsRun();
  EXPECT_GT(aLive, 0);  // A analyzed the deck cold, for everyone

  server::ServerSession* b = srv.openSession("b", w->source);
  ASSERT_NE(b, nullptr);
  // B's cold open settled entirely out of the memo A just warmed.
  EXPECT_EQ(b->session().analysisStats().testsRun(), 0);

  // Teach B a toggle: rewrite one statement, then revert it. The revert is
  // pure reuse (the original-text entries date from the opens).
  const server::Edit fwd = firstRewriteEdit("slab2d");
  ASSERT_NE(fwd.stmt, fortran::kInvalidStmt);
  ASSERT_TRUE(b->session().selectProcedure(fwd.proc));
  std::string orig;
  for (const auto& row : b->session().sourcePane()) {
    if (row.stmt == fwd.stmt) orig = row.text;
  }
  ASSERT_FALSE(orig.empty());
  auto toggle = [&](const std::string& text) {
    server::Edit e = fwd;
    e.text = text;
    b->submit(e);
    b->settle();
    return b->session().analysisStats().testsRun();
  };
  const long long afterFirstToggle = toggle(fwd.text);
  const long long afterRevert = toggle(orig);
  EXPECT_EQ(afterRevert, afterFirstToggle)
      << "reverting to already-memoized text should run zero live tests";

  // A adds an assertion: its facts, and so its keys, change.
  ASSERT_TRUE(a->session().addAssertion("ASSERT RANGE (QQA, 1, 10)"));

  // B repeats the identical toggle: both legs were memoized before A's
  // assertion, and B's keys did not move — zero live tests.
  const long long afterSecondToggle = toggle(fwd.text);
  EXPECT_EQ(afterSecondToggle, afterRevert)
      << "a neighbor's assertion cost B its memo hits";
  EXPECT_EQ(toggle(orig), afterSecondToggle);

  // A session opened NOW still finds the whole warm table.
  server::ServerSession* c = srv.openSession("c", w->source);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->session().analysisStats().testsRun(), 0);

  // And A re-derives against its new fact base and agrees with a solo
  // session carrying the same assertion.
  DiagnosticEngine diags;
  auto soloA = ped::Session::load(w->source, diags);
  ASSERT_NE(soloA, nullptr);
  ASSERT_TRUE(soloA->addAssertion("ASSERT RANGE (QQA, 1, 10)"));
  soloA->analyzeParallel(1);
  EXPECT_EQ(analysisSnapshot(a->session()), analysisSnapshot(*soloA));
}

// Sessions over DIFFERENT decks coexist on one server: the memo keys are
// content-complete, so cross-deck entries never collide, and concurrent
// settles on the shared pool keep every deck's answers solo-identical.
TEST(ServerMixedDecks, ConcurrentDifferentDecksStaySoloIdentical) {
  const std::vector<std::string> decks = {"slab2d", "dpmin", "neoss",
                                          "spec77"};
  std::vector<StormScript> scripts;
  std::vector<std::vector<server::Edit>> streams;
  std::vector<std::string> want;
  scripts.reserve(decks.size());
  for (const auto& d : decks) {
    scripts.push_back({d, /*seed=*/11, /*bursts=*/2, /*editsPerBurst=*/3});
    streams.push_back(stormEdits(scripts.back()));
    StormResult solo = runSoloBaseline(scripts.back(), &streams.back());
    ASSERT_TRUE(solo.ok) << d;
    want.push_back(solo.snapshot);
  }

  server::AnalysisServer srv({"", /*analysisThreads=*/4});
  std::vector<StormResult> results(decks.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < decks.size(); ++i) {
    clients.emplace_back([&, i] {
      results[i] = runStormSession(srv, "mix." + decks[i], scripts[i],
                                   &streams[i]);
    });
  }
  for (auto& th : clients) th.join();
  for (std::size_t i = 0; i < decks.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << decks[i];
    EXPECT_EQ(results[i].snapshot, want[i]) << decks[i];
  }
}

// Edit coalescing IS the batch semantics: a rewrite replaces its statement
// under a fresh id, so of N queued edits naming one snapshot id only one
// can apply — the queue reads last-wins. The settled state must be
// bit-identical to a solo session applying the surviving batch, and the
// source text must match a keystroke-by-keystroke replay that re-reads
// the statement's current id after every rewrite (as a live editor does).
TEST(ServerCoalescing, RedundantRewritesCollapseWithoutChangingAnswers) {
  const server::Edit rewrite = firstRewriteEdit("slab2d");
  ASSERT_NE(rewrite.stmt, fortran::kInvalidStmt);
  const Workload* w = byName("slab2d");

  // The procedure's current text, for the keystroke-replay comparison
  // (statement ids diverge with the number of rewrites minted, text does
  // not).
  auto textOf = [](ped::Session& s, const std::string& proc) {
    EXPECT_TRUE(s.selectProcedure(proc));
    std::string out;
    for (const auto& row : s.sourcePane()) out += row.text + "\n";
    return out;
  };
  // The pane row index of a statement, and the id at a row index — how an
  // interactive client re-finds "the same line" after a rewrite.
  auto rowOf = [](ped::Session& s, const std::string& proc,
                  fortran::StmtId id) -> int {
    EXPECT_TRUE(s.selectProcedure(proc));
    const auto rows = s.sourcePane();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].stmt == id) return static_cast<int>(i);
    }
    return -1;
  };
  auto idAt = [](ped::Session& s, const std::string& proc, int row) {
    EXPECT_TRUE(s.selectProcedure(proc));
    return s.sourcePane()[static_cast<std::size_t>(row)].stmt;
  };

  // Three keystroke-level rewrites of one statement; only the last
  // survives coalescing.
  std::vector<server::Edit> burst(3, rewrite);
  burst[0].text += " + 1";
  burst[1].text += " + 2";

  server::AnalysisServer srv({"", /*analysisThreads=*/1});
  server::ServerSession* ss = srv.openSession("co", w->source);
  ASSERT_NE(ss, nullptr);
  const int row = rowOf(ss->session(), rewrite.proc, rewrite.stmt);
  ASSERT_GE(row, 0);
  for (const auto& e : burst) ss->submit(e);
  server::ServerSession::SettleReport r = ss->settle();
  EXPECT_EQ(r.editsQueued, 3u);
  EXPECT_EQ(r.editsCoalesced, 2u);
  EXPECT_EQ(r.editsApplied, 1u);
  EXPECT_EQ(r.editsRejected, 0u);

  // Bit-identity: a solo session applying the surviving batch (one
  // rewrite) mints the same ids and lands on the same graphs.
  auto solo = loadDeck("slab2d");
  ASSERT_NE(solo, nullptr);
  ASSERT_TRUE(solo->selectProcedure(rewrite.proc));
  ASSERT_TRUE(solo->editStatement(rewrite.stmt, burst[2].text));
  solo->analyzeParallel(1);
  EXPECT_EQ(analysisSnapshot(ss->session()), analysisSnapshot(*solo));

  // Text identity: a keystroke replay that chases the fresh id after each
  // rewrite ends on the same source.
  auto keys = loadDeck("slab2d");
  ASSERT_NE(keys, nullptr);
  for (const auto& e : burst) {
    ASSERT_TRUE(keys->editStatement(idAt(*keys, rewrite.proc, row), e.text));
  }
  EXPECT_EQ(textOf(*keys, rewrite.proc), textOf(ss->session(), rewrite.proc));

  // Rewrite-then-delete, queued against the CURRENT snapshot: the rewrite
  // is dead work, the delete wins.
  const fortran::StmtId cur = idAt(ss->session(), rewrite.proc, row);
  std::vector<server::Edit> burst2(2, rewrite);
  burst2[0].stmt = cur;
  burst2[1] = {server::Edit::Kind::Delete, rewrite.proc, cur, ""};
  for (const auto& e : burst2) ss->submit(e);
  r = ss->settle();
  EXPECT_EQ(r.editsCoalesced, 1u);
  EXPECT_EQ(r.editsApplied, 1u);
  EXPECT_EQ(r.editsRejected, 0u);
  ASSERT_TRUE(solo->selectProcedure(rewrite.proc));
  ASSERT_TRUE(solo->deleteStatement(idAt(*solo, rewrite.proc, row)));
  solo->analyzeParallel(1);
  EXPECT_EQ(analysisSnapshot(ss->session()), analysisSnapshot(*solo));
}

std::vector<std::string> allDeckNames() {
  std::vector<std::string> names;
  for (const auto& w : all()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllDecks, ServerStorm,
                         ::testing::ValuesIn(allDeckNames()));

}  // namespace
}  // namespace ps::workloads
