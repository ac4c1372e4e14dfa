// edit-settle: the paper's interactive loop on an analysis server. The
// server is warm-started from a store saved in set-up over a seeded ~2k-line
// generated deck. Two client threads each drive a ServerSession over that
// deck with their own pregenerated edit stream: submit a burst of edits,
// settle, repeat. A stream replayed to its end is one pass; the session is
// then checked, closed and reopened for the next pass.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.h"
#include "gen.h"
#include "server/server.h"
#include "trace.h"
#include "workloads/harness.h"

namespace psbench {

namespace {

constexpr int kDeckLines = 2000;
constexpr int kClients = 2;
constexpr int kEditsPerBurst = 4;
constexpr int kBurstsPerPass = 32;

server::Edit toServerEdit(const workloads::EditStep& step) {
  server::Edit e;
  switch (step.kind) {
    case workloads::EditStep::Kind::Rewrite:
      e.kind = server::Edit::Kind::Rewrite;
      break;
    case workloads::EditStep::Kind::Insert:
      e.kind = server::Edit::Kind::Insert;
      break;
    case workloads::EditStep::Kind::Delete:
      e.kind = server::Edit::Kind::Delete;
      break;
  }
  e.proc = step.proc;
  e.stmt = step.stmt;
  e.text = step.text;
  return e;
}

workloads::EditStep toStep(const server::Edit& e) {
  workloads::EditStep s;
  switch (e.kind) {
    case server::Edit::Kind::Rewrite:
      s.kind = workloads::EditStep::Kind::Rewrite;
      break;
    case server::Edit::Kind::Insert:
      s.kind = workloads::EditStep::Kind::Insert;
      break;
    case server::Edit::Kind::Delete:
      s.kind = workloads::EditStep::Kind::Delete;
      break;
  }
  s.proc = e.proc;
  s.stmt = e.stmt;
  s.text = e.text;
  return s;
}

/// The stormEdits recipe over a generated deck: steps generated against
/// (and applied to) a private reference session so statement ids stay in
/// lockstep with every session replaying the stream from the same source.
std::vector<server::Edit> editStream(const std::string& source,
                                     unsigned seed) {
  std::vector<server::Edit> edits;
  DiagnosticEngine diags;
  auto ref = ped::Session::load(source, diags);
  if (!ref) return edits;
  ref->setDeferredAnalysis(true);
  workloads::Rng rng(seed);
  workloads::EditStep step;
  for (int i = 0; i < kBurstsPerPass * kEditsPerBurst; ++i) {
    if (!workloads::nextStep(*ref, rng, &step)) break;
    if (!workloads::applyStep(*ref, step)) break;
    edits.push_back(toServerEdit(step));
  }
  return edits;
}

/// A solo session replaying the stream in the same bursts. Baseline is the
/// runSoloBaseline recipe (no analysis before the first edit, each burst
/// settled by analyzeParallel(1)). Sequential analyzes the whole deck
/// first, as an attached server session has, and settles each burst with
/// settleEdits(): no pool, so the TestStats phase timers do not overlap.
struct SoloRun {
  std::string snapshot;
  std::vector<double> editSeconds;
  dep::TestStats stats;
  int settles = 0;
};

enum class Replay { Baseline, Sequential };

SoloRun soloReplay(const std::string& source,
                   const std::vector<server::Edit>& edits, Replay mode) {
  SoloRun out;
  DiagnosticEngine diags;
  auto s = ped::Session::load(source, diags);
  if (!s) return out;
  if (mode == Replay::Sequential) {
    s->fullReanalysis();
    s->resetAnalysisStats();
  }
  s->setDeferredAnalysis(true);
  for (std::size_t next = 0; next < edits.size();) {
    for (int i = 0; i < kEditsPerBurst && next < edits.size(); ++i) {
      Span e("ped.edit");
      (void)workloads::applyStep(*s, toStep(edits[next++]));
      out.editSeconds.push_back(e.stop());
    }
    Span a("ped.settle");
    if (mode == Replay::Sequential) {
      s->settleEdits();
    } else {
      (void)s->analyzeParallel(1);
    }
    ++out.settles;
  }
  out.stats = s->analysisStats();
  out.snapshot = workloads::analysisSnapshot(*s);
  return out;
}

struct Pass {
  bool complete = false;
  std::string snapshot;
  std::vector<double> settleMs;
  std::vector<server::ServerSession::SettleReport> reports;
  dep::TestStats stats;
  double checkSeconds = 0.0;  // the benchmark's own snapshot check
};

/// One pass of a client's stream on the server. With a `window`, the pass
/// stops when it closes and only settles started after the warm-up are
/// recorded; without one it runs to the end and records everything.
Pass runPass(server::AnalysisServer& srv, const std::string& name,
             const std::string& source,
             const std::vector<server::Edit>& edits, const Window* window) {
  Pass p;
  server::ServerSession* ss = srv.openSession(name, source);
  if (!ss) return p;
  std::size_t next = 0;
  while (next < edits.size()) {
    if (window && !window->open()) break;
    const bool measured = !window || window->measuring();
    for (int i = 0; i < kEditsPerBurst && next < edits.size(); ++i) {
      ss->submit(edits[next++]);
    }
    Span sp("server.settle");
    const server::ServerSession::SettleReport rep = ss->settle();
    const double ms = sp.stop() * 1e3;
    if (measured) {
      p.reports.push_back(rep);
      p.settleMs.push_back(ms);
    }
    Tracer& tracer = Tracer::instance();
    tracer.counter("server.dirty_procedures",
                   static_cast<double>(rep.dirtyProcedures));
    tracer.counter("server.edits_coalesced",
                   static_cast<double>(rep.editsCoalesced));
  }
  p.complete = next == edits.size();
  p.stats = ss->session().analysisStats();
  if (p.complete) {
    const bool measured = !window || window->measuring();
    Span ck("check.snapshot");
    p.snapshot = workloads::analysisSnapshot(ss->session());
    p.checkSeconds = measured ? ck.stop() : 0.0;
  }
  srv.closeSession(name);
  return p;
}

struct Setup {
  GeneratedDeck deck;
  std::vector<std::vector<server::Edit>> streams;
  std::vector<std::string> reference;  // final snapshot per client stream
  std::unique_ptr<server::AnalysisServer> server;
};

bool setup(const Options& o, Result& r, const std::string& store,
           int poolWidth, Setup* out) {
  Setup s;
  s.deck = generateDeck(o.seed, kDeckLines);
  DiagnosticEngine diags;
  auto primer = ped::Session::load(s.deck.source, diags);
  if (!primer) {
    r.check(false, "generated deck loads");
    return false;
  }
  (void)primer->analyzeParallel(o.nproc);
  r.check(primer->savePdb(store), "store priming save succeeds");
  primer.reset();

  server::AnalysisServer::Config cfg;
  cfg.storePath = store;
  cfg.analysisThreads = poolWidth;
  s.server = std::make_unique<server::AnalysisServer>(cfg);
  r.check(s.server->warm(), "server warm-started from the primed store");

  for (int c = 0; c < kClients; ++c) {
    const unsigned editSeed = o.seed * 7919u + static_cast<unsigned>(c) + 1u;
    s.streams.push_back(editStream(s.deck.source, editSeed));
    r.check(s.streams.back().size() ==
                static_cast<std::size_t>(kBurstsPerPass * kEditsPerBurst),
            "edit stream generated in full");
    // The bit-identity check: a server pass over the stream against the
    // solo sequential baseline. The pass also warms the shared memo with
    // the stream's tests, so the timed passes all see the same state.
    Pass p = runPass(*s.server, "setup" + std::to_string(c), s.deck.source,
                     s.streams.back(), nullptr);
    const SoloRun solo = soloReplay(s.deck.source, s.streams.back(), Replay::Baseline);
    r.check(p.complete && p.snapshot == solo.snapshot,
            "server pass snapshot equals runSoloBaseline for the stream");
    s.reference.push_back(p.snapshot);
  }
  *out = std::move(s);
  return true;
}

}  // namespace

int runEditSettle(const Options& o, Result& r) {
  const std::string store = o.workDir + "/edit-settle.pspdb";
  const int poolWidth = std::max(1, o.nproc - kClients);
  r.context("clients", kClients);
  r.context("server_pool_width", poolWidth);
  r.context("edits_per_burst", kEditsPerBurst);
  r.context("bursts_per_pass", kBurstsPerPass);

  Tracer& tracer = Tracer::instance();
  const bool traced = tracer.enabled();
  tracer.setEnabled(false);
  Setup su;
  std::vector<double> setupTimes;
  while (moreSetup(setupTimes)) {
    su = Setup();  // the previous server (and its pool) goes first
    Span sp("setup");
    if (!setup(o, r, store, poolWidth, &su)) return 1;
    setupTimes.push_back(sp.stop());
  }
  tracer.setEnabled(traced);
  r.metric("setup_s", median(setupTimes));
  r.context("deck_lines", su.deck.lines);

  support::TaskPool& pool = su.server->pool();
  const std::uint64_t tasks0 = pool.tasksExecuted();
  const std::uint64_t steals0 = pool.steals();
  const auto idle0 = pool.idleStats();

  struct ClientLog {
    std::vector<double> settleMs;
    std::vector<server::ServerSession::SettleReport> reports;
    dep::TestStats stats;
    std::vector<bool> passOk;
    double checkSeconds = 0.0;
    std::vector<double> tracedMs, plainMs;  // span cost, traced run only
  };
  std::vector<ClientLog> logs(kClients);
  const Window window(o.seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      for (int pass = 0; window.open(); ++pass) {
        // The traced run alternates recorded and muted passes.
        const bool muted = traced && pass % 2 == 1;
        Tracer::muteThisThread(muted);
        Pass p = runPass(*su.server, "client" + std::to_string(c),
                         su.deck.source, su.streams[static_cast<std::size_t>(c)],
                         &window);
        log.settleMs.insert(log.settleMs.end(), p.settleMs.begin(),
                            p.settleMs.end());
        std::vector<double>& side = muted ? log.plainMs : log.tracedMs;
        side.insert(side.end(), p.settleMs.begin(), p.settleMs.end());
        log.reports.insert(log.reports.end(), p.reports.begin(),
                           p.reports.end());
        log.stats.accumulate(p.stats);
        if (p.complete) {
          log.passOk.push_back(p.snapshot ==
                               su.reference[static_cast<std::size_t>(c)]);
        }
        log.checkSeconds += p.checkSeconds;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Measured wall time: from the end of the warm-up to the last settle.
  const double wall = static_cast<double>(nowNs() - window.warmEnd) / 1e9;

  std::vector<double> settleMs, tracedMs, plainMs;
  std::vector<server::ServerSession::SettleReport> reports;
  dep::TestStats stats;
  double checkSeconds = 0.0;
  for (ClientLog& log : logs) {
    settleMs.insert(settleMs.end(), log.settleMs.begin(), log.settleMs.end());
    tracedMs.insert(tracedMs.end(), log.tracedMs.begin(), log.tracedMs.end());
    plainMs.insert(plainMs.end(), log.plainMs.begin(), log.plainMs.end());
    reports.insert(reports.end(), log.reports.begin(), log.reports.end());
    stats.accumulate(log.stats);
    for (bool ok : log.passOk) {
      r.check(ok, "client pass snapshot equals the verified reference");
    }
    checkSeconds += log.checkSeconds;
  }
  for (const auto& rep : reports) {
    r.check(rep.editsRejected == 0, "settle applies every edit");
  }
  const double settles = static_cast<double>(settleMs.size());
  const double p50 = median(settleMs);
  const double p90 = quantile(settleMs, 0.9);
  r.metric("op_ms_p50", p50);
  r.metric("ops_per_s", ratio(settles, wall - checkSeconds / kClients));
  r.context("operations", settles);
  if (!traced) return 0;

  r.metric("trace.overhead_ms", median(tracedMs) - median(plainMs));
  r.metric("settle_ms_p50", p50);
  r.metric("settle_ms_p90", p90);
  r.metric("settles_per_s", ratio(settles, wall - checkSeconds / kClients));
  double queued = 0, coalesced = 0, dirty = 0;
  for (const auto& rep : reports) {
    queued += static_cast<double>(rep.editsQueued);
    coalesced += static_cast<double>(rep.editsCoalesced);
    dirty += static_cast<double>(rep.dirtyProcedures);
  }
  r.metric("server.coalesced_ratio", ratio(coalesced, queued));
  r.metric("server.dirty_procs_per_settle", ratio(dirty, settles));
  r.metric("server.live_tests",
           ratio(static_cast<double>(stats.testsRun()), settles));
  r.metric("dependence.tests_requested",
           ratio(static_cast<double>(stats.testsRequested), settles));
  r.metric("dependence.tests_run",
           ratio(static_cast<double>(stats.testsRun()), settles));
  r.metric("dependence.memo_hit_ratio",
           ratio(static_cast<double>(stats.memoHits),
                 static_cast<double>(stats.memoHits + stats.memoMisses)));
  r.metric("dependence.pairs_spliced_ratio",
           ratio(static_cast<double>(stats.pairsSpliced),
                 static_cast<double>(stats.pairsSpliced + stats.pairsTested)));
  r.metric("dependence.degraded",
           static_cast<double>(stats.fmDegraded + stats.degradedAnswers));

  PoolSample ps;
  ps.tasks = static_cast<double>(pool.tasksExecuted() - tasks0);
  ps.steals = static_cast<double>(pool.steals() - steals0);
  const auto idle1 = pool.idleStats();
  for (std::size_t i = 0; i < idle1.size() && i < idle0.size(); ++i) {
    const auto d = idle1[i].since(idle0[i]);
    ps.idleMs += static_cast<double>(d.idleNanos) / 1e6;
    ps.stealAttempts += static_cast<double>(d.stealAttempts);
    ps.stealFails += static_cast<double>(d.stealFails);
  }
  r.metric("support.pool_tasks", ratio(ps.tasks, settles));
  r.metric("support.pool_steals", ratio(ps.steals, settles));
  r.metric("support.pool_idle_ms", ratio(ps.idleMs, settles));
  r.metric("support.pool_steal_fail_ratio",
           ratio(ps.stealFails, ps.stealAttempts));

  // Edit-apply time and 1-thread phase seconds come from a solo replay of
  // client 0's stream, with spans around each public edit call.
  const SoloRun solo = soloReplay(su.deck.source, su.streams[0], Replay::Sequential);
  r.metric("ped.edit_ms", median(solo.editSeconds) * 1e3);
  r.metric("dataflow.s", ratio(solo.stats.dataflowSeconds, solo.settles));
  r.metric("dependence.pair_s", ratio(solo.stats.pairSeconds, solo.settles));
  {
    DiagnosticEngine d;
    auto s = ped::Session::load(su.deck.source, d);
    (void)s->analyzeParallel(1);
    r.metric("dependence.edges", static_cast<double>(edgeCount(*s)));
  }
  std::error_code ec;
  std::filesystem::remove(store, ec);
  return 0;
}

}  // namespace psbench
