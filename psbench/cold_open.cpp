// cold-open: whole-program analysis of one seeded ~10k-line generated deck.
// One operation is a cold open (Session::load + analyzeParallel(nproc)
// with no program database), a savePdb, and a warm reopen of the
// unchanged deck in a fresh session. The interpreter, validation and
// emission are never touched.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "common.h"
#include "dependence/graph.h"
#include "fortran/parser.h"
#include "gen.h"
#include "interproc/summaries.h"
#include "ir/model.h"
#include "trace.h"
#include "workloads/harness.h"

namespace psbench {

namespace {

constexpr int kDeckLines = 10000;
constexpr int kProbeLines = 1000;

struct Setup {
  GeneratedDeck deck;
  std::string reference;  // analysisSnapshot of the cold nproc session
};

/// Planted ground truth against a cold session: no loop planted as
/// carrying a dependence may be reported parallelizable. Missed
/// parallelism is only counted.
bool checkTruth(ped::Session& s, const std::vector<PlantedLoop>& truth,
                int* missed) {
  bool ok = true;
  *missed = 0;
  std::string proc;
  std::vector<ped::Session::LoopRow> rows;
  for (const PlantedLoop& p : truth) {
    if (p.proc != proc) {
      proc = p.proc;
      rows = s.selectProcedure(proc) ? s.loops()
                                     : std::vector<ped::Session::LoopRow>{};
    }
    if (p.ordinal >= static_cast<int>(rows.size())) {
      std::fprintf(stderr, "truth: %s loop %d missing\n", p.proc.c_str(),
                   p.ordinal);
      ok = false;
      continue;
    }
    const bool par = rows[static_cast<std::size_t>(p.ordinal)].parallelizable;
    if (p.carried && par) {
      std::fprintf(stderr,
                   "truth: %s loop %d (%s) carries a dependence but is "
                   "reported parallelizable\n",
                   p.proc.c_str(), p.ordinal, p.pattern.c_str());
      ok = false;
    } else if (!p.carried && !par) {
      ++*missed;
    }
  }
  return ok;
}

bool setup(const Options& o, Result& r, Setup* out) {
  Setup s;
  s.deck = generateDeck(o.seed, kDeckLines);
  {
    DiagnosticEngine diags;
    auto prog = fortran::parseSource(s.deck.source, diags);
    r.check(prog && diags.all().empty(),
            "generated deck parses with zero diagnostics");
  }
  DiagnosticEngine d1;
  auto one = ped::Session::load(s.deck.source, d1);
  if (!one) {
    r.check(false, "generated deck loads");
    return false;
  }
  (void)one->analyzeParallel(1);
  r.check(one->auditNow(true).ok(), "generated deck passes auditNow(true)");
  const std::string snapOne = workloads::analysisSnapshot(*one);
  one.reset();

  DiagnosticEngine dn;
  auto many = ped::Session::load(s.deck.source, dn);
  if (!many) return false;
  (void)many->analyzeParallel(o.nproc);
  s.reference = workloads::analysisSnapshot(*many);
  r.check(s.reference == snapOne,
          "nproc-thread snapshot equals the 1-thread snapshot");
  *out = std::move(s);
  return true;
}

/// Each layer once over `source`, from the benchmark's side of each public
/// API: parse, summaries, per-procedure graph builds, then the session
/// pipeline (cold analysis, save, warm open).
struct LayerTimes {
  double parse = 0, summary = 0, build = 0, analyze = 0, save = 0, warm = 0;
};

LayerTimes probeLayers(const std::string& source, const std::string& store,
                       int nproc) {
  LayerTimes t;
  DiagnosticEngine diags;
  Span ps("fortran.parse");
  auto prog = fortran::parseSource(source, diags);
  t.parse = ps.stop();
  Span ss("interproc.summary");
  interproc::SummaryBuilder summaries(*prog);
  t.summary = ss.stop();
  for (const auto& unit : prog->units) {
    Span bs("dependence.build");
    ir::ProcedureModel model(*unit);
    interproc::InterproceduralOracle oracle(summaries, *unit);
    dep::AnalysisContext ctx;
    ctx.oracle = &oracle;
    ctx.inheritedConstants = summaries.inheritedConstantsFor(unit->name);
    ctx.inheritedRelations = summaries.inheritedRelationsFor(unit->name);
    (void)dep::DependenceGraph::build(model, ctx);
    t.build += bs.stop();
  }
  Span as("ped.analyze_parallel");
  DiagnosticEngine d2;
  auto s = ped::Session::load(source, d2);
  (void)s->analyzeParallel(nproc);
  t.analyze = as.stop();
  Span sv("pdb.save");
  (void)s->savePdb(store);
  t.save = sv.stop();
  Span wv("pdb.open_warm");
  DiagnosticEngine d3;
  auto w = ped::Session::openWarm(source, store, d3, nproc);
  t.warm = wv.stop();
  return t;
}

LayerTimes medianLayers(const std::vector<LayerTimes>& v) {
  auto pick = [&](double LayerTimes::*f) {
    std::vector<double> xs;
    for (const LayerTimes& t : v) xs.push_back(t.*f);
    return median(xs);
  };
  LayerTimes m;
  m.parse = pick(&LayerTimes::parse);
  m.summary = pick(&LayerTimes::summary);
  m.build = pick(&LayerTimes::build);
  m.analyze = pick(&LayerTimes::analyze);
  m.save = pick(&LayerTimes::save);
  m.warm = pick(&LayerTimes::warm);
  return m;
}

}  // namespace

int runColdOpen(const Options& o, Result& r) {
  const std::string store = o.workDir + "/cold-open.pspdb";
  Tracer& tracer = Tracer::instance();

  // Set-up runs untraced: it is measured, not broken into layers.
  const bool traced = tracer.enabled();
  tracer.setEnabled(false);
  Setup su;
  std::vector<double> setupTimes;
  while (moreSetup(setupTimes)) {
    Span sp("setup");
    if (!setup(o, r, &su)) return 1;
    setupTimes.push_back(sp.stop());
  }
  tracer.setEnabled(traced);
  r.metric("setup_s", median(setupTimes));
  r.context("deck_lines", su.deck.lines);
  r.context("deck_procedures", su.deck.procedures);

  std::vector<double> opMs, coldS, saveS, warmS, opsTracedMs, opsPlainMs;
  std::vector<double> analyzeS, bytesWritten, bytesRead, hitRatio;
  double quarantined = 0, warmLive = 0;
  PoolSample pool;
  dep::TestStats stats;
  long long edges = 0;
  int missed = 0;
  double busy = 0.0;
  const Window window(o.seconds);
  int op = 0;
  while (window.open()) {
    const bool measured = window.measuring();
    // The traced run alternates spans on and off to measure their cost.
    const bool spansOn = traced && (op % 2 == 0);
    Tracer::muteThisThread(!spansOn);
    Span opSpan("op.cold_open");
    DiagnosticEngine dc;
    Span cold("ped.open_cold");
    auto s = ped::Session::load(su.deck.source, dc);
    Span ap("ped.analyze_parallel");
    const ped::ParallelReport rep = s ? s->analyzeParallel(o.nproc)
                                      : ped::ParallelReport{};
    analyzeS.push_back(ap.stop());
    coldS.push_back(cold.stop());
    Span sv("pdb.save");
    const bool saved = s && s->savePdb(store);
    saveS.push_back(sv.stop());
    Span wv("pdb.open_warm");
    DiagnosticEngine dw;
    auto w = ped::Session::openWarm(su.deck.source, store, dw, o.nproc);
    warmS.push_back(wv.stop());
    const double ms = opSpan.stop() * 1e3;
    Tracer::muteThisThread(false);
    if (measured) {
      opMs.push_back(ms);
      (spansOn ? opsTracedMs : opsPlainMs).push_back(ms);
      busy += ms / 1e3;
      ++op;
    } else {
      analyzeS.pop_back();
      coldS.pop_back();
      saveS.pop_back();
      warmS.pop_back();
    }

    // Output checks (outside the operation's time).
    r.check(s && saved && w, "cold open, save and warm reopen succeed");
    if (!s || !w) continue;
    const ped::PdbStats& ws = w->pdbStats();
    r.check(!ws.storeRejected && ws.quarantined == 0 && ws.testsRunLive == 0,
            "clean store: zero quarantines and zero warm live tests");
    r.check(workloads::analysisSnapshot(*w) == su.reference,
            "warm snapshot equals the cold snapshot byte for byte");
    r.check(checkTruth(*s, su.deck.truth, &missed),
            "no planted carried loop reported parallelizable");

    if (traced && measured) {
      const PoolSample p = poolSample(rep);
      pool.tasks += p.tasks;
      pool.steals += p.steals;
      pool.idleMs += p.idleMs;
      pool.stealAttempts += p.stealAttempts;
      pool.stealFails += p.stealFails;
      stats.accumulate(s->analysisStats());
      edges = edgeCount(*s);
      bytesWritten.push_back(static_cast<double>(s->pdbStats().bytesWritten));
      bytesRead.push_back(static_cast<double>(ws.bytesRead));
      const double hits = static_cast<double>(ws.summaryHits + ws.graphHits);
      hitRatio.push_back(ratio(
          hits, hits + static_cast<double>(ws.summaryMisses + ws.graphMisses)));
      quarantined += static_cast<double>(ws.quarantined);
      warmLive += static_cast<double>(ws.testsRunLive);
      tracer.counter("support.pool_idle_ms", p.idleMs);
      tracer.counter("dependence.tests_run",
                     static_cast<double>(s->analysisStats().testsRun()));
      tracer.counter("pdb.bytes_read", static_cast<double>(ws.bytesRead));
    }
  }

  r.metric("op_ms_p50", median(opMs));
  r.metric("ops_per_s", ratio(static_cast<double>(op), busy));
  r.context("operations", static_cast<double>(op));
  if (!traced) return 0;

  // ---- Per-layer numbers (traced run only).
  const double ops = std::max(1, op);
  r.metric("open_cold_s", median(coldS));
  r.metric("save_s", median(saveS));
  r.metric("open_warm_s", median(warmS));
  r.metric("ped.analyze_parallel_s", median(analyzeS));
  r.metric("pdb.save_s", median(saveS));
  r.metric("pdb.bytes_written", median(bytesWritten));
  r.metric("pdb.bytes_read", median(bytesRead));
  r.metric("pdb.hit_ratio", median(hitRatio));
  r.metric("pdb.quarantined", quarantined);
  r.metric("pdb.warm_live_tests", warmLive);
  r.metric("dependence.tests_requested",
           static_cast<double>(stats.testsRequested) / ops);
  r.metric("dependence.tests_run", static_cast<double>(stats.testsRun()) / ops);
  r.metric("dependence.memo_hit_ratio",
           ratio(static_cast<double>(stats.memoHits),
                 static_cast<double>(stats.memoHits + stats.memoMisses)));
  r.metric("dependence.edges", static_cast<double>(edges));
  r.metric("dependence.degraded",
           static_cast<double>(stats.fmDegraded + stats.degradedAnswers));
  r.metric("support.pool_tasks", pool.tasks / ops);
  r.metric("support.pool_steals", pool.steals / ops);
  r.metric("support.pool_idle_ms", pool.idleMs / ops);
  r.metric("support.pool_steal_fail_ratio",
           ratio(pool.stealFails, pool.stealAttempts));
  r.metric("truth.planted_loops", static_cast<double>(su.deck.truth.size()));
  r.metric("truth.missed_parallel", missed);
  r.metric("trace.overhead_ms", median(opsTracedMs) - median(opsPlainMs));

  // TestStats phase seconds only from a pass with no pool. Under a pool a
  // phase timer keeps running while its thread helps other tasks, and that
  // includes the 1-thread pool, whose wait() drains the shared FIFO: the
  // sequential fullReanalysis() path is the only one whose timers nest.
  std::vector<double> dataflow, pairs;
  for (int i = 0; i < 3; ++i) {
    Span sp("ped.full_reanalysis");
    DiagnosticEngine d;
    auto s = ped::Session::load(su.deck.source, d);
    s->fullReanalysis();
    dataflow.push_back(s->analysisStats().dataflowSeconds);
    pairs.push_back(s->analysisStats().pairSeconds);
  }
  r.metric("dataflow.s", median(dataflow));
  r.metric("dependence.pair_s", median(pairs));

  // Layer probes and the scaling probe: the same layers at ~1k and ~10k
  // generated lines.
  const GeneratedDeck small = generateDeck(o.seed, kProbeLines);
  std::vector<LayerTimes> big, little;
  for (int i = 0; i < 3; ++i) {
    big.push_back(probeLayers(su.deck.source, store, o.nproc));
    little.push_back(probeLayers(small.source, store, o.nproc));
  }
  const LayerTimes b = medianLayers(big);
  const LayerTimes l = medianLayers(little);
  r.metric("fortran.parse_s", b.parse);
  r.metric("fortran.lines_per_s", ratio(su.deck.lines, b.parse));
  r.metric("interproc.summary_s", b.summary);
  r.metric("dependence.build_s", b.build);

  const double scale = std::log(static_cast<double>(su.deck.lines) /
                                static_cast<double>(small.lines));
  auto exponent = [&](double big1, double small1) {
    return (big1 > 0 && small1 > 0) ? std::log(big1 / small1) / scale : 0.0;
  };
  struct Layer {
    const char* metric;
    const char* name;
    double big, small;
  };
  const Layer layers[] = {
      {"scaling.parse_exp", "fortran.parse", b.parse, l.parse},
      {"scaling.summary_exp", "interproc.summary", b.summary, l.summary},
      {"scaling.build_exp", "dependence.build", b.build, l.build},
      {"scaling.analyze_exp", "ped.analyze_parallel", b.analyze, l.analyze},
      {"scaling.save_exp", "pdb.save", b.save, l.save},
      {"scaling.open_warm_exp", "pdb.open_warm", b.warm, l.warm},
  };
  int flagged = 0;
  std::string flaggedNames;
  for (const Layer& ly : layers) {
    const double e = exponent(ly.big, ly.small);
    r.metric(ly.metric, e);
    if (e > 1.2) {
      ++flagged;
      flaggedNames += std::string(flaggedNames.empty() ? "" : ",") + ly.name;
    }
  }
  r.metric("scaling.flagged", flagged);
  r.context("scaling_flagged_layers", flaggedNames);

  // Dominant layer of the 10k cold pipeline, by self time: parse,
  // summaries, dataflow, pair testing, the rest of the graph build, PDB
  // write and warm open.
  const double df = median(dataflow), pr = median(pairs);
  const struct {
    const char* name;
    double seconds;
  } shares[] = {
      {"fortran.parse", b.parse},
      {"interproc.summary", b.summary},
      {"dataflow", df},
      {"dependence.pairs", pr},
      {"dependence.build.other", std::max(0.0, b.build - df - pr)},
      {"pdb.save", b.save},
      {"pdb.open_warm", b.warm},
  };
  double total = 0.0, best = -1.0;
  std::string dominant;
  for (const auto& sh : shares) {
    total += sh.seconds;
    if (sh.seconds > best) {
      best = sh.seconds;
      dominant = sh.name;
    }
  }
  r.metric("scaling.dominant_share", ratio(best, total));
  r.context("dominant_layer_10k", dominant);
  r.context("probe_deck_lines", small.lines);
  std::error_code ec;
  std::filesystem::remove(store, ec);
  return 0;
}

}  // namespace psbench
