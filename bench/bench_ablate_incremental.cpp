// Ablation A2: incremental update vs whole-program reanalysis. PED
// "provides ... incremental updates of dependence information to reflect
// the modified program"; we run an editing session (one variable
// classification per loop, across every procedure of all 8 workloads)
// under each policy and compare how many dependence tests each one runs.
//
// The incremental policy is one mechanism: an edit re-analyzes only the
// procedures in its dirty set, and the session-wide dependence-test memo
// answers every query whose inputs are unchanged (structurally identical
// queries are answered from cache). The A2 baseline disables the memo and
// performs a full reanalysis of summaries + every procedure after each
// edit.
//
// The report ends in four count-based self-checks: both policies' graphs
// agree, incremental runs at least 5x fewer dependence tests, and on the
// largest deck par-inc(4) runs fewer tests than par-full(4) and exactly as
// many as seq-inc. The binary exits 1 when any of them fails; a timing
// never fails it.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cctype>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.h"
#include "support/taskpool.h"

namespace {

struct SessionResult {
  ps::dep::TestStats stats;
  double seconds = 0;
  int edits = 0;
  /// Per-procedure edge counts + per-loop parallel verdicts, to confirm
  /// the two policies produce identical analysis results.
  std::string digest;
};

/// One editing session: for every loop of every procedure, classify one
/// private scalar. `incremental` keeps the dirty set + memo on; otherwise
/// each edit is followed by a full reanalysis with the memo disabled.
SessionResult editSession(bool incremental) {
  SessionResult r;
  for (const auto& w : ps::workloads::all()) {
    auto s = ps::bench::loadWorkload(w.name);
    s->setIncrementalUpdates(incremental);
    s->resetAnalysisStats();  // count only edit-driven analysis
    auto start = std::chrono::steady_clock::now();
    for (const auto& name : s->procedureNames()) {
      s->selectProcedure(name);
      for (const auto& loop : s->loops()) {
        s->selectLoop(loop.id);
        for (const auto& v : s->variablePane()) {
          if (v.kind == "private" && v.dim == 0) {
            s->classifyVariable(v.name, true, "edit");
            if (!incremental) s->fullReanalysis();
            ++r.edits;
            break;
          }
        }
      }
    }
    r.seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    r.stats.accumulate(s->analysisStats());
    for (const auto& name : s->procedureNames()) {
      s->selectProcedure(name);
      r.digest += name + ":" +
                  std::to_string(s->workspace().graph->all().size());
      for (const auto& loop : s->loops()) {
        r.digest += loop.parallelizable ? "P" : ".";
      }
      r.digest += ";";
    }
  }
  return r;
}

void BM_IncrementalEdits(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(editSession(true));
  }
}
BENCHMARK(BM_IncrementalEdits)->Unit(benchmark::kMillisecond);

void BM_FullReanalysisEdits(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(editSession(false));
  }
}
BENCHMARK(BM_FullReanalysisEdits)->Unit(benchmark::kMillisecond);

void row(const char* label, long long inc, long long full) {
  std::printf("%-28s %14lld %14lld\n", label, inc, full);
}

// ---------------------------------------------------------------------------
// Parallel column: dirty-set-driven parallel incremental re-analysis.
//
// For every deck: warm the session, then time a burst of single-statement
// edits under each policy. seq-inc settles the dirty set inline on the
// session thread; par-inc(t) defers, then analyzeOn schedules ONLY the
// dirty procedures on a t-thread pool (the warm memo answers unchanged
// tests); par-full(t) defers with incremental updates off, so the same
// pool rebuilds summaries and every procedure after each edit. Pools live
// outside the timed region.
// ---------------------------------------------------------------------------

/// The edit probe: the first unlabeled assignment statement in the deck,
/// rewritten by wrapping its RHS (same subscripts, fresh statement id, so
/// its procedure goes dirty and the memo answers the unchanged tests).
struct EditProbe {
  std::string proc;
  ps::fortran::StmtId stmt = ps::fortran::kInvalidStmt;
  int ordinal = 0;   // pane position; stable across in-place rewrites
  std::string even;  // rewritten text for even-numbered edits
  std::string odd;   // original text, restored on odd-numbered edits
};

bool findProbe(ps::ped::Session& s, EditProbe* probe) {
  for (const auto& name : s.procedureNames()) {
    if (!s.selectProcedure(name)) continue;
    for (const auto& r : s.sourcePane()) {
      if (r.loopStart) continue;
      if (!r.text.empty() && std::isdigit(static_cast<unsigned char>(r.text[0])))
        continue;
      std::size_t eq = r.text.find(" = ");
      if (eq == std::string::npos || r.text.rfind("IF", 0) == 0 ||
          r.text.rfind("CALL", 0) == 0) {
        continue;
      }
      probe->proc = name;
      probe->stmt = r.stmt;
      probe->ordinal = r.ordinal;
      probe->odd = r.text;
      probe->even = r.text.substr(0, eq) + " = (" + r.text.substr(eq + 3) + ")*2";
      return true;
    }
  }
  return false;
}

constexpr int kEditBurst = 8;

struct ParCell {
  double ms = 0;
  long long testsRun = 0;
};

/// Rewrites the probe statement kEditBurst times (alternating text so every
/// edit is a real change), settling per `mode`, and returns total wall time
/// and dependence tests actually run.
enum class ParMode { SeqInc, ParInc, ParFull };

ParCell editBurst(const std::string& deck, ParMode mode, int threads) {
  ParCell cell;
  auto s = ps::bench::loadWorkload(deck);
  if (!s) return cell;
  ps::support::TaskPool pool(threads);
  if (mode == ParMode::SeqInc) {
    s->fullReanalysis();  // warm graphs + memo
  } else {
    s->analyzeOn(pool);  // warm graphs + memo through the pool
    s->setDeferredAnalysis(true);
    if (mode == ParMode::ParFull) s->setIncrementalUpdates(false);
  }
  EditProbe probe;
  if (!findProbe(*s, &probe)) return cell;
  s->selectProcedure(probe.proc);
  s->resetAnalysisStats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kEditBurst; ++k) {
    if (!s->editStatement(probe.stmt, k % 2 == 0 ? probe.even : probe.odd))
      break;
    // Settle the dirty set through the pool BEFORE touching any pane:
    // panes settle on access, which would drain the dirty set sequentially
    // and leave analyzeOn with nothing to schedule.
    if (mode != ParMode::SeqInc) s->analyzeOn(pool);
    // The rewritten statement carries a fresh id; retarget by position.
    probe.stmt = ps::fortran::kInvalidStmt;
    for (const auto& r : s->sourcePane()) {
      if (r.ordinal == probe.ordinal) {
        probe.stmt = r.stmt;
        break;
      }
    }
    if (probe.stmt == ps::fortran::kInvalidStmt) break;
  }
  cell.ms = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count() *
            1e3;
  cell.testsRun = s->analysisStats().testsRun();
  return cell;
}

/// Returns whether both test-count checks on the largest deck hold.
bool parallelIncrementalSection() {
  std::printf(
      "Parallel incremental re-analysis: %d-edit burst per deck "
      "(single-statement rewrite)\n",
      kEditBurst);
  std::printf("%-12s %-12s %-12s %-12s %-12s %-12s\n", "", "seq-inc",
              "par-inc(2)", "par-inc(4)", "par-inc(8)", "par-full(4)");
  std::string largest;
  long long largestTests = -1;
  ParCell largestCells[5];
  for (const auto& w : ps::workloads::all()) {
    ParCell cells[5] = {
        editBurst(w.name, ParMode::SeqInc, 1),
        editBurst(w.name, ParMode::ParInc, 2),
        editBurst(w.name, ParMode::ParInc, 4),
        editBurst(w.name, ParMode::ParInc, 8),
        editBurst(w.name, ParMode::ParFull, 4),
    };
    std::printf("%-12s", w.name.c_str());
    for (const ParCell& c : cells)
      std::printf(" %7.2fms/%-5lld", c.ms, c.testsRun);
    std::printf("\n");
    if (cells[4].testsRun > largestTests) {
      largestTests = cells[4].testsRun;
      largest = w.name;
      for (int i = 0; i < 5; ++i) largestCells[i] = cells[i];
    }
  }
  const ParCell& seq = largestCells[0];
  const ParCell& par4 = largestCells[2];
  const ParCell& full4 = largestCells[4];
  const bool fewer = par4.testsRun < full4.testsRun;
  const bool match = par4.testsRun == seq.testsRun;
  std::printf("\nlargest deck (%s):\n", largest.c_str());
  std::printf("  par-inc(4) tests %lld vs par-full(4) %lld (fewer: %s), "
              "vs seq-inc %lld (match: %s)\n",
              par4.testsRun, full4.testsRun, fewer ? "yes" : "NO",
              seq.testsRun, match ? "yes" : "NO");
  std::printf("  par-inc(4) %.2fms vs seq-inc %.2fms (%.2fx) "
              "vs par-full(4) %.2fms (%.2fx)\n",
              par4.ms, seq.ms, seq.ms / (par4.ms > 0 ? par4.ms : 1e-9),
              full4.ms, full4.ms / (par4.ms > 0 ? par4.ms : 1e-9));
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::printf("  (hardware_concurrency=%u: thread scaling vs seq-inc is "
                "not measurable on this host; the work-reduction column is "
                "the portable signal)\n",
                hw);
  }
  std::printf("\n");
  return fewer && match;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Ablation A2: incremental update (dirty set + memo) vs "
              "whole-program reanalysis per edit\n\n");
  SessionResult inc = editSession(true);
  SessionResult full = editSession(false);

  std::printf("%-28s %14s %14s\n", "", "incremental", "rebuild-all");
  row("edits", inc.edits, full.edits);
  row("tests requested", inc.stats.testsRequested,
      full.stats.testsRequested);
  row("tests run", inc.stats.testsRun(), full.stats.testsRun());
  row("memo hits", inc.stats.memoHits, full.stats.memoHits);
  row("memo misses", inc.stats.memoMisses, full.stats.memoMisses);
  row("pairs tested", inc.stats.pairsTested, full.stats.pairsTested);
  std::printf("per tier:\n");
  row("  ZIV disproofs", inc.stats.zivDisproofs, full.stats.zivDisproofs);
  row("  ZIV exact matches", inc.stats.zivExact, full.stats.zivExact);
  row("  strong SIV tests", inc.stats.strongSiv, full.stats.strongSiv);
  row("  strong SIV disproofs", inc.stats.strongSivDisproofs,
      full.stats.strongSivDisproofs);
  row("  index-array disproofs", inc.stats.indexArrayDisproofs,
      full.stats.indexArrayDisproofs);
  row("  FM runs", inc.stats.fmRuns, full.stats.fmRuns);
  row("  FM disproofs", inc.stats.fmDisproofs, full.stats.fmDisproofs);
  row("  assumed (pending)", inc.stats.assumed, full.stats.assumed);
  std::printf("%-28s %13.1f%% %14s\n", "memo hit-rate",
              inc.stats.testsRequested > 0
                  ? 100.0 * static_cast<double>(inc.stats.memoHits) /
                        static_cast<double>(inc.stats.testsRequested)
                  : 0.0,
              "-");
  std::printf("%-28s %12.1fms %12.1fms\n", "edit wall time",
              inc.seconds * 1e3, full.seconds * 1e3);
  std::printf("%-28s %12.1fms %12.1fms\n", "  dependence pair phase",
              inc.stats.pairSeconds * 1e3, full.stats.pairSeconds * 1e3);
  std::printf("%-28s %12.1fms %12.1fms\n", "  dataflow phase",
              inc.stats.dataflowSeconds * 1e3,
              full.stats.dataflowSeconds * 1e3);
  double ratio = inc.stats.testsRun() > 0
                     ? static_cast<double>(full.stats.testsRun()) /
                           static_cast<double>(inc.stats.testsRun())
                     : 0.0;
  std::printf("\ntest reduction: %.1fx fewer dependence tests "
              "(target: >= 5x)\n",
              ratio);
  std::printf("wall-time speedup: %.1fx\n",
              full.seconds / (inc.seconds > 0 ? inc.seconds : 1e-9));
  const bool agree = inc.digest == full.digest;
  std::printf("graphs agree: %s\n\n", agree ? "yes" : "NO (BUG)");

  const bool largestOk = parallelIncrementalSection();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!agree || ratio < 5.0 || !largestOk) {
    std::fprintf(stderr, "A2 self-check failed: graphs agree %s, test "
                 "reduction %.1fx (>= 5x), largest-deck counts %s\n",
                 agree ? "yes" : "NO", ratio, largestOk ? "ok" : "NO");
    return 1;
  }
  return 0;
}
