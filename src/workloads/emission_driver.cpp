#include "workloads/emission_driver.h"

#include <cstdint>
#include <sstream>

#include "dependence/graph.h"
#include "transform/transform.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace ps::workloads {

namespace {

/// Inhibitor edge ids for a loop, optionally restricted to one variable.
std::vector<std::uint32_t> inhibitorIds(transform::Workspace& ws,
                                        const ir::Loop& loop,
                                        const std::string& variable,
                                        bool* othersRemain) {
  std::vector<std::uint32_t> ids;
  if (othersRemain) *othersRemain = false;
  for (const dep::Dependence* d : ws.graph->parallelismInhibitors(loop)) {
    if (variable.empty() || d->variable == variable) {
      ids.push_back(d->id);
    } else if (othersRemain) {
      *othersRemain = true;
    }
  }
  return ids;
}

}  // namespace

MarkCounts markParallelLoops(ped::Session& s, bool forceAllLoops) {
  MarkCounts mc;
  const transform::Target none;
  for (const std::string& proc : s.procedureNames()) {
    if (!s.selectProcedure(proc)) continue;
    // Loop rows are snapshotted up front; DO-statement ids survive the
    // marking transformations (Sequential to Parallel replaces no
    // statements), so the snapshot stays addressable.
    for (const auto& row : s.loops()) {
      if (row.parallel) continue;
      transform::Target t;
      t.loop = row.id;
      std::string err;
      if (s.applyTransformation("Sequential to Parallel", t, &err)) {
        ++mc.safe;
        continue;
      }

      // The paper's reduction workflow: when the only carried edges sit on
      // a recognized sum-reduction accumulator, the user marks the loop
      // PARALLEL anyway — the carried edges are Proven (scalar analysis is
      // exact), so they cannot be deleted, but emission renders the
      // accumulator as REDUCTION(+:acc) and the edges do not block. The
      // mark is a user assertion, so it goes on the flag directly (the
      // flag emission reads), not through the safety-gated
      // transformation.
      transform::Workspace& ws = s.workspace();
      ir::Loop* loop = ws.loopOf(row.id);
      if (!loop) continue;
      transform::SumReduction red;
      if (transform::findSumReduction(*loop, &red)) {
        bool others = false;
        const std::vector<std::uint32_t> accEdges =
            inhibitorIds(ws, *loop, red.accumulator, &others);
        if (!others && !accEdges.empty()) {
          loop->stmt->isParallel = true;
          ++mc.reduction;
          continue;
        }
      }

      if (!forceAllLoops) continue;
      // Refusal fodder: mark the loop PARALLEL with its carried dependences
      // intact — the state an over-eager user session leaves behind — so
      // emission's refusal path is exercised and must name the edges.
      if (!inhibitorIds(ws, *loop, std::string(), nullptr).empty()) {
        loop->stmt->isParallel = true;
        ++mc.forced;
      }
    }
  }
  return mc;
}

EmissionSweep emitAllDecks(const EmissionDriverOptions& opts) {
  EmissionSweep sw;
  for (const Workload& w : all()) {
    DeckEmission de;
    de.name = w.name;
    auto session = loadDeck(w.name);
    if (!session) {
      de.error = "deck failed to load";
      sw.allDecksRan = false;
      sw.decks.push_back(std::move(de));
      continue;
    }
    de.marks = markParallelLoops(*session, opts.forceAllLoops);
    de.report = session->emitOpenMP(opts.emitOptions);
    de.ok = de.report.ran;
    if (!de.ok) {
      de.error = de.report.error;
      sw.allDecksRan = false;
    }

    const emit::EmissionReport& r = de.report;
    sw.loopsConsidered += r.loopsConsidered;
    sw.loopsEmitted += r.loopsEmitted;
    sw.loopsRefused += r.loopsRefused;
    if (r.roundTripChecked && !r.roundTripOk) sw.allRoundTripsOk = false;
    for (const emit::LoopEmission& le : r.loops) {
      if (!le.emitted && le.refusal.empty()) sw.zeroSilentDrops = false;
      if (!le.emitted && le.blocking.empty() && le.refusal.empty()) {
        sw.zeroSilentDrops = false;
      }
    }
    if (r.loopsConsidered !=
        static_cast<int>(r.loops.size())) {
      sw.zeroSilentDrops = false;  // a considered loop vanished from the list
    }
    for (const auto& [k, n] : r.clauseHistogram) sw.clauseHistogram[k] += n;
    sw.emitSeconds += r.emitSeconds;
    sw.validateSeconds += r.validateSeconds;
    sw.roundTripSeconds += r.roundTripSeconds;
    sw.decks.push_back(std::move(de));
  }
  return sw;
}

std::string EmissionSweep::str() const {
  std::ostringstream os;
  os << "emission sweep: " << loopsEmitted << " emitted, " << loopsRefused
     << " refused of " << loopsConsidered << " PARALLEL loop(s) across "
     << decks.size() << " deck(s)\n";
  os << "  decks ran: " << (allDecksRan ? "yes" : "NO")
     << "; round-trips: " << (allRoundTripsOk ? "all OK" : "FAILURES")
     << "; silent drops: " << (zeroSilentDrops ? "none" : "DETECTED") << '\n';
  if (!clauseHistogram.empty()) {
    os << "  clauses:";
    for (const auto& [k, n] : clauseHistogram) os << ' ' << k << '=' << n;
    os << '\n';
  }
  os << "  time: emit=" << emitSeconds << "s validate=" << validateSeconds
     << "s round-trip=" << roundTripSeconds << "s\n";
  for (const DeckEmission& de : decks) {
    os << "  " << de.name << ": ";
    if (!de.ok) {
      os << "FAILED (" << de.error << ")\n";
      continue;
    }
    os << de.report.loopsEmitted << " emitted, " << de.report.loopsRefused
       << " refused (marked safe=" << de.marks.safe
       << " reduction=" << de.marks.reduction << " forced=" << de.marks.forced
       << ")";
    if (de.report.roundTripChecked) {
      os << ", round-trip " << (de.report.roundTripOk ? "OK" : "FAILED");
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace ps::workloads
