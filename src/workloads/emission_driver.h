#ifndef PS_WORKLOADS_EMISSION_DRIVER_H
#define PS_WORKLOADS_EMISSION_DRIVER_H

// Emission sweep over the eight workshop decks: mark what a PED user would
// mark PARALLEL (safe Sequential-to-Parallel applications, plus the paper's
// reduction workflow of rejecting the accumulator-confined carried edges
// first), then run Session::emitOpenMP on every deck and aggregate the
// outcomes. The sweep is the zero-silent-drop oracle the CI smoke and the
// emission suite share: every PARALLEL-marked loop across the corpus must
// either emit a round-tripping directive or carry a refusal naming its
// blocking edges.

#include <map>
#include <string>
#include <vector>

#include "emit/emit.h"
#include "ped/session.h"

namespace ps::workloads {

struct EmissionDriverOptions {
  emit::EmitOptions emitOptions;
  /// Additionally force-mark every remaining loop PARALLEL with its
  /// carried dependences intact — the state an over-eager user session
  /// leaves behind (e.g. after PR 7 auto-restores an unsound deletion) —
  /// so emission's refusal path is exercised on real decks.
  bool forceAllLoops = false;
};

/// What the marking phase did to one session.
struct MarkCounts {
  int safe = 0;       // Sequential to Parallel applied as advised
  int reduction = 0;  // accumulator edges rejected first (REDUCTION loops)
  int forced = 0;     // forceAllLoops marks (refusal fodder)
};

/// Mark parallel loops on a loaded deck session the way a workshop user
/// would: apply every safe Sequential-to-Parallel, then assert the PARALLEL
/// mark on sum-reduction loops whose only carried edges sit on the
/// accumulator (emission renders those as REDUCTION(+:acc)). With
/// forceAllLoops, also leave refusal-fodder loops behind (see
/// EmissionDriverOptions).
MarkCounts markParallelLoops(ped::Session& s, bool forceAllLoops);

struct DeckEmission {
  std::string name;
  bool ok = false;    // loaded, marked, and emitOpenMP ran
  std::string error;
  MarkCounts marks;
  emit::EmissionReport report;
};

struct EmissionSweep {
  std::vector<DeckEmission> decks;  // Table 1 order

  int loopsConsidered = 0;
  int loopsEmitted = 0;
  int loopsRefused = 0;
  bool allDecksRan = true;
  bool allRoundTripsOk = true;
  /// Every considered loop either emitted or carries a non-empty refusal.
  bool zeroSilentDrops = true;
  std::map<std::string, int> clauseHistogram;
  double emitSeconds = 0.0;
  double validateSeconds = 0.0;
  double roundTripSeconds = 0.0;

  [[nodiscard]] std::string str() const;
};

/// Load, mark and emit every deck; aggregate the per-deck reports.
EmissionSweep emitAllDecks(const EmissionDriverOptions& opts = {});

}  // namespace ps::workloads

#endif  // PS_WORKLOADS_EMISSION_DRIVER_H
