#ifndef PS_WORKLOADS_BATCH_H
#define PS_WORKLOADS_BATCH_H

// Parallel batch analysis over the eight workshop decks (the Table 1 / 3
// corpus). Parsing stays sequential (it is a trivial fraction of the time);
// the whole-program analyses of all decks are then scheduled on ONE shared
// TaskPool, so per-procedure tasks and per-nest subtasks from different
// decks interleave and keep every worker busy even when deck sizes are
// skewed (spec77 dwarfs slab2d).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dependence/testsuite.h"
#include "ped/session.h"

namespace ps::workloads {

struct BatchDeck {
  std::string name;
  bool ok = false;       // loaded and analyzed without diagnostics
  dep::TestStats stats;  // the deck session's analysis counters
};

struct BatchResult {
  int threads = 1;
  double seconds = 0.0;        // wall time of the analysis phase only
  std::uint64_t tasksExecuted = 0;
  std::vector<BatchDeck> decks;  // Table 1 order

  [[nodiscard]] long long memoHits() const {
    long long n = 0;
    for (const auto& d : decks) n += d.stats.memoHits;
    return n;
  }
  [[nodiscard]] long long memoMisses() const {
    long long n = 0;
    for (const auto& d : decks) n += d.stats.memoMisses;
    return n;
  }
};

/// Load every deck, then analyze them all concurrently on one pool of
/// `nThreads` workers (0 = hardware_concurrency; 1 = the deterministic
/// sequential reference). When `keepSessions` is non-null the analyzed
/// sessions are handed back in deck order for further inspection.
BatchResult analyzeAllDecks(
    int nThreads,
    std::vector<std::unique_ptr<ped::Session>>* keepSessions = nullptr);

}  // namespace ps::workloads

#endif  // PS_WORKLOADS_BATCH_H
