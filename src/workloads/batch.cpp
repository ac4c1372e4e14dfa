#include "workloads/batch.h"

#include <chrono>
#include <functional>

#include "support/diagnostics.h"
#include "support/taskpool.h"
#include "workloads/workloads.h"

namespace ps::workloads {

BatchResult analyzeAllDecks(
    int nThreads, std::vector<std::unique_ptr<ped::Session>>* keepSessions) {
  BatchResult result;

  // Session::load only parses; the batch's measured phase is the
  // whole-program analysis below, which is what an interactive user pays
  // after an invalidating change.
  std::vector<std::unique_ptr<ped::Session>> sessions;
  std::vector<bool> loaded;
  for (const Workload& w : all()) {
    BatchDeck deck;
    deck.name = w.name;
    DiagnosticEngine diags;
    auto s = ped::Session::load(w.source, diags);
    bool ok = s != nullptr && !diags.hasErrors();
    loaded.push_back(ok);
    sessions.push_back(std::move(s));
    result.decks.push_back(std::move(deck));
  }

  support::TaskPool pool(nThreads);
  result.threads = pool.threadCount();
  const std::uint64_t tasks0 = pool.tasksExecuted();

  // One task per deck; each deck's analyzeOn fans its own per-procedure and
  // per-nest tasks into the same pool, and the deck task helps execute them
  // while it waits — so all eight decks' work interleaves freely.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::function<void()>> thunks;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (!loaded[i]) continue;
    ped::Session* s = sessions[i].get();
    thunks.push_back([s, &pool] {
      s->resetAnalysisStats();
      (void)s->analyzeOn(pool);
    });
  }
  pool.runAll(std::move(thunks));
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.tasksExecuted = pool.tasksExecuted() - tasks0;

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (!loaded[i]) continue;
    result.decks[i].ok = true;
    result.decks[i].stats = sessions[i]->analysisStats();
  }

  if (keepSessions) *keepSessions = std::move(sessions);
  return result;
}

}  // namespace ps::workloads
