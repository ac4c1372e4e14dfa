#ifndef PS_WORKLOADS_SERVER_DRIVER_H
#define PS_WORKLOADS_SERVER_DRIVER_H

// Scripted §3.1-style editing sessions for the analysis server: a fixed
// seed generates a deck's edit stream once, and the same stream replays
// either as a server session (bursts submitted to the edit queue, settled
// on the shared pool) or as the solo cold baseline (the same bursts,
// settled sequentially). The storm suite asserts server snapshot == solo
// snapshot, byte for byte, at every thread count.

#include <string>
#include <vector>

#include "server/server.h"
#include "workloads/harness.h"

namespace ps::workloads {

/// One scripted session: which deck, which seed, and the edit cadence
/// (edit bursts separated by settles — the paper's model of typing, then
/// pausing while analysis catches up).
struct StormScript {
  std::string deck;
  unsigned seed = 1;
  int bursts = 3;
  int editsPerBurst = 4;
};

/// The seeded edit stream for `script`: generated against (and applied to)
/// a private reference session, so statement ids stay valid as the program
/// evolves. Deterministic — same script, same stream. Sessions replaying
/// it from the same deck stay in id lockstep with the generator.
std::vector<server::Edit> stormEdits(const StormScript& script);

struct StormResult {
  bool ok = false;       // session opened and every burst settled
  std::string snapshot;  // final analysisSnapshot
};

/// Drive one scripted session on the server: open (warm-attach to the
/// shared store image/memo/pool), submit each burst, settle, snapshot,
/// close. Pass `edits` to reuse a precomputed stream (the storm suite opens
/// many sessions over one script); null generates it here.
StormResult runStormSession(server::AnalysisServer& server,
                            const std::string& sessionName,
                            const StormScript& script,
                            const std::vector<server::Edit>* edits = nullptr);

/// The bit-identity reference: a solo cold session over the same deck,
/// the same edit stream in the same bursts, each settled with the poolless
/// sequential path (nThreads == 1).
StormResult runSoloBaseline(const StormScript& script,
                            const std::vector<server::Edit>* edits = nullptr);

}  // namespace ps::workloads

#endif  // PS_WORKLOADS_SERVER_DRIVER_H
