#ifndef PS_SERVER_SERVER_H
#define PS_SERVER_SERVER_H

// Multi-session analysis server: one long-lived process hosting N
// concurrent editing sessions over ONE shared program-database image and
// ONE shared warm dependence-test memo. Where PR 5's warm start amortized
// analysis across runs of a single editor, the server amortizes it across
// editors: the store file is read once, every session verifies records out
// of the same immutable bytes, and a dependence test proven in any session
// is a memo hit in every other (the memo keys render the complete test
// input — facts, budget, loop contexts — so cross-session hits are sound
// by construction).
//
// The shared memo needs no per-session isolation: a session that adds an
// assertion changes the keys of exactly the tests its new facts can move,
// so it re-derives those while neighbor sessions keep hitting every entry.
// Program state is never shared — each session parses its own AST, owns
// its workspaces, and edits freely.
//
// Threading contract: one client thread drives a given ServerSession at a
// time (submit/settle/save are NOT self-synchronizing per session — they
// mirror an editor's single input loop). Different sessions may be driven
// fully concurrently: the memo, the task pool and the store image are
// thread-safe or immutable, and saves are serialized by the server on top
// of the atomic store writer.

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dependence/testsuite.h"
#include "fortran/ast.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "support/taskpool.h"

namespace ps::server {

/// One queued source edit, addressed by statement id as of the snapshot
/// the client last saw (its previous settle). Ids of untouched statements
/// never move, but a rewrite REPLACES its statement under a fresh id —
/// which is why the queue coalesces per statement before applying: the
/// batch reads last-wins, the only interpretation a one-by-one replay
/// could even express against the snapshot.
struct Edit {
  enum class Kind { Rewrite, Insert, Delete };
  Kind kind = Kind::Rewrite;
  std::string proc;
  fortran::StmtId stmt = fortran::kInvalidStmt;
  std::string text;  // Rewrite/Insert payload
};

class AnalysisServer;

/// One client's editing session: a snapshot-isolated ped::Session attached
/// to the server's shared state, plus an edit queue that batches keystrokes
/// between settles (the paper's model: analysis updates when the user
/// pauses, not per character).
class ServerSession {
 public:
  /// Queue an edit; nothing is applied until settle(). Cheap — no parsing,
  /// no analysis, no locks.
  void submit(const Edit& e) { queue_.push_back(e); }

  struct SettleReport {
    std::size_t editsQueued = 0;    // batch size before coalescing
    std::size_t editsCoalesced = 0; // dropped as redundant or dead
    std::size_t editsApplied = 0;
    std::size_t editsRejected = 0;  // session refused (diagnosed, no change)
    std::size_t dirtyProcedures = 0;
    double settleMillis = 0.0;      // apply + dirty-set parallel re-analysis
  };

  /// Coalesce the queued batch (consecutive rewrites of one statement
  /// collapse to the last; a rewrite made dead by a later delete of the
  /// same statement is dropped), apply it under deferred analysis, then
  /// settle the dirty set on the server's shared pool. The resulting
  /// analysis state is bit-identical to a solo session applying the
  /// surviving batch, and the resulting source text matches a keystroke-
  /// by-keystroke replay (one that re-reads the statement's current id
  /// after every rewrite, as an interactive editor does).
  SettleReport settle();

  /// The underlying session (read panes, query dependences, transform).
  /// Call settle() first if edits are queued — readers see the pre-batch
  /// state until then.
  [[nodiscard]] ped::Session& session() { return *session_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<SettleReport>& history() const {
    return history_;
  }

 private:
  friend class AnalysisServer;
  ServerSession(AnalysisServer* server, std::string name)
      : server_(server), name_(std::move(name)) {}

  [[nodiscard]] std::vector<Edit> coalesce(SettleReport* r) const;
  bool apply(const Edit& e);

  AnalysisServer* server_;
  std::string name_;
  DiagnosticEngine diags_;
  std::unique_ptr<ped::Session> session_;
  std::vector<Edit> queue_;
  std::vector<SettleReport> history_;
};

class AnalysisServer {
 public:
  struct Config {
    /// Store file backing warm opens and saveSession(). Empty = no
    /// persistence; every session opens cold.
    std::string storePath;
    /// Shared analysis pool width. 0 = hardware concurrency; 1 = the
    /// poolless deterministic reference path.
    int analysisThreads = 0;
  };

  explicit AnalysisServer(Config config);

  /// Open a session over `source`, warm-attached to the shared store image
  /// and memo. Null when the source fails to parse or the name is taken.
  /// Safe to call from multiple client threads concurrently.
  ServerSession* openSession(const std::string& name, std::string_view source);

  /// Null when unknown.
  [[nodiscard]] ServerSession* findSession(const std::string& name);

  /// Drop a session. Entries it contributed to the shared memo stay warm
  /// for neighbors (content-complete keys keep them sound); the memo
  /// never frees an entry.
  void closeSession(const std::string& name);

  /// Persist one session's state to the configured store path. Saves are
  /// serialized across the server's sessions; the unique-temp atomic
  /// writer makes even cross-process concurrent saves safe (last writer
  /// wins with a complete, fsynced image — never a torn file).
  bool saveSession(const std::string& name);

  struct Stats {
    std::size_t sessionsOpened = 0;
    std::size_t sessionsLive = 0;
    std::size_t settles = 0;
    /// Store-read failures at construction (missing file excluded — that
    /// is the normal first-boot cold start).
    std::vector<ped::FailureReport> ioFailures;
  };
  [[nodiscard]] Stats stats();

  [[nodiscard]] support::TaskPool& pool() { return *pool_; }
  [[nodiscard]] bool warm() const { return haveImage_; }

 private:
  friend class ServerSession;

  Config config_;
  std::string storeImage_;
  bool haveImage_ = false;
  std::shared_ptr<dep::DepMemo> memo_;
  std::unique_ptr<support::TaskPool> pool_;
  std::mutex mu_;      // sessions_ + stats_
  std::mutex saveMu_;  // serializes saveSession across sessions
  std::map<std::string, std::unique_ptr<ServerSession>> sessions_;
  Stats stats_;
};

}  // namespace ps::server

#endif  // PS_SERVER_SERVER_H
