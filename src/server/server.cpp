#include "server/server.h"

#include <cerrno>
#include <chrono>
#include <set>
#include <utility>

#include "support/io.h"

namespace ps::server {

// ---------------------------------------------------------------------------
// ServerSession
// ---------------------------------------------------------------------------

std::vector<Edit> ServerSession::coalesce(SettleReport* r) const {
  // A rewrite replaces its statement under a FRESH id, so two queued edits
  // naming one id cannot both apply — the second would find its statement
  // gone. Coalescing per statement id is therefore semantics, not merely
  // thrift: the queue reads last-wins against the snapshot the client saw.
  // Edits naming different ids never disturb each other's statements, so
  // order is preserved and per-id reasoning suffices:
  //   Rewrite then Rewrite  -> keep the first slot, last text wins (what
  //                            the user's final keystroke state says).
  //   Rewrite then Delete   -> the rewrite is dead work; the slot becomes
  //                            the Delete.
  //   Delete then anything  -> the statement is gone; later edits on it
  //                            would be rejected no-ops, so drop them.
  //   Insert                -> never coalesced (each adds a statement), and
  //                            it pins the order for its anchor: an
  //                            insert-after(s) must still see s, so a later
  //                            Delete(s) may not collapse past it — we
  //                            forget the pending rewrite slot to force the
  //                            Delete to append in order.
  using Key = std::pair<std::string, fortran::StmtId>;
  std::vector<Edit> batch;
  std::map<Key, std::size_t> lastRewrite;
  std::set<Key> dead;
  for (const Edit& e : queue_) {
    const Key key{e.proc, e.stmt};
    if (dead.count(key)) {
      ++r->editsCoalesced;
      continue;
    }
    switch (e.kind) {
      case Edit::Kind::Rewrite: {
        auto it = lastRewrite.find(key);
        if (it != lastRewrite.end()) {
          batch[it->second].text = e.text;
          ++r->editsCoalesced;
        } else {
          lastRewrite[key] = batch.size();
          batch.push_back(e);
        }
        break;
      }
      case Edit::Kind::Delete: {
        auto it = lastRewrite.find(key);
        if (it != lastRewrite.end()) {
          batch[it->second] = e;
          lastRewrite.erase(it);
          ++r->editsCoalesced;
        } else {
          batch.push_back(e);
        }
        dead.insert(key);
        break;
      }
      case Edit::Kind::Insert:
        lastRewrite.erase(key);
        batch.push_back(e);
        break;
    }
  }
  return batch;
}

bool ServerSession::apply(const Edit& e) {
  if (!session_->selectProcedure(e.proc)) return false;
  switch (e.kind) {
    case Edit::Kind::Rewrite:
      return session_->editStatement(e.stmt, e.text);
    case Edit::Kind::Insert:
      return session_->insertStatementAfter(e.stmt, e.text);
    case Edit::Kind::Delete:
      return session_->deleteStatement(e.stmt);
  }
  return false;
}

ServerSession::SettleReport ServerSession::settle() {
  SettleReport r;
  r.editsQueued = queue_.size();
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Edit> batch = coalesce(&r);
  for (const Edit& e : batch) {
    if (apply(e)) {
      ++r.editsApplied;
    } else {
      ++r.editsRejected;
    }
  }
  queue_.clear();
  r.dirtyProcedures = session_->dirtyProcedures().size();
  if (r.dirtyProcedures > 0) {
    // Dirty-set parallel settle on the server's shared pool: only the
    // procedures the batch touched re-analyze, interleaved with whatever
    // neighbor sessions are settling right now.
    session_->analyzeOn(server_->pool());
  }
  r.settleMillis = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  {
    std::lock_guard<std::mutex> lock(server_->mu_);
    ++server_->stats_.settles;
  }
  history_.push_back(r);
  return r;
}

// ---------------------------------------------------------------------------
// AnalysisServer
// ---------------------------------------------------------------------------

AnalysisServer::AnalysisServer(Config config) : config_(std::move(config)) {
  memo_ = std::make_shared<dep::DepMemo>();
  pool_ = std::make_unique<support::TaskPool>(config_.analysisThreads);
  if (config_.storePath.empty()) return;
  const support::IoStatus io =
      support::readFileEx(config_.storePath, &storeImage_);
  if (io.ok()) {
    haveImage_ = true;
  } else if (io.error != ENOENT) {
    // Missing file = normal first boot. Anything else (permissions, media
    // error) is reported, and the server runs cold rather than half-warm.
    stats_.ioFailures.push_back({"server open",
                                 io.str() + " (" + config_.storePath + ")",
                                 /*rolledBack=*/false});
  }
}

ServerSession* AnalysisServer::openSession(const std::string& name,
                                           std::string_view source) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(name)) return nullptr;
  }
  // Attach outside the lock: parsing and settling store misses is the
  // expensive part, and concurrent opens only touch thread-safe shared
  // state (memo, pool) and the immutable store image.
  ped::Session::SharedWarmState shared;
  if (haveImage_) shared.storeImage = &storeImage_;
  shared.memo = memo_;
  shared.pool = pool_.get();
  auto ss = std::unique_ptr<ServerSession>(new ServerSession(this, name));
  ss->session_ = ped::Session::attach(source, shared, ss->diags_,
                                      config_.analysisThreads);
  if (!ss->session_) return nullptr;
  // Editor model: edits batch in the session queue and settle explicitly.
  ss->session_->setDeferredAnalysis(true);

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sessions_.emplace(name, std::move(ss));
  if (!inserted) return nullptr;  // lost a name race to a concurrent open
  ++stats_.sessionsOpened;
  return it->second.get();
}

ServerSession* AnalysisServer::findSession(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void AnalysisServer::closeSession(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(name);
}

bool AnalysisServer::saveSession(const std::string& name) {
  if (config_.storePath.empty()) return false;
  ServerSession* ss = findSession(name);
  if (!ss) return false;
  // One save at a time server-wide: savePdb walks the session's settled
  // workspaces and the shared memo, and the store file is a single image.
  // Cross-PROCESS writers are still safe without this lock — the atomic
  // writer gives last-writer-wins over complete images.
  std::lock_guard<std::mutex> lock(saveMu_);
  return ss->session().savePdb(config_.storePath);
}

AnalysisServer::Stats AnalysisServer::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.sessionsLive = sessions_.size();
  return s;
}

}  // namespace ps::server
