#include "workloads/server_driver.h"

#include "workloads/workloads.h"

namespace ps::workloads {

namespace {

server::Edit toServerEdit(const EditStep& step) {
  server::Edit e;
  switch (step.kind) {
    case EditStep::Kind::Rewrite:
      e.kind = server::Edit::Kind::Rewrite;
      break;
    case EditStep::Kind::Insert:
      e.kind = server::Edit::Kind::Insert;
      break;
    case EditStep::Kind::Delete:
      e.kind = server::Edit::Kind::Delete;
      break;
  }
  e.proc = step.proc;
  e.stmt = step.stmt;
  e.text = step.text;
  return e;
}

bool applySolo(ped::Session& s, const server::Edit& e) {
  if (!s.selectProcedure(e.proc)) return false;
  switch (e.kind) {
    case server::Edit::Kind::Rewrite:
      return s.editStatement(e.stmt, e.text);
    case server::Edit::Kind::Insert:
      return s.insertStatementAfter(e.stmt, e.text);
    case server::Edit::Kind::Delete:
      return s.deleteStatement(e.stmt);
  }
  return false;
}

}  // namespace

std::vector<server::Edit> stormEdits(const StormScript& script) {
  std::vector<server::Edit> edits;
  auto ref = loadDeck(script.deck);
  if (!ref) return edits;
  // Deferred analysis: the generator only needs the evolving AST (source
  // pane rows); full re-analysis per generated edit would be wasted work.
  ref->setDeferredAnalysis(true);
  Rng rng(script.seed);
  EditStep step;
  const int total = script.bursts * script.editsPerBurst;
  for (int i = 0; i < total; ++i) {
    if (!nextStep(*ref, rng, &step)) break;
    if (!applyStep(*ref, step)) break;  // keep the generator in lockstep
    edits.push_back(toServerEdit(step));
  }
  return edits;
}

StormResult runStormSession(server::AnalysisServer& srv,
                            const std::string& sessionName,
                            const StormScript& script,
                            const std::vector<server::Edit>* edits) {
  StormResult out;
  const Workload* w = byName(script.deck);
  if (!w) return out;
  std::vector<server::Edit> local;
  if (!edits) {
    local = stormEdits(script);
    edits = &local;
  }
  server::ServerSession* ss = srv.openSession(sessionName, w->source);
  if (!ss) return out;
  std::size_t next = 0;
  for (int b = 0; b < script.bursts && next < edits->size(); ++b) {
    for (int i = 0; i < script.editsPerBurst && next < edits->size(); ++i) {
      ss->submit((*edits)[next++]);
    }
    ss->settle();
  }
  out.snapshot = analysisSnapshot(ss->session());
  out.ok = true;
  srv.closeSession(sessionName);
  return out;
}

StormResult runSoloBaseline(const StormScript& script,
                            const std::vector<server::Edit>* edits) {
  StormResult out;
  std::vector<server::Edit> local;
  if (!edits) {
    local = stormEdits(script);
    edits = &local;
  }
  auto s = loadDeck(script.deck);
  if (!s) return out;
  s->setDeferredAnalysis(true);
  std::size_t next = 0;
  for (int b = 0; b < script.bursts && next < edits->size(); ++b) {
    // A rejected edit is skipped, as the server's settle skips it.
    for (int i = 0; i < script.editsPerBurst && next < edits->size(); ++i) {
      (void)applySolo(*s, (*edits)[next++]);
    }
    s->analyzeParallel(1);  // the poolless sequential reference path
  }
  out.snapshot = analysisSnapshot(*s);
  out.ok = true;
  return out;
}

}  // namespace ps::workloads
