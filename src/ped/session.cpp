#include "ped/session.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "cfg/flow_graph.h"
#include "dataflow/liveness.h"
#include "dataflow/privatize.h"
#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "ir/refs.h"
#include "ir/stable_id.h"

namespace ps::ped {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Procedure;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using ir::Loop;

std::string DegradationReport::str() const {
  std::ostringstream out;
  out << "degradation report: " << edges.size() << " degraded edge(s), fm="
      << fmDegraded << " answers=" << degradedAnswers
      << " linearize=" << linearizeDegraded
      << " symbolic=" << symbolicTruncated << "\n";
  for (const auto& e : edges) {
    out << "  " << e.procedure << " dep#" << e.depId << " " << e.type
        << " on " << e.variable << " level " << e.level << "\n";
  }
  if (!unvalidated.empty()) {
    out << "  " << unvalidated.size()
        << " deletion(s) unvalidated by the last dynamic check:\n";
    for (const auto& e : unvalidated) {
      out << "    " << e.procedure << " dep#" << e.depId << " " << e.type
          << " on " << e.variable << " level " << e.level << "\n";
    }
  }
  return out.str();
}

std::unique_ptr<Session> Session::parse(std::string_view source,
                                        DiagnosticEngine& diags) {
  auto session = std::unique_ptr<Session>(new Session());
  session->program_ = fortran::parseSource(source, session->diags_);
  for (const auto& d : session->diags_.all()) {
    if (d.severity == Severity::Error) diags.error(d.loc, d.message);
  }
  if (session->program_->units.empty()) {
    diags.error({}, "no program units");
    return nullptr;
  }
  session->current_ = session->program_->units[0]->name;
  return session;
}

void Session::replaySourceAssertions() {
  std::vector<std::string> payloads;
  for (const auto& unit : program_->units) {
    unit->forEachStmt([&](const Stmt& s) {
      if (s.kind == StmtKind::Assertion) {
        payloads.push_back(s.assertionText);
      }
    });
  }
  for (const auto& p : payloads) addAssertion(p);
}

std::unique_ptr<Session> Session::load(std::string_view source,
                                       DiagnosticEngine& diags) {
  auto session = parse(source, diags);
  if (!session) return nullptr;
  // Unsummarized: the first analysis computes the summaries in its DAG.
  session->summaries_ = std::make_unique<interproc::SummaryBuilder>(
      *session->program_, interproc::SummaryBuilder::Deferred{});
  session->replaySourceAssertions();
  return session;
}

// ---------------------------------------------------------------------------
// Workspaces & analysis context
// ---------------------------------------------------------------------------

dep::AnalysisContext Session::makeContext(const Procedure& proc,
                                          const dep::SideEffectOracle* oracle,
                                          dep::TestStats* sink,
                                          support::TaskPool* pool) const {
  dep::AnalysisContext ctx;
  ctx.oracle = oracle;
  applyAssertions(assertions_, &ctx);
  auto itOv = overrides_.find(proc.name);
  if (itOv != overrides_.end()) ctx.classificationOverrides = itOv->second;
  ctx.inheritedConstants = summaries_->inheritedConstantsFor(proc);
  ctx.inheritedRelations = summaries_->inheritedRelationsFor(proc);
  // The session-shared memo, warm across rebuilds and procedures, is the
  // incremental mechanism; off = the A2 baseline.
  ctx.useMemo = incrementalUpdates_;
  ctx.memo = incrementalUpdates_ ? memo_ : nullptr;
  ctx.statsSink = sink;
  ctx.budget = budget_;
  ctx.pool = pool;
  return ctx;
}

const interproc::InterproceduralOracle* Session::oracleFor(
    const Procedure& proc) {
  auto& oracle = oracles_[proc.name];
  if (!oracle) {
    oracle =
        std::make_unique<interproc::InterproceduralOracle>(*summaries_, proc);
  }
  return oracle.get();
}

transform::Workspace& Session::wsFor(const std::string& name) {
  auto it = workspaces_.find(name);
  // Deferred edits leave materialized graphs stale; settle on access so
  // every reader sees analysis results consistent with the current AST.
  if (it == workspaces_.end() || pendingDirty_.count(name)) {
    Procedure* proc = it != workspaces_.end() ? &it->second->proc
                                              : program_->findUnit(name);
    (void)analyze({proc}, nullptr);
    it = workspaces_.find(name);
  }
  return *it->second;
}

transform::Workspace& Session::wsForEdit(const std::string& name) {
  auto it = workspaces_.find(name);
  // No settle: edits only need the statement model, which finishChange keeps
  // fresh across deferred edits; settling here would serialize the graph
  // rebuild that deferral exists to postpone.
  if (it != workspaces_.end()) return *it->second;
  return wsFor(name);
}

// ---------------------------------------------------------------------------
// The analysis scheduler
// ---------------------------------------------------------------------------

ParallelReport Session::analyze(const std::vector<Procedure*>& procs,
                                support::TaskPool* pool) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t tasks0 = pool ? pool->tasksExecuted() : 0;
  const std::uint64_t steals0 = pool ? pool->steals() : 0;
  const std::vector<support::TaskPool::IdleStats> idle0 =
      pool ? pool->idleStats() : std::vector<support::TaskPool::IdleStats>();

  // Per-procedure state, resolved here so the tasks never touch the
  // session's maps: the oracle and the workspace to re-analyze (null: build
  // one, into `built`).
  struct Slot {
    const interproc::InterproceduralOracle* oracle = nullptr;
    transform::Workspace* ws = nullptr;
    std::unique_ptr<transform::Workspace> built;
    dep::TestStats stats;
  };
  std::vector<Slot> slots(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) {
    slots[i].oracle = oracleFor(*procs[i]);
    auto it = workspaces_.find(procs[i]->name);
    if (it != workspaces_.end()) slots[i].ws = it->second.get();
  }

  // The builder's summary phase, while the summaries are not final, then
  // one node per procedure gated on the phase nodes it reads — so a
  // procedure whose callees are final starts while unrelated call-graph
  // regions still summarize.
  support::TaskGraph graph;
  const std::map<std::string, std::vector<std::size_t>> summaryWaits =
      summaries_->schedule(graph);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const std::size_t node = graph.add([this, i, &procs, &slots, pool] {
      Procedure& proc = *procs[i];
      Slot& slot = slots[i];
      dep::AnalysisContext ctx =
          makeContext(proc, slot.oracle, &slot.stats, pool);
      if (!slot.ws) {
        slot.built = std::make_unique<transform::Workspace>(*program_, proc,
                                                            std::move(ctx));
        return;
      }
      // Fresh context = fresh inherited facts.
      slot.ws->actx = std::move(ctx);
      slot.ws->reanalyze();
    });
    auto waits = summaryWaits.find(procs[i]->name);
    if (waits == summaryWaits.end()) continue;
    for (std::size_t before : waits->second) graph.addEdge(before, node);
  }
  if (pool) {
    graph.run(*pool);
  } else {
    graph.runInOrder();
  }

  // Deterministic merge in list (unit) order: fold per-task stats into the
  // session counters, adopt built workspaces, and rebind each context to
  // the session's sink with no pool, so later edits and rebuilds behave
  // the same whichever run built the workspace.
  for (std::size_t i = 0; i < procs.size(); ++i) {
    Slot& slot = slots[i];
    const std::string& name = procs[i]->name;
    if (slot.built) {
      slot.ws = slot.built.get();
      workspaces_.emplace(name, std::move(slot.built));
    }
    stats_.accumulate(slot.stats);
    slot.ws->actx.statsSink = &stats_;
    slot.ws->actx.pool = nullptr;
    reapplyMarks(*slot.ws);
    pendingDirty_.erase(name);  // analyzed means clean
  }

  ParallelReport report;
  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  report.procedures = procs.size();
  if (pool) {
    report.threads = pool->threadCount();
    report.tasksExecuted = pool->tasksExecuted() - tasks0;
    report.steals = pool->steals() - steals0;
    const std::vector<support::TaskPool::IdleStats> idle1 = pool->idleStats();
    for (std::size_t i = 0; i < idle1.size(); ++i) {
      report.idle.push_back(i < idle0.size() ? idle1[i].since(idle0[i])
                                             : idle1[i]);
    }
  }
  return report;
}

std::vector<Procedure*> Session::unitsWhere(
    const std::function<bool(const std::string&)>& pick) const {
  std::vector<Procedure*> out;
  std::set<std::string> seen;
  for (const auto& u : program_->units) {
    if (pick(u->name) && seen.insert(u->name).second) out.push_back(u.get());
  }
  return out;
}

std::vector<Procedure*> Session::takeDirty() {
  std::vector<Procedure*> dirty = unitsWhere([this](const std::string& name) {
    return pendingDirty_.count(name) != 0 && workspaces_.count(name) != 0;
  });
  pendingDirty_.clear();
  return dirty;
}

void Session::rebuildMaterialized() {
  std::vector<Procedure*> procs = unitsWhere(
      [this](const std::string& name) { return workspaces_.count(name) != 0; });
  // Every materialized graph is re-derived below, and a dirty name without
  // a workspace holds no stale state.
  pendingDirty_.clear();
  if (!procs.empty()) (void)analyze(procs, nullptr);
}

void Session::settleEdits() {
  if (pendingDirty_.empty()) return;
  (void)analyze(takeDirty(), nullptr);
}

void Session::setDeferredAnalysis(bool on) {
  deferredAnalysis_ = on;
  if (!on) settleEdits();
}

transform::Workspace& Session::workspace() { return wsFor(current_); }

void Session::fullReanalysis() { (void)analyzeAll(nullptr); }

ParallelReport Session::analyzeAll(support::TaskPool* pool) {
  workspaces_.clear();
  pendingDirty_.clear();
  memo_ = std::make_shared<dep::DepMemo>();
  // The oracles reference the builder being replaced.
  oracles_.clear();
  summaries_ = std::make_unique<interproc::SummaryBuilder>(
      *program_, interproc::SummaryBuilder::Deferred{});
  return analyze(unitsWhere([](const std::string&) { return true; }), pool);
}

ParallelReport Session::analyzeParallel(int nThreads) {
  support::TaskPool pool(nThreads);
  return analyzeOn(pool);
}

ParallelReport Session::analyzeOn(support::TaskPool& pool) {
  // Deferred edits + incremental updates: schedule only the dirty set,
  // reusing the warm memo. With incremental updates off (the A2 baseline)
  // every analysis is rebuilt regardless of how small the edit was.
  if (incrementalUpdates_ && !pendingDirty_.empty()) {
    ParallelReport report = analyze(takeDirty(), &pool);
    report.incremental = true;
    return report;
  }
  return analyzeAll(&pool);
}

void Session::setIncrementalUpdates(bool on) {
  incrementalUpdates_ = on;
  for (auto& [name, ws] : workspaces_) {
    (void)name;
    ws->actx.useMemo = on;
    ws->actx.memo = on ? memo_ : nullptr;
  }
}

// ---------------------------------------------------------------------------
// Dependence marks (survive reanalysis by MarkKey)
// ---------------------------------------------------------------------------

Session::MarkKey Session::markKey(const dep::Dependence& d,
                                  const ir::ProcedureModel& model) {
  auto refIndex = [&](StmtId id, const Expr* ref) {
    const Stmt* s = ref ? model.stmt(id) : nullptr;
    return s ? ir::exprIndexIn(*s, *ref) : -1;
  };
  return {d.type,
          d.variable,
          d.srcStmt,
          d.dstStmt,
          d.level,
          refIndex(d.srcStmt, d.srcRef),
          refIndex(d.dstStmt, d.dstRef)};
}

void Session::reapplyMarks(transform::Workspace& ws) const {
  if (marks_.empty()) return;
  for (auto& d : ws.graph->allMutable()) {
    auto it = marks_.find(markKey(d, *ws.model));
    if (it != marks_.end()) {
      d.mark = it->second.mark;
      d.reason = it->second.reason;
      d.evidence = it->second.evidence;
    }
  }
}

// ---------------------------------------------------------------------------
// Transactions & invariant auditing
// ---------------------------------------------------------------------------

Session::Snapshot Session::takeSnapshot(Procedure& unit) const {
  return {&unit, fortran::cloneUnit(unit), program_->nextStmtId,
          program_->units.size()};
}

void Session::restoreSnapshot(Snapshot&& snap) {
  // The unit is restored *in place*: Workspaces hold references to
  // Procedure objects, so its address must survive the rollback.
  *snap.unit = std::move(*snap.copy);
  // Units appended since the snapshot (Loop Extraction and Loop Embedding
  // add one) are dropped, together with anything derived from them.
  while (program_->units.size() > snap.units) {
    const std::string& name = program_->units.back()->name;
    workspaces_.erase(name);
    oracles_.erase(name);
    pendingDirty_.erase(name);
    program_->units.pop_back();
  }
  program_->nextStmtId = snap.nextStmtId;
  // A change back: the unit's model and graph held pointers into the
  // replaced statements, and what was derived from its old text is
  // updated as after any change.
  updateDerived(*snap.unit, /*analyzed=*/false);
}

audit::Report Session::auditNow(bool deep) {
  audit::Report rep;
  audit::auditProgram(*program_, rep);
  for (auto& [name, ws] : workspaces_) {
    if (ws->model) audit::auditModel(*ws->model, rep);
    // A dirty workspace's graph predates the pending edit (deferred mode):
    // it may reference statements the edit replaced, which is exactly the
    // staleness the settle will repair — not an invariant violation.
    if (pendingDirty_.count(name)) continue;
    if (ws->model && ws->graph) {
      audit::auditGraph(*ws->graph, *ws->model, rep);
    }
  }
  if (deep) audit::auditRoundTrip(*program_, rep);
  return rep;
}

void Session::recordFailure(std::string operation, std::string detail,
                            bool rolledBack) {
  failures_.push_back(
      {std::move(operation), std::move(detail), rolledBack});
}

void Session::corruptIfArmed(Procedure& proc) {
  if (fault_ != Fault::CorruptState) return;
  fault_ = Fault::None;
  if (proc.body.size() >= 2) proc.body.back()->id = proc.body.front()->id;
}

void Session::setAnalysisBudget(const dep::AnalysisBudget& b) {
  if (budget_ == b) return;
  budget_ = b;
  // Memoized results carry their budget in the key, so stale cross-budget
  // hits are impossible — but the materialized graphs were derived under
  // the old budget and must be re-derived.
  rebuildMaterialized();
}

DegradationReport Session::degradationReport() const {
  DegradationReport r;
  for (const auto& [name, ws] : workspaces_) {
    if (!ws->graph) continue;
    for (const auto& d : ws->graph->all()) {
      if (!d.degraded) continue;
      r.edges.push_back(
          {name, d.id, dep::depTypeName(d.type), d.variable, d.level});
    }
  }
  r.unvalidated = unvalidatedDeletions_;
  r.fmDegraded = stats_.fmDegraded;
  r.degradedAnswers = stats_.degradedAnswers;
  r.linearizeDegraded = stats_.linearizeDegraded;
  r.symbolicTruncated = stats_.symbolicTruncated;
  return r;
}

// ---------------------------------------------------------------------------
// Navigation
// ---------------------------------------------------------------------------

std::vector<std::string> Session::procedureNames() const {
  std::vector<std::string> out;
  for (const auto& u : program_->units) out.push_back(u->name);
  return out;
}

bool Session::selectProcedure(const std::string& name) {
  if (!program_->findUnit(name)) return false;
  current_ = name;
  currentLoop_ = fortran::kInvalidStmt;
  ++counters_.programNavigations;
  return true;
}

std::vector<Session::LoopRow> Session::loops() {
  transform::Workspace& ws = wsFor(current_);
  std::vector<LoopRow> out;
  for (const auto& l : ws.model->loops()) {
    LoopRow row;
    row.id = l->stmt->id;
    row.headline = fortran::stmtHeadline(*l->stmt);
    row.level = l->level;
    row.parallelizable = ws.graph->parallelizable(*l);
    row.parallel = l->stmt->isParallel;
    for (const auto* d : ws.graph->forLoop(*l)) {
      if (d->mark == dep::DepMark::Pending) ++row.pendingDeps;
    }
    out.push_back(std::move(row));
  }
  return out;
}

bool Session::selectLoop(StmtId loop) {
  transform::Workspace& ws = wsFor(current_);
  if (!ws.loopOf(loop)) return false;
  currentLoop_ = loop;
  ++counters_.programNavigations;
  return true;
}

// ---------------------------------------------------------------------------
// Panes
// ---------------------------------------------------------------------------

std::vector<Session::SourceRow> Session::sourcePane() {
  transform::Workspace& ws = wsFor(current_);
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  std::vector<SourceRow> rows;
  int ordinal = 0;
  for (const Stmt* s : ws.model->allStmts()) {
    SourceRow row;
    row.ordinal = ++ordinal;
    row.stmt = s->id;
    row.text = fortran::stmtHeadline(*s);
    if (s->label != 0) {
      row.text = std::to_string(s->label) + " " + row.text;
    }
    row.loopStart = (s->kind == StmtKind::Do);
    const Loop* encl = ws.model->enclosingLoop(s->id);
    row.depth = encl ? encl->level : 0;
    row.inCurrentLoop = cur && (cur->contains(s->id));
    if (srcFilter_) {
      if (srcFilter_->loopHeadersOnly && !row.loopStart) continue;
      if (!srcFilter_->contains.empty() &&
          row.text.find(srcFilter_->contains) == std::string::npos) {
        continue;
      }
      if (srcFilter_->withLabel != 0 && s->label != srcFilter_->withLabel) {
        continue;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {
std::string refDisplay(const dep::Dependence& d, bool src,
                       const ir::ProcedureModel& model) {
  const Expr* e = src ? d.srcRef : d.dstRef;
  if (e) return fortran::printExpr(*e);
  const Stmt* s = model.stmt(src ? d.srcStmt : d.dstStmt);
  if (!s) return "?";
  if (d.type == dep::DepType::Control) {
    return "line " + std::to_string(s->loc.line);
  }
  return "call@" + std::to_string(s->loc.line);
}
}  // namespace

std::vector<Session::DependenceRow> Session::dependencePane() {
  transform::Workspace& ws = wsFor(current_);
  std::vector<DependenceRow> rows;
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  for (const auto& d : ws.graph->all()) {
    if (cur &&
        !(cur->contains(d.srcStmt) && cur->contains(d.dstStmt))) {
      continue;  // progressive disclosure: current loop only
    }
    if (depFilter_) {
      if (depFilter_->type && d.type != *depFilter_->type) continue;
      if (!depFilter_->variable.empty() &&
          d.variable != depFilter_->variable) {
        continue;
      }
      if (depFilter_->mark && d.mark != *depFilter_->mark) continue;
      if (depFilter_->carriedOnly &&
          d.loopCarried() != *depFilter_->carriedOnly) {
        continue;
      }
    }
    DependenceRow row;
    row.id = d.id;
    row.type = dep::depTypeName(d.type);
    row.source = refDisplay(d, true, *ws.model);
    row.sink = refDisplay(d, false, *ws.model);
    row.vector = d.vector.str();
    row.level = d.level;
    const fortran::VarDecl* decl =
        ws.proc.findDecl(d.variable);
    row.block = decl ? decl->commonBlock : "";
    row.mark = dep::depMarkName(d.mark);
    row.reason = d.reason;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<Session::VariableRow> Session::variablePane() {
  transform::Workspace& ws = wsFor(current_);
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  std::vector<VariableRow> rows;
  if (!cur) return rows;

  cfg::FlowGraph fg = cfg::FlowGraph::build(*ws.model);
  const dataflow::VarIndex vars = dataflow::VarIndex::build(fg, *ws.model);
  auto lv = dataflow::Liveness::build(vars);
  auto priv = dataflow::PrivatizationAnalysis::build(vars, lv);

  // All variables referenced in the loop.
  std::set<std::string> names;
  for (const Stmt* s : cur->bodyStmts) {
    for (const ir::Ref& r : ir::collectRefs(*s)) names.insert(r.name);
  }
  for (const std::string& name : names) {
    VariableRow row;
    row.name = name;
    const fortran::VarDecl* decl = ws.proc.findDecl(name);
    row.dim = decl ? static_cast<int>(decl->dims.size()) : 0;
    row.block = decl ? decl->commonBlock : "";
    // Defs and uses outside the current loop (line numbers).
    std::set<int> defLines, useLines;
    ws.proc.forEachStmt([&](const Stmt& s) {
      if (cur->contains(s.id)) return;
      for (const ir::Ref& r : ir::collectRefs(s)) {
        if (r.name != name) continue;
        if (r.isWrite()) defLines.insert(s.loc.line);
        if (r.isRead()) useLines.insert(s.loc.line);
      }
    });
    auto fmtLines = [](const std::set<int>& lines) {
      std::string out;
      int count = 0;
      for (int l : lines) {
        if (count++) out += ",";
        if (count > 3) {
          out += "...";
          break;
        }
        out += std::to_string(l);
      }
      return out;
    };
    row.defs = fmtLines(defLines);
    row.uses = fmtLines(useLines);

    // Classification: overrides first, then analysis; arrays default
    // shared.
    std::string kind;
    auto itOv = overrides_.find(current_);
    if (itOv != overrides_.end()) {
      auto itL = itOv->second.find(cur->stmt->id);
      if (itL != itOv->second.end()) {
        auto itV = itL->second.find(name);
        if (itV != itL->second.end()) {
          kind = itV->second ? "private" : "shared";
        }
      }
    }
    if (kind.empty()) {
      if (decl && decl->isArray()) {
        kind = "shared";
      } else if (name == cur->inductionVar()) {
        kind = "private";
      } else {
        kind = dataflow::privatizationStatusName(
            priv.statusOf(*cur, name));
        if (kind == "unused") kind = "shared";
      }
    }
    row.kind = kind;
    auto itR = classificationReasons_.find(current_);
    if (itR != classificationReasons_.end()) {
      auto itN = itR->second.find(name);
      if (itN != itR->second.end()) row.reason = itN->second;
    }
    if (varFilter_) {
      if (!varFilter_->kind.empty() &&
          row.kind.find(varFilter_->kind) == std::string::npos) {
        continue;
      }
      if (varFilter_->arraysOnly && row.dim == 0) continue;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Filters
// ---------------------------------------------------------------------------

void Session::setDependenceFilter(DependenceFilter f) {
  depFilter_ = std::move(f);
  ++counters_.viewFilterUses;
}
void Session::clearDependenceFilter() { depFilter_.reset(); }
void Session::setSourceFilter(SourceFilter f) {
  srcFilter_ = std::move(f);
  ++counters_.viewFilterUses;
}
void Session::clearSourceFilter() { srcFilter_.reset(); }
void Session::setVariableFilter(VariableFilter f) {
  varFilter_ = std::move(f);
  ++counters_.viewFilterUses;
}
void Session::clearVariableFilter() { varFilter_.reset(); }

// ---------------------------------------------------------------------------
// Marking & classification
// ---------------------------------------------------------------------------

bool Session::markDependence(std::uint32_t id, dep::DepMark mark,
                             const std::string& reason,
                             const std::string& origin) {
  transform::Workspace& ws = wsFor(current_);
  dep::Dependence* d = ws.graph->byId(id);
  if (!d) return false;
  if (d->mark == dep::DepMark::Proven && mark == dep::DepMark::Rejected) {
    // PED only lets users reject *pending* dependences; proven ones exist.
    return false;
  }
  d->mark = mark;
  d->reason = reason;
  // A re-mark supersedes any validation evidence attached to the old mark.
  d->evidence.clear();
  marks_[markKey(*d, *ws.model)] = {mark, reason, origin, deckName_, ""};
  if (mark == dep::DepMark::Rejected) ++counters_.dependenceDeletions;
  return true;
}

int Session::markAllMatching(const DependenceFilter& f, dep::DepMark mark,
                             const std::string& reason,
                             const std::string& origin) {
  transform::Workspace& ws = wsFor(current_);
  Loop* cur = currentLoop_ != fortran::kInvalidStmt
                  ? ws.loopOf(currentLoop_)
                  : nullptr;
  int n = 0;
  for (auto& d : ws.graph->allMutable()) {
    if (cur && !(cur->contains(d.srcStmt) && cur->contains(d.dstStmt))) {
      continue;
    }
    if (f.type && d.type != *f.type) continue;
    if (!f.variable.empty() && d.variable != f.variable) continue;
    if (f.mark && d.mark != *f.mark) continue;
    if (f.carriedOnly && d.loopCarried() != *f.carriedOnly) continue;
    if (d.mark == dep::DepMark::Proven && mark == dep::DepMark::Rejected) {
      continue;
    }
    d.mark = mark;
    d.reason = reason;
    d.evidence.clear();
    marks_[markKey(d, *ws.model)] = {mark, reason, origin, deckName_, ""};
    ++n;
    if (mark == dep::DepMark::Rejected) ++counters_.dependenceDeletions;
  }
  return n;
}

bool Session::classifyVariable(const std::string& name, bool asPrivate,
                               const std::string& reason) {
  if (currentLoop_ == fortran::kInvalidStmt) return false;
  transform::Workspace& ws = wsFor(current_);
  if (!ws.loopOf(currentLoop_)) return false;
  overrides_[current_][currentLoop_][name] = asPrivate;
  classificationReasons_[current_][name] = reason;
  (void)analyze({&ws.proc}, nullptr);  // the fresh context reads overrides_
  ++counters_.variableClassifications;
  return true;
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

bool Session::addAssertion(const std::string& payload) {
  auto a = parseAssertion(payload, diags_);
  if (!a) return false;
  assertions_.push_back(std::move(*a));
  // Incremental: rebuild only materialized workspaces with the new facts.
  // The memo needs no invalidation: the new facts are in the key of every
  // test they can affect, so those miss and everything else still hits.
  rebuildMaterialized();
  ++counters_.assertionsAdded;
  return true;
}

// ---------------------------------------------------------------------------
// Access to analysis & guidance
// ---------------------------------------------------------------------------

std::string Session::explainLoop(StmtId loopId) {
  transform::Workspace& ws = wsFor(current_);
  Loop* loop = ws.loopOf(loopId);
  if (!loop) return "not a loop";
  ++counters_.analysisQueries;
  std::ostringstream out;
  out << "loop " << fortran::stmtHeadline(*loop->stmt) << ":\n";
  auto inhibitors = ws.graph->parallelismInhibitors(*loop);
  if (inhibitors.empty()) {
    out << "  parallelizable (no active loop-carried dependences)\n";
  } else {
    for (const auto* d : inhibitors) {
      out << "  " << dep::depTypeName(d->type) << " dependence on "
          << d->variable << " " << d->vector.str() << " ["
          << dep::depMarkName(d->mark) << "]";
      if (d->interprocedural) out << " (interprocedural)";
      out << "\n";
    }
  }
  // Which of Table 3's "needed" analyses would help here?
  auto kills = interproc::findArrayKills(*ws.model, *ws.graph, &ws.actx);
  for (const auto& k : kills) {
    if (k.loop == loopId) {
      out << "  array kill analysis: " << k.array
          << " is killed every iteration (privatizable"
          << (k.interprocedural ? ", interprocedural" : "") << ")\n";
    }
  }
  const auto* red =
      transform::Registry::instance().byName("Reduction Recognition");
  transform::Target t;
  t.loop = loopId;
  auto ra = red->advise(ws, t);
  if (ra.applicable && ra.safe) {
    out << "  reduction: " << ra.explanation << "\n";
  }
  for (const auto* d : inhibitors) {
    if (!d->srcRef && !d->dstRef) continue;
    auto hasIndexArray = [](const Expr* e) {
      if (!e) return false;
      bool found = false;
      for (const auto& sub : e->args) {
        sub->forEach([&](const Expr& inner) {
          if (inner.kind == ExprKind::ArrayRef) found = true;
        });
      }
      return found;
    };
    if (hasIndexArray(d->srcRef) || hasIndexArray(d->dstRef)) {
      out << "  index array in subscripts of " << d->variable
          << ": consider ASSERT PERMUTATION / STRIDED / SEPARATED\n";
      break;
    }
  }
  return out.str();
}

std::string Session::showSummary(const std::string& procName) {
  ++counters_.analysisQueries;
  (void)analyze({}, nullptr);  // summaries are computed on first use
  const interproc::ProcSummary* s = summaries_->summaryOf(procName);
  if (!s) return "no summary for " + procName;
  std::ostringstream out;
  out << "summary of " << procName << ":\n";
  for (const auto& [var, eff] : s->effects) {
    out << "  " << var << ":";
    if (eff.mayRead) out << " REF";
    if (eff.mayWrite) out << " MOD";
    if (eff.kills) out << " KILL";
    if (eff.readSection) out << " read " << eff.readSection->str();
    if (eff.writeSection) out << " write " << eff.writeSection->str();
    out << "\n";
  }
  return out.str();
}

std::vector<Session::GuidanceEntry> Session::guidance(StmtId loopId,
                                                      bool safeOnly) {
  transform::Workspace& ws = wsFor(current_);
  Loop* loop = ws.loopOf(loopId);
  std::vector<GuidanceEntry> out;
  if (!loop) return out;

  // Candidate targets per transformation shape.
  std::set<std::string> scalars, arrays;
  for (const Stmt* s : loop->bodyStmts) {
    for (const ir::Ref& r : ir::collectRefs(*s)) {
      const fortran::VarDecl* d = ws.proc.findDecl(r.name);
      if (d && d->isArray()) {
        arrays.insert(r.name);
      } else if (r.name != loop->inductionVar()) {
        scalars.insert(r.name);
      }
    }
  }
  // Adjacent sibling loop (fusion candidate).
  StmtId sibling = fortran::kInvalidStmt;
  {
    std::size_t idx = 0;
    auto* container = ws.model->containerOf(loopId, &idx);
    if (container && idx + 1 < container->size() &&
        (*container)[idx + 1]->kind == StmtKind::Do) {
      sibling = (*container)[idx + 1]->id;
    }
  }

  auto consider = [&](const std::string& name, transform::Target t) {
    const auto* tr = transform::Registry::instance().byName(name);
    if (!tr) return;
    transform::Advice a = tr->advise(ws, t);
    if (!a.applicable) return;
    if (safeOnly && !(a.safe && a.profitable)) return;
    out.push_back({name, std::move(t), std::move(a)});
  };

  for (const auto* tr : transform::Registry::instance().all()) {
    const std::string name = tr->name();
    if (name == "Loop Fusion") {
      if (sibling != fortran::kInvalidStmt) {
        transform::Target t;
        t.loop = loopId;
        t.secondLoop = sibling;
        consider(name, std::move(t));
      }
      continue;
    }
    if (name == "Privatization" || name == "Scalar Expansion") {
      for (const auto& v : scalars) {
        transform::Target t;
        t.loop = loopId;
        t.variable = v;
        consider(name, std::move(t));
      }
      continue;
    }
    if (name == "Array Renaming" || name == "Scalar Replacement") {
      for (const auto& v : arrays) {
        transform::Target t;
        t.loop = loopId;
        t.variable = v;
        consider(name, std::move(t));
      }
      continue;
    }
    if (name == "Arithmetic IF Removal" ||
        name == "Control Flow Structuring") {
      for (const Stmt* s : loop->bodyStmts) {
        if (s->kind == StmtKind::ArithmeticIf ||
            (s->kind == StmtKind::If && s->isLogicalIf)) {
          transform::Target t;
          t.stmt = s->id;
          consider(name, std::move(t));
        }
      }
      continue;
    }
    if (name == "Loop Extraction") {
      for (const Stmt* s : loop->bodyStmts) {
        if (s->kind == StmtKind::Call) {
          transform::Target t;
          t.stmt = s->id;
          consider(name, std::move(t));
        }
      }
      continue;
    }
    if (name == "Statement Deletion" || name == "Statement Addition" ||
        name == "Statement Interchange" ||
        name == "Loop Bounds Adjusting") {
      continue;  // editor-level; not part of loop guidance
    }
    transform::Target t;
    t.loop = loopId;
    consider(name, std::move(t));
  }

  // Profitable and safe first.
  std::stable_sort(out.begin(), out.end(),
                   [](const GuidanceEntry& a, const GuidanceEntry& b) {
                     auto rank = [](const transform::Advice& ad) {
                       return (ad.safe ? 2 : 0) + (ad.profitable ? 1 : 0);
                     };
                     return rank(a.advice) > rank(b.advice);
                   });
  return out;
}

bool Session::applyTransformation(const std::string& name,
                                  const transform::Target& target,
                                  std::string* error) {
  transform::Workspace& ws = wsFor(current_);
  const auto* tr = transform::Registry::instance().byName(name);
  if (!tr) {
    if (error) *error = "unknown transformation " + name;
    recordFailure(name, "unknown transformation", false);
    return false;
  }

  // Transactional apply: a transformation mutates only this workspace's
  // unit and may append units, so the unit's snapshot lets any failure —
  // the transformation's own, an injected fault, or a post-apply audit
  // violation — restore the exact pre-apply state. Power steering must
  // never leave a broken program.
  Snapshot snap = takeSnapshot(ws.proc);
  std::string localError;
  if (!error) error = &localError;

  bool ok = tr->apply(ws, target, error);

  if (fault_ == Fault::MidApply) {
    // Simulate a transformation that mutated the program and then died
    // mid-flight: leave garbage behind (duplicate-id statement) and fail.
    fault_ = Fault::None;
    auto junk = fortran::makeStmt(StmtKind::Continue, {});
    junk->id = ws.proc.body.empty() ? 1 : ws.proc.body.front()->id;
    ws.proc.body.push_back(std::move(junk));
    *error = "injected fault: apply aborted mid-flight";
    ok = false;
  }

  if (!ok) {
    // The mechanics may have partially mutated before failing; restore
    // unconditionally so the graph and source are byte-identical to the
    // pre-apply state.
    restoreSnapshot(std::move(snap));
    recordFailure(name, *error, true);
    return false;
  }

  reapplyMarks(ws);
  if (!finishChange(name, snap, /*analyzed=*/true, error)) return false;
  ++counters_.transformationsApplied;
  return true;
}

// ---------------------------------------------------------------------------
// Editing
// ---------------------------------------------------------------------------

namespace {

/// Parse one statement in the declaration context of `proc`: the incremental
/// parser of the source pane. Synthesizes a scratch unit carrying the
/// procedure's declarations so array references parse as ArrayRefs.
fortran::StmtPtr parseStatementInContext(const Procedure& proc,
                                         const std::string& text,
                                         DiagnosticEngine& diags) {
  std::string src = "      SUBROUTINE EDITCTX\n";
  for (const auto& d : proc.decls) {
    if (d.isParameter) continue;
    src += "      ";
    src += fortran::typeName(d.type);
    src += ' ' + d.name;
    if (d.isArray()) {
      src += '(';
      for (std::size_t i = 0; i < d.dims.size(); ++i) {
        if (i) src += ", ";
        src += d.dims[i].upper ? fortran::printExpr(*d.dims[i].upper) : "*";
      }
      src += ')';
    }
    src += '\n';
  }
  src += "      " + text + "\n      END\n";
  DiagnosticEngine local;
  auto prog = fortran::parseSource(src, local);
  if (local.hasErrors() || prog->units.empty() ||
      prog->units[0]->body.empty()) {
    diags.error({}, "statement does not parse: " + text + "\n" +
                        local.dump());
    return nullptr;
  }
  fortran::StmtPtr out = std::move(prog->units[0]->body.front());
  // The scratch program minted its own ids; clear them so the edit numbers
  // the statement in the real program.
  out->forEachMutable(
      [](fortran::Stmt& s) { s.id = fortran::kInvalidStmt; });
  return out;
}

}  // namespace

void Session::updateDerived(Procedure& unit, bool analyzed) {
  // Update the interprocedural summaries in place (oracles hold references
  // into the builder, so they stay valid) and compute the invalidated set:
  // the changed unit, every procedure with a call site whose callee
  // summary actually changed, and — below — every materialized workspace
  // whose inherited facts moved (the census can shift without any summary
  // changing, e.g. a COMMON variable losing its single-assignment status).
  interproc::SummaryBuilder::Update up = summaries_->applyEdit({unit.name});
  if (up.structureChanged) {
    for (const auto& u : program_->units) pendingDirty_.insert(u->name);
  } else {
    // The gate re-analyzed a transformed unit already, under the facts it
    // inherited before the change: like every other workspace outside the
    // dirty set, it is stale only when those moved.
    if (analyzed) up.staleAnalyses.erase(unit.name);
    pendingDirty_.insert(up.staleAnalyses.begin(), up.staleAnalyses.end());
    // Every materialized workspace outside the dirty set holds the facts
    // the builder had before this change, so only procedures whose
    // inherited inputs moved can differ: those with changed formal
    // constants and, when the census moved, every COMMON user.
    std::set<std::string> moved = std::move(up.formalConstantsChanged);
    if (up.globalFactsChanged) {
      for (const auto& [name, w] : workspaces_) {
        if (summaries_->usesGlobalFacts(w->proc)) moved.insert(name);
      }
    }
    for (const std::string& name : moved) {
      auto it = workspaces_.find(name);
      if (it == workspaces_.end() || pendingDirty_.count(name)) continue;
      const transform::Workspace& w = *it->second;
      if (w.actx.inheritedConstants !=
              summaries_->inheritedConstantsFor(w.proc) ||
          w.actx.inheritedRelations !=
              summaries_->inheritedRelationsFor(w.proc)) {
        pendingDirty_.insert(name);
      }
    }
  }

  if (!deferredAnalysis_) {
    settleEdits();
    return;
  }
  // Panes, containerOf and the auditor need a statement model over the
  // changed unit (the gate built a transformed unit's); the expensive
  // part — the dependence graphs — is what stays pending until
  // settleEdits()/analyzeParallel().
  if (!analyzed) {
    workspaces_.at(unit.name)->model =
        std::make_unique<ir::ProcedureModel>(unit);
  }
}

bool Session::finishChange(const std::string& operation, Snapshot& snap,
                           bool analyzed, std::string* error) {
  updateDerived(*snap.unit, analyzed);
  corruptIfArmed(*snap.unit);
  const audit::Report rep = auditNow(false);
  if (rep.ok()) return true;
  restoreSnapshot(std::move(snap));
  recordFailure(operation, "audit violation: " + rep.str(), true);
  if (error) {
    *error = "invariant audit failed after " + operation +
             " (rolled back): " + rep.str();
  }
  return false;
}

bool Session::editStatement(StmtId id, const std::string& newText) {
  transform::Workspace& ws = wsForEdit(current_);
  std::size_t index = 0;
  auto* container = ws.model->containerOf(id, &index);
  if (!container) {
    recordFailure("editStatement", "no statement " + std::to_string(id),
                  false);
    return false;
  }
  fortran::StmtPtr fresh =
      parseStatementInContext(ws.proc, newText, diags_);
  if (!fresh) {
    // Parse failed before any mutation: diagnostics-only failure.
    recordFailure("editStatement", "does not parse: " + newText, false);
    return false;
  }
  Snapshot snap = takeSnapshot(ws.proc);
  fresh->label = (*container)[index]->label;  // labels survive edits
  (*container)[index] = std::move(fresh);
  program_->assignIds(ws.proc);
  return finishChange("editStatement", snap, /*analyzed=*/false, nullptr);
}

bool Session::insertStatementAfter(StmtId id, const std::string& text) {
  transform::Workspace& ws = wsForEdit(current_);
  std::size_t index = 0;
  auto* container = ws.model->containerOf(id, &index);
  if (!container) {
    recordFailure("insertStatementAfter",
                  "no statement " + std::to_string(id), false);
    return false;
  }
  fortran::StmtPtr fresh = parseStatementInContext(ws.proc, text, diags_);
  if (!fresh) {
    recordFailure("insertStatementAfter", "does not parse: " + text, false);
    return false;
  }
  Snapshot snap = takeSnapshot(ws.proc);
  container->insert(container->begin() + static_cast<long>(index + 1),
                    std::move(fresh));
  program_->assignIds(ws.proc);
  return finishChange("insertStatementAfter", snap, /*analyzed=*/false,
                      nullptr);
}

bool Session::deleteStatement(StmtId id) {
  transform::Workspace& ws = wsForEdit(current_);
  std::size_t index = 0;
  auto* container = ws.model->containerOf(id, &index);
  if (!container) {
    recordFailure("deleteStatement", "no statement " + std::to_string(id),
                  false);
    return false;
  }
  Snapshot snap = takeSnapshot(ws.proc);
  container->erase(container->begin() + static_cast<long>(index));
  return finishChange("deleteStatement", snap, /*analyzed=*/false, nullptr);
}

// ---------------------------------------------------------------------------
// Performance
// ---------------------------------------------------------------------------

std::vector<LoopEstimate> Session::hotLoops() {
  ++counters_.programNavigations;
  // Each procedure's cost after its callees', so call sites charge
  // realistic amounts; a procedure on or above a recursive cycle has no
  // cost entry, and its call sites charge the default.
  const interproc::CallGraph& cg = summaries_->callGraph();
  std::map<std::string, double> procCosts;
  std::function<void(const std::string&)> cost = [&](const std::string& name) {
    if (procCosts.count(name) || cg.isRecursive(name) ||
        !program_->findUnit(name)) {
      return;
    }
    for (const std::string& callee : cg.calleesOf(name)) cost(callee);
    PerformanceEstimator est(*wsFor(name).model, {}, &procCosts);
    procCosts[name] = est.procedureCost();
  };
  for (const auto& u : program_->units) cost(u->name);
  std::vector<LoopEstimate> all;
  double grand = 0.0;
  for (const auto& u : program_->units) {
    transform::Workspace& ws = wsFor(u->name);
    PerformanceEstimator est(*ws.model, {}, &procCosts);
    grand += est.procedureCost();
    for (const auto& e : est.loops()) all.push_back(e);
  }
  for (auto& e : all) e.fraction = grand > 0 ? e.cost / grand : 0;
  std::sort(all.begin(), all.end(),
            [](const LoopEstimate& a, const LoopEstimate& b) {
              return a.cost > b.cost;
            });
  return all;
}

interp::RunResult Session::profile(const interp::RunOptions& opts) {
  interp::Machine m(*program_);
  return m.run(opts);
}

// ---------------------------------------------------------------------------
// OpenMP emission
// ---------------------------------------------------------------------------

std::string Session::dependenceSnapshot() {
  settleEdits();
  std::ostringstream os;
  for (const auto& u : program_->units) {
    transform::Workspace& ws = wsFor(u->name);
    os << "== " << u->name << "\n";
    for (const dep::Dependence& d : ws.graph->all()) {
      os << d.id << " " << dep::depTypeName(d.type) << " "
         << (d.variable.empty() ? "<control>" : d.variable) << " stmt"
         << d.srcStmt << "->stmt" << d.dstStmt << " level=" << d.level
         << " carrier=" << d.carrierLoop << " common=" << d.commonLoop
         << " vec=" << d.vector.str() << " mark=" << dep::depMarkName(d.mark)
         << " origin=" << static_cast<int>(d.origin)
         << " interproc=" << d.interprocedural << " degraded=" << d.degraded
         << "\n";
    }
  }
  return os.str();
}

emit::EmissionReport Session::emitOpenMP(const emit::EmitOptions& opts) {
  // Emission reads the CURRENT graphs and markings.
  settleEdits();
  std::vector<emit::ProcedureContext> contexts;
  for (const auto& u : program_->units) {
    transform::Workspace& ws = wsFor(u->name);
    auto ovIt = overrides_.find(u->name);
    contexts.push_back({u.get(), ws.model.get(), ws.graph.get(),
                        ovIt != overrides_.end() ? &ovIt->second : nullptr});
  }
  emit::EmissionReport rep = emit::emitDeck(
      *program_, contexts, opts,
      [](const std::string& text, int threads) -> std::optional<std::string> {
        DiagnosticEngine diags;
        auto fresh = Session::load(text, diags);
        if (!fresh) return std::nullopt;
        (void)fresh->analyzeParallel(threads);
        return fresh->dependenceSnapshot();
      });
  rep.deck = deckName_;

  // Structured refusal reports. Zero silent drops: every refused loop
  // lands in failures() with its blocking edges or divergence.
  for (const auto& le : rep.loops) {
    if (le.emitted) continue;
    std::ostringstream os;
    os << le.procedure << " stmt" << le.loop << " [" << le.headline
       << "] refused: " << le.refusal;
    recordFailure("emitOpenMP", os.str(), /*rolledBack=*/false);
  }
  if (rep.roundTripChecked && !rep.roundTripOk) {
    recordFailure("emitOpenMP", "round-trip failed: " + rep.roundTripDetail,
                  /*rolledBack=*/false);
  }
  lastEmission_ = rep;
  return rep;
}

// ---------------------------------------------------------------------------
// Interface checking (Composition Editor)
// ---------------------------------------------------------------------------

std::vector<std::string> Session::checkInterfaces() {
  ++counters_.interfaceErrorChecks;
  std::vector<std::string> problems;
  // Call-site vs declaration.
  for (const auto& site : summaries_->callGraph().callSites()) {
    const Procedure* callee = program_->findUnit(site.callee);
    if (!callee) continue;  // library routine
    const Stmt* s = site.stmt;
    if (s->kind != StmtKind::Call) continue;
    if (s->args.size() != callee->params.size()) {
      problems.push_back(site.caller + " line " +
                         std::to_string(s->loc.line) + ": call to " +
                         site.callee + " passes " +
                         std::to_string(s->args.size()) + " args, " +
                         site.callee + " declares " +
                         std::to_string(callee->params.size()));
      continue;
    }
    const Procedure* caller = program_->findUnit(site.caller);
    for (std::size_t i = 0; i < s->args.size(); ++i) {
      const Expr& a = *s->args[i];
      const fortran::VarDecl* formal = callee->findDecl(callee->params[i]);
      if (!formal) continue;
      fortran::TypeKind actualType = fortran::TypeKind::Unknown;
      if (a.kind == ExprKind::VarRef || a.kind == ExprKind::ArrayRef) {
        const fortran::VarDecl* d =
            caller ? caller->findDecl(a.name) : nullptr;
        actualType = d ? d->type : fortran::implicitType(a.name);
      } else if (a.kind == ExprKind::IntConst) {
        actualType = fortran::TypeKind::Integer;
      } else if (a.kind == ExprKind::RealConst) {
        actualType = fortran::TypeKind::Real;
      }
      auto norm = [](fortran::TypeKind t) {
        return t == fortran::TypeKind::DoublePrecision
                   ? fortran::TypeKind::Real
                   : t;
      };
      if (actualType != fortran::TypeKind::Unknown &&
          norm(actualType) != norm(formal->type)) {
        problems.push_back(
            site.caller + " line " + std::to_string(s->loc.line) +
            ": argument " + std::to_string(i + 1) + " of " + site.callee +
            " is " + fortran::typeName(actualType) + ", formal " +
            callee->params[i] + " is " + fortran::typeName(formal->type));
      }
    }
  }
  // COMMON shape agreement across units.
  std::map<std::string, std::pair<std::string, std::vector<std::string>>>
      firstSeen;  // block -> (unit, member names)
  for (const auto& u : program_->units) {
    std::map<std::string, std::vector<std::string>> blocks;
    for (const auto& d : u->decls) {
      if (!d.commonBlock.empty()) blocks[d.commonBlock].push_back(d.name);
    }
    for (const auto& [block, members] : blocks) {
      auto it = firstSeen.find(block);
      if (it == firstSeen.end()) {
        firstSeen[block] = {u->name, members};
      } else if (it->second.second.size() != members.size()) {
        problems.push_back("COMMON /" + block + "/ has " +
                           std::to_string(it->second.second.size()) +
                           " members in " + it->second.first + " but " +
                           std::to_string(members.size()) + " in " +
                           u->name);
      }
    }
  }
  return problems;
}

}  // namespace ps::ped
