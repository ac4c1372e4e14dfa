// Session::validateDeletions: trace-backed checking of the session's
// deleted and pending dependence edges, and relative execution of the
// loops its deletions make parallel (validate/validate.h). Refuted
// deletions are restored in the graphs and in the session's mark table.

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>

#include "ped/session.h"

namespace ps::ped {

namespace {

/// The questioned-edge view of `d`, a dependence of `proc`.
validate::EdgeQuery queryOf(const std::string& proc,
                            const dep::Dependence& d) {
  validate::EdgeQuery q;
  q.procedure = proc;
  q.depId = d.id;
  q.type = d.type;
  q.srcStmt = d.srcStmt;
  q.dstStmt = d.dstStmt;
  q.variable = d.variable;
  q.level = d.level;
  q.carrierLoop = d.carrierLoop;
  q.mark = d.mark;
  return q;
}

}  // namespace

validate::ValidationReport Session::validateDeletions(
    const ValidationOptions& opts) {
  using Clock = std::chrono::steady_clock;
  // Validation judges the CURRENT graphs: settle deferred edits first so a
  // stale graph cannot mislabel an edge.
  settleEdits();
  validate::ValidationReport rep;
  unvalidatedDeletions_.clear();

  interp::Trace trace;
  trace.limits.maxEvents = opts.budget.maxEvents;
  trace.limits.maxElements = opts.budget.maxElements;
  interp::RunOptions ro = opts.run;
  ro.checkParallel = false;  // the serial reference semantics
  ro.trace = &trace;

  const auto t0 = Clock::now();
  interp::RunResult serial;
  {
    interp::Machine m(*program_);
    serial = m.run(ro);
  }
  rep.traceSeconds = std::chrono::duration<double>(Clock::now() - t0).count();
  rep.events = static_cast<long long>(trace.events.size());
  rep.traceComplete = trace.complete();
  rep.uninitReads = trace.uninitReadCount;

  // Attach evidence to an edge and to its mark record, so it persists
  // through savePdb/openWarm and survives re-analysis.
  auto setEvidence = [&](const transform::Workspace& ws, dep::Dependence& d,
                         std::string evidence) {
    d.evidence = std::move(evidence);
    auto it = marks_.find(markKey(d, *ws.model));
    if (it != marks_.end()) it->second.evidence = d.evidence;
  };

  // Tag one deleted edge as explicitly unchecked: evidence on the edge and
  // its mark record, plus a DegradationReport::unvalidated row.
  auto tagUnvalidated = [&](const transform::Workspace& ws,
                            dep::Dependence& d, const std::string& why) {
    setEvidence(ws, d, "unvalidated: " + why);
    unvalidatedDeletions_.push_back({ws.proc.name, d.id,
                                     dep::depTypeName(d.type), d.variable,
                                     d.level});
    ++rep.unvalidated;
  };

  // Auto-restore one refuted deletion, naming the deletion's provenance
  // (who deleted it, in which deck, and their stated reason) in the
  // structured failure report.
  auto restoreDeletion = [&](const transform::Workspace& ws,
                             dep::Dependence& d, const std::string& evidence,
                             const std::string& how) {
    const std::string& proc = ws.proc.name;
    const MarkKey sig = markKey(d, *ws.model);
    std::string origin = "user";
    std::string deck = deckName_;
    std::string why = d.reason;
    auto it = marks_.find(sig);
    if (it != marks_.end()) {
      if (!it->second.origin.empty()) origin = it->second.origin;
      if (!it->second.deck.empty()) deck = it->second.deck;
      if (!it->second.reason.empty()) why = it->second.reason;
    }
    std::ostringstream os;
    os << "unsound deletion auto-restored: " << proc << " dep#" << d.id
       << ' ' << dep::depTypeName(d.type) << " on " << d.variable << " stmt"
       << d.srcStmt << "->stmt" << d.dstStmt << " level " << d.level
       << " (deleted by " << origin;
    if (!deck.empty()) os << " in deck '" << deck << '\'';
    if (!why.empty()) os << ", reason: " << why;
    os << "); " << evidence;
    recordFailure("validateDeletions", os.str(), /*rolledBack=*/true);
    d.mark = dep::DepMark::Pending;
    d.reason = "auto-restored: " + how;
    d.evidence = evidence;
    // The mark record must flip too, or the next reapplyMarks would
    // re-reject the edge this pass just restored.
    marks_[sig] = {dep::DepMark::Pending, d.reason, "validator", deckName_,
                   evidence};
    // No longer an unchecked deletion, whatever an earlier phase recorded.
    unvalidatedDeletions_.erase(
        std::remove_if(unvalidatedDeletions_.begin(),
                       unvalidatedDeletions_.end(),
                       [&](const DegradationReport::Edge& e) {
                         return e.procedure == proc && e.depId == d.id;
                       }),
        unvalidatedDeletions_.end());
  };

  if (!serial.ok) {
    rep.error = serial.error;
    rep.errorStmt = serial.errorStmt;
    // The input never ran to completion, so nothing dynamic can be
    // concluded: every deletion degrades to an explicit unvalidated tag.
    for (const auto& u : program_->units) {
      transform::Workspace& ws = wsFor(u->name);
      for (auto& d : ws.graph->allMutable()) {
        if (d.mark != dep::DepMark::Rejected) continue;
        ++rep.checked;
        tagUnvalidated(ws, d, "trace run failed: " + serial.error);
      }
    }
    return rep;
  }
  rep.ran = true;

  const auto t1 = Clock::now();
  validate::TraceIndex index(trace);

  // (procedure, dep id) pairs the trace pass confirmed safe — the relative
  // phase never blanket-restores those.
  std::set<std::pair<std::string, std::uint32_t>> safe;

  for (const auto& u : program_->units) {
    const std::string& name = u->name;
    transform::Workspace& ws = wsFor(name);
    for (auto& d : ws.graph->allMutable()) {
      const bool rejected = d.mark == dep::DepMark::Rejected;
      if (!rejected && d.mark != dep::DepMark::Pending) continue;
      // Pending control edges are structural; the dynamic checks have
      // nothing to say about them, and reporting every one as unvalidated
      // would drown the findings. A *deleted* control edge is still tagged.
      if (d.type == dep::DepType::Control && !rejected) continue;

      validate::EdgeQuery q = queryOf(name, d);
      q.supported = !d.interprocedural && d.type != dep::DepType::Control &&
                    (d.origin == dep::DepOrigin::ArrayPair ||
                     d.origin == dep::DepOrigin::Scalar);
      if (d.commonLoop != fortran::kInvalidStmt) {
        if (ir::Loop* common = ws.model->loopByDoStmt(d.commonLoop)) {
          for (const ir::Loop* l : common->nestPath()) {
            q.commonLoops.push_back(l->stmt->id);
          }
        } else {
          q.supported = false;  // graph/model disagree: do not guess
        }
      }

      ++rep.checked;
      validate::Finding f;
      f.edge = q;
      std::string witness;
      if (q.supported && index.findWitness(q, &witness)) {
        f.evidence = "trace witness: " + witness;
        if (rejected) {
          f.verdict = validate::Verdict::RefutedDeletion;
          ++rep.refuted;
          restoreDeletion(ws, d, f.evidence,
                          "trace witness refutes deletion");
          ++rep.restored;
        } else {
          f.verdict = validate::Verdict::WitnessFound;
          d.evidence = f.evidence;
          ++rep.witnessedPending;
        }
      } else if (!q.supported) {
        f.verdict = validate::Verdict::Unvalidated;
        f.evidence = "edge shape unsupported by the trace matcher";
        if (rejected) {
          tagUnvalidated(ws, d, f.evidence);
        } else {
          ++rep.unvalidated;
        }
      } else if (!trace.complete()) {
        f.verdict = validate::Verdict::Unvalidated;
        f.evidence = "trace incomplete (budget overflow)";
        if (rejected) {
          tagUnvalidated(ws, d, f.evidence);
        } else {
          ++rep.unvalidated;
        }
      } else if (rejected) {
        f.verdict = validate::Verdict::ConfirmedSafe;
        f.evidence = "trace: no witness in " + std::to_string(rep.events) +
                     " events (complete trace)";
        setEvidence(ws, d, f.evidence);
        safe.insert({name, d.id});
        ++rep.confirmedSafe;
      } else {
        f.verdict = validate::Verdict::NoWitness;
        f.evidence = "trace: unobserved on this input";
        d.evidence = f.evidence;
        ++rep.noWitness;
      }
      rep.findings.push_back(std::move(f));
    }
  }

  // Relative execution: loops whose surviving deletions claim parallelism
  // get run under shuffled schedules and diffed against the serial output.
  // This catches unsound deletions the trace matcher could not attribute
  // (interprocedural summary edges, overflowed traces).
  if (opts.relativeChecks && opts.budget.maxRelativeChecks > 0) {
    struct Candidate {
      std::string proc;
      fortran::StmtId loop;
    };
    std::vector<Candidate> cands;
    for (const auto& u : program_->units) {
      transform::Workspace& ws = wsFor(u->name);
      for (const auto& l : ws.model->loops()) {
        bool hasDeleted = false;
        for (const auto& d : ws.graph->all()) {
          if (d.mark == dep::DepMark::Rejected && d.loopCarried() &&
              d.carrierLoop == l->stmt->id) {
            hasDeleted = true;
            break;
          }
        }
        // Only loops whose deletions actually claim parallelism: anywhere
        // else a deleted edge changes nothing the run could observe.
        if (hasDeleted && ws.graph->parallelizable(*l)) {
          cands.push_back({u->name, l->stmt->id});
        }
      }
    }
    const auto maxChecks =
        static_cast<std::size_t>(opts.budget.maxRelativeChecks);
    if (cands.size() > maxChecks) cands.resize(maxChecks);
    // Every candidate's schedules run concurrently; the graph updates
    // below then apply the results in candidate order.
    std::vector<validate::RelativeJob> jobs;
    for (const Candidate& c : cands) jobs.push_back({c.loop, opts.run});
    std::vector<validate::RelativeResult> results =
        validate::relativeCheckAll(*program_, jobs, serial,
                                   validate::kRelativeSchedules, opts.pool);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const Candidate& c = cands[i];
      validate::RelativeResult& rr = results[i];
      ++rep.relativeChecks;
      if (rr.diverged) {
        ++rep.relativeDivergences;
        transform::Workspace& ws = wsFor(c.proc);
        std::vector<dep::Dependence*> carried;
        for (auto& d : ws.graph->allMutable()) {
          if (d.mark == dep::DepMark::Rejected && d.loopCarried() &&
              d.carrierLoop == c.loop) {
            carried.push_back(&d);
          }
        }
        // Restore the deletions the divergence implicates: by race
        // variable when the detector named one, otherwise every deleted
        // edge on this loop the trace did not confirm safe (the divergence
        // proves at least one of them real but cannot say which).
        std::vector<dep::Dependence*> toRestore;
        if (!rr.raceVariables.empty()) {
          for (dep::Dependence* d : carried) {
            if (std::find(rr.raceVariables.begin(), rr.raceVariables.end(),
                          d->variable) != rr.raceVariables.end()) {
              toRestore.push_back(d);
            }
          }
        }
        if (toRestore.empty()) {
          for (dep::Dependence* d : carried) {
            if (!safe.count({c.proc, d->id})) toRestore.push_back(d);
          }
        }
        if (toRestore.empty()) toRestore = carried;
        for (dep::Dependence* d : toRestore) {
          validate::Finding f;
          f.edge = queryOf(c.proc, *d);
          f.verdict = validate::Verdict::RefutedDeletion;
          f.evidence = "relative execution: " + rr.detail;
          ++rep.refuted;
          restoreDeletion(ws, *d, f.evidence,
                          "relative execution diverged");
          ++rep.restored;
          safe.erase({c.proc, d->id});
          rep.findings.push_back(std::move(f));
        }
      }
      rep.relative.push_back(std::move(rr));
    }
  }

  rep.validateSeconds =
      std::chrono::duration<double>(Clock::now() - t1).count();
  return rep;
}

}  // namespace ps::ped
