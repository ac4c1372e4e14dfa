#include "validate/validate.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <functional>
#include <map>
#include <sstream>

#include "support/taskpool.h"

namespace ps::validate {

const char* verdictName(Verdict v) {
  switch (v) {
    case Verdict::RefutedDeletion: return "refuted-deletion";
    case Verdict::ConfirmedSafe: return "confirmed-safe";
    case Verdict::WitnessFound: return "witness-found";
    case Verdict::NoWitness: return "no-witness";
    case Verdict::Unvalidated: return "unvalidated";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TraceIndex
// ---------------------------------------------------------------------------

TraceIndex::TraceIndex(const interp::Trace& trace) : trace_(&trace) {
  for (std::uint32_t i = 0;
       i < static_cast<std::uint32_t>(trace.events.size()); ++i) {
    byStmt_[trace.events[i].stmt].push_back(i);
  }
}

namespace {

/// Per-element running state for the carried-edge sweep: the smallest
/// carrier iteration any src-role access has occurred in so far.
struct CarriedSeen {
  long long minIter = LLONG_MAX;
  std::uint32_t evIdx = 0;
};

}  // namespace

bool TraceIndex::findWitness(const EdgeQuery& q,
                             std::string* evidence) const {
  if (!q.supported) return false;
  bool srcWrite = false, dstWrite = false;
  switch (q.type) {
    case dep::DepType::True: srcWrite = true; dstWrite = false; break;
    case dep::DepType::Anti: srcWrite = false; dstWrite = true; break;
    case dep::DepType::Output: srcWrite = true; dstWrite = true; break;
    case dep::DepType::Input: srcWrite = false; dstWrite = false; break;
    case dep::DepType::Control: return false;
  }
  const auto itS = byStmt_.find(q.srcStmt);
  const auto itD = byStmt_.find(q.dstStmt);
  if (itS == byStmt_.end() || itD == byStmt_.end()) return false;
  const std::vector<std::uint32_t>& S = itS->second;
  const std::vector<std::uint32_t>& D = itD->second;
  const auto& ev = trace_->events;
  const bool carried =
      q.level > 0 && q.carrierLoop != fortran::kInvalidStmt;

  // Per-element sweep state. Keys are dense element ids.
  std::unordered_map<std::uint32_t, CarriedSeen> carriedSeen;
  std::unordered_map<std::uint32_t,
                     std::map<std::vector<long long>, std::uint32_t>>
      indepSeen;

  auto tupleOf = [&](const interp::TraceEvent& e,
                     std::vector<long long>* out) {
    out->clear();
    for (fortran::StmtId loop : q.commonLoops) {
      long long it = trace_->iterOf(e.ctx, loop);
      if (it < 0) return false;  // event outside a common loop: no pair
      out->push_back(it);
    }
    return true;
  };

  auto describe = [&](std::uint32_t srcIdx, std::uint32_t dstIdx) {
    const interp::TraceEvent& a = ev[srcIdx];
    const interp::TraceEvent& b = ev[dstIdx];
    std::ostringstream os;
    os << trace_->elementVar[a.element] << " element#" << a.element << ": "
       << (a.isWrite ? "write" : "read") << "@stmt" << a.stmt;
    if (carried) {
      os << " iter " << trace_->iterOf(a.ctx, q.carrierLoop);
    }
    os << " -> " << (b.isWrite ? "write" : "read") << "@stmt" << b.stmt;
    if (carried) {
      os << " iter " << trace_->iterOf(b.ctx, q.carrierLoop)
         << " of carrier loop stmt" << q.carrierLoop;
    } else {
      os << " same iteration (loop-independent)";
    }
    os << " [events " << srcIdx << "," << dstIdx << "]";
    return os.str();
  };

  std::vector<long long> tuple;

  // An event can close a witness as the dst role (against an earlier src)
  // and then open new ones as the src role — in that order, so an event
  // never pairs with itself when srcStmt == dstStmt.
  auto dstCheck = [&](std::uint32_t idx) -> bool {
    const interp::TraceEvent& e = ev[idx];
    if (e.isWrite != dstWrite) return false;
    if (carried) {
      const long long iter = trace_->iterOf(e.ctx, q.carrierLoop);
      if (iter < 0) return false;
      auto it = carriedSeen.find(e.element);
      if (it != carriedSeen.end() && it->second.minIter < iter) {
        if (evidence) *evidence = describe(it->second.evIdx, idx);
        return true;
      }
      return false;
    }
    if (!tupleOf(e, &tuple)) return false;
    auto it = indepSeen.find(e.element);
    if (it == indepSeen.end()) return false;
    auto jt = it->second.find(tuple);
    if (jt != it->second.end()) {
      if (evidence) *evidence = describe(jt->second, idx);
      return true;
    }
    return false;
  };

  auto srcUpdate = [&](std::uint32_t idx) {
    const interp::TraceEvent& e = ev[idx];
    if (e.isWrite != srcWrite) return;
    if (carried) {
      const long long iter = trace_->iterOf(e.ctx, q.carrierLoop);
      if (iter < 0) return;
      CarriedSeen& seen = carriedSeen[e.element];
      if (iter < seen.minIter) {
        seen.minIter = iter;
        seen.evIdx = idx;
      }
      return;
    }
    if (!tupleOf(e, &tuple)) return;
    indepSeen[e.element].emplace(tuple, idx);  // first occurrence wins
  };

  if (q.srcStmt == q.dstStmt) {
    for (std::uint32_t idx : S) {
      if (dstCheck(idx)) return true;
      srcUpdate(idx);
    }
    return false;
  }
  // Merge the two per-statement lists in global seq order.
  std::size_t i = 0, j = 0;
  while (i < S.size() || j < D.size()) {
    if (j >= D.size() || (i < S.size() && S[i] < D[j])) {
      srcUpdate(S[i++]);
    } else {
      if (dstCheck(D[j++])) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Relative execution
// ---------------------------------------------------------------------------

namespace {

/// What one shuffled schedule of one loop showed against the serial run.
struct ScheduleOutcome {
  bool diverged = false;
  std::string detail;
  std::vector<std::string> raceVariables;
};

/// Run schedule `k` of `loop`: the loop alone shuffled with its race
/// detector armed, every other loop sequential.
ScheduleOutcome runSchedule(const fortran::Program& program,
                            fortran::StmtId loop,
                            const interp::RunOptions& base,
                            const interp::RunResult& serial, int k) {
  interp::RunOptions o = base;
  o.trace = nullptr;
  o.checkParallel = true;
  o.shuffledLoop = loop;
  o.shuffleSeed =
      base.shuffleSeed + 0x9e3779b9u * static_cast<unsigned>(k + 1);
  interp::Machine m(program);
  const interp::RunResult r = m.run(o);
  ScheduleOutcome out;
  std::ostringstream os;
  if (!r.ok) {
    // The reordered schedule crashed a run the serial order completes:
    // that IS a divergence (e.g. a deleted dependence guarded an index).
    out.diverged = true;
    os << "schedule " << k << " failed at stmt" << r.errorStmt << ": "
       << r.error;
    out.detail = os.str();
    return out;
  }
  for (const interp::Race& race : r.races) {
    if (race.loop != loop) continue;
    out.diverged = true;
    out.raceVariables.push_back(race.variable);
    if (out.detail.empty()) {
      std::ostringstream ros;
      ros << "schedule " << k << ": cross-iteration "
          << (race.outputOnly ? "write-write" : "read-write")
          << " conflict on " << race.variable << " (iterations "
          << race.iterationA << "," << race.iterationB << ")";
      out.detail = ros.str();
    }
  }
  if (!serial.outputEquals(r)) {
    out.diverged = true;
    std::size_t at = 0;
    const std::size_t n = std::min(serial.output.size(), r.output.size());
    while (at < n && serial.output[at] == r.output[at]) ++at;
    os << "schedule " << k << ": output diverged at position " << at;
    if (at < n) {
      os << " (serial " << serial.output[at] << " vs parallel "
         << r.output[at] << ")";
    } else {
      os << " (lengths " << serial.output.size() << " vs "
         << r.output.size() << ")";
    }
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += os.str();
  }
  return out;
}

/// The result header for `loop`: ran=false when it names no DO statement.
RelativeResult startResult(const fortran::Program& program,
                           fortran::StmtId loop,
                           const interp::RunResult& serial) {
  RelativeResult rr;
  rr.loop = loop;
  bool found = false;
  for (const auto& u : program.units) {
    u->forEachStmt([&](const fortran::Stmt& s) {
      found = found || (s.id == loop && s.kind == fortran::StmtKind::Do);
    });
  }
  if (!found) {
    rr.detail = "loop statement not found";
    return rr;
  }
  rr.ran = true;
  if (auto it = serial.loopActivations.find(loop);
      it != serial.loopActivations.end()) {
    rr.serialExecutions = it->second;
  }
  return rr;
}

/// Take schedule outcomes in order up to the first divergence.
void assemble(RelativeResult& rr, std::vector<ScheduleOutcome>& outcomes) {
  for (ScheduleOutcome& o : outcomes) {
    if (!o.diverged) continue;
    rr.diverged = true;
    rr.detail = std::move(o.detail);
    rr.raceVariables = std::move(o.raceVariables);
    break;
  }
  std::sort(rr.raceVariables.begin(), rr.raceVariables.end());
  rr.raceVariables.erase(
      std::unique(rr.raceVariables.begin(), rr.raceVariables.end()),
      rr.raceVariables.end());
}

}  // namespace

RelativeResult relativeCheck(const fortran::Program& program,
                             fortran::StmtId loop,
                             const interp::RunOptions& base,
                             const interp::RunResult& serial,
                             int schedules) {
  support::TaskPool callingThread(1);
  return relativeCheckAll(program, {{loop, base}}, serial, schedules,
                          &callingThread)
      .front();
}

std::vector<RelativeResult> relativeCheckAll(
    const fortran::Program& program, const std::vector<RelativeJob>& jobs,
    const interp::RunResult& serial, int schedules, support::TaskPool* pool) {
  const std::size_t perJob = static_cast<std::size_t>(std::max(schedules, 0));
  std::vector<RelativeResult> results;
  std::vector<std::vector<ScheduleOutcome>> outcomes(jobs.size());
  // Earliest diverging schedule per job: a later schedule that has not
  // started yet is skipped, since assembly never looks past it.
  std::vector<std::atomic<int>> firstDiverged(jobs.size());
  std::vector<std::function<void()>> thunks;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    results.push_back(startResult(program, jobs[j].loop, serial));
    if (!results.back().ran) continue;
    outcomes[j].resize(perJob);
    firstDiverged[j].store(schedules, std::memory_order_relaxed);
    for (int k = 0; k < schedules; ++k) {
      thunks.push_back([&, j, k] {
        std::atomic<int>& first = firstDiverged[j];
        if (k > first.load(std::memory_order_relaxed)) return;
        ScheduleOutcome o =
            runSchedule(program, jobs[j].loop, jobs[j].base, serial, k);
        if (o.diverged) {
          int cur = first.load(std::memory_order_relaxed);
          while (k < cur && !first.compare_exchange_weak(
                                cur, k, std::memory_order_relaxed)) {
          }
        }
        outcomes[j][static_cast<std::size_t>(k)] = std::move(o);
      });
    }
  }
  if (!thunks.empty()) {
    if (pool) {
      pool->runAll(std::move(thunks));
    } else {
      support::TaskPool own(0);
      own.runAll(std::move(thunks));
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (results[j].ran) assemble(results[j], outcomes[j]);
  }
  return results;
}

// ---------------------------------------------------------------------------
// ValidationReport
// ---------------------------------------------------------------------------

std::string ValidationReport::str() const {
  std::ostringstream os;
  if (!ran) {
    os << "validation did not run: " << error;
    if (errorStmt != fortran::kInvalidStmt) os << " (stmt" << errorStmt << ")";
    return os.str();
  }
  os << "validated " << checked << " edge(s) against " << events
     << " trace event(s)" << (traceComplete ? "" : " [trace INCOMPLETE]")
     << ": " << refuted << " deletion(s) refuted (" << restored
     << " restored), " << confirmedSafe << " confirmed safe, "
     << witnessedPending << " pending witnessed, " << noWitness
     << " unobserved, " << unvalidated << " unvalidated";
  if (relativeChecks > 0) {
    os << "; relative execution: " << relativeDivergences << "/"
       << relativeChecks << " loop(s) diverged";
  }
  if (uninitReads > 0) {
    os << "; " << uninitReads << " suspected uninitialized read(s)";
  }
  for (const Finding& f : findings) {
    if (f.verdict == Verdict::RefutedDeletion) {
      os << "\n  REFUTED " << f.edge.procedure << " dep#" << f.edge.depId
         << " " << dep::depTypeName(f.edge.type) << " " << f.edge.variable
         << " stmt" << f.edge.srcStmt << "->stmt" << f.edge.dstStmt
         << " level=" << f.edge.level << ": " << f.evidence;
    }
  }
  for (const RelativeResult& r : relative) {
    if (r.diverged) {
      os << "\n  DIVERGED loop stmt" << r.loop << ": " << r.detail;
    }
  }
  return os.str();
}

}  // namespace ps::validate
