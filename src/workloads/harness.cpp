#include "workloads/harness.h"

#include <cctype>
#include <sstream>
#include <vector>

#include "dependence/graph.h"
#include "fortran/pretty.h"
#include "support/diagnostics.h"
#include "workloads/workloads.h"

namespace ps::workloads {

std::unique_ptr<ped::Session> loadDeck(const std::string& name) {
  const Workload* w = byName(name);
  if (!w) return nullptr;
  ps::DiagnosticEngine diags;
  auto session = ped::Session::load(w->source, diags);
  if (!session || diags.hasErrors()) return nullptr;
  session->setDeckName(name);
  return session;
}

std::string serializeDep(const dep::Dependence& d) {
  std::ostringstream os;
  os << d.id << ' ' << dep::depTypeName(d.type) << ' ' << d.srcStmt << "->"
     << d.dstStmt << ' ' << d.variable;
  if (d.srcRef) os << " src=" << fortran::printExpr(*d.srcRef);
  if (d.dstRef) os << " dst=" << fortran::printExpr(*d.dstRef);
  os << " level=" << d.level << " carrier=" << d.carrierLoop
     << " common=" << d.commonLoop << " vec=" << d.vector.str() << ' '
     << dep::depMarkName(d.mark) << " origin=" << static_cast<int>(d.origin)
     << " interproc=" << d.interprocedural << " degraded=" << d.degraded
     << " reason=" << d.reason;
  if (!d.evidence.empty()) os << " evidence=" << d.evidence;
  return os.str();
}

std::string analysisSnapshot(ped::Session& s) {
  std::ostringstream os;
  for (const std::string& name : s.procedureNames()) {
    if (!s.selectProcedure(name)) {
      os << "== " << name << " SELECT FAILED\n";
      continue;
    }
    os << "== " << name << '\n';
    for (const dep::Dependence& d : s.workspace().graph->all()) {
      os << serializeDep(d) << '\n';
    }
  }
  ped::DegradationReport rep = s.degradationReport();
  os << "degradation fm=" << rep.fmDegraded
     << " answers=" << rep.degradedAnswers
     << " linearize=" << rep.linearizeDegraded
     << " symbolic=" << rep.symbolicTruncated << '\n';
  for (const auto& e : rep.edges) {
    os << "degraded-edge " << e.procedure << ' ' << e.depId << ' ' << e.type
       << ' ' << e.variable << " level=" << e.level << '\n';
  }
  audit::Report audit = s.auditNow(true);
  os << "audit ok=" << audit.ok() << '\n';
  for (const auto& v : audit.violations) os << "violation " << v.str() << '\n';
  return os.str();
}

std::string callGraphDrift(ped::Session& s) {
  const interproc::CallGraph& live = s.summaries().callGraph();
  const interproc::CallGraph fresh = interproc::CallGraph::build(s.program());
  const auto& have = live.callSites();
  const auto& want = fresh.callSites();
  if (have.size() != want.size()) {
    return std::to_string(have.size()) + " sites, a fresh build has " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < have.size(); ++i) {
    if (have[i].caller != want[i].caller || have[i].callee != want[i].callee ||
        have[i].stmt != want[i].stmt) {
      return "site " + std::to_string(i) + " " + have[i].caller + "->" +
             have[i].callee + " differs from the fresh " + want[i].caller +
             "->" + want[i].callee + " (id " +
             std::to_string(want[i].stmt->id) + ")";
    }
  }
  if (live.bottomUpOrder() != fresh.bottomUpOrder()) return "bottom-up order";
  if (live.recursive() != fresh.recursive()) return "recursive set";
  if (live.unresolved() != fresh.unresolved()) return "unresolved callees";
  return "";
}

namespace {

std::size_t pick(Rng& rng, std::size_t n) {
  return n == 0 ? 0 : std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

}  // namespace

bool nextStep(ped::Session& s, Rng& rng, EditStep* step) {
  const std::vector<std::string> procs = s.procedureNames();
  // Try a few procedures before giving up (a deck could run out of
  // editable assignments after enough deletions).
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::string& proc = procs[pick(rng, procs.size())];
    if (!s.selectProcedure(proc)) continue;
    struct Cand {
      fortran::StmtId stmt;
      std::string text;
    };
    std::vector<Cand> cands;
    for (const auto& row : s.sourcePane()) {
      if (row.loopStart) continue;
      if (row.text.rfind("IF", 0) == 0) continue;
      if (row.text.rfind("CALL", 0) == 0) continue;
      if (row.text.rfind("GOTO", 0) == 0) continue;
      // Labeled statements may be branch targets; deleting or replacing
      // them is a different (checked) operation.
      if (!row.text.empty() &&
          std::isdigit(static_cast<unsigned char>(row.text[0]))) {
        continue;
      }
      std::size_t eq = row.text.find(" = ");
      if (eq == std::string::npos) continue;
      cands.push_back({row.stmt, row.text});
    }
    if (cands.empty()) continue;
    const Cand& c = cands[pick(rng, cands.size())];
    step->proc = proc;
    step->stmt = c.stmt;
    switch (pick(rng, 4)) {
      case 0:
      case 1: {
        // Rewrite: wrap the RHS so subscripts and the variable set are
        // preserved (the memo keys stay the same) but the statement text
        // and id move.
        std::size_t eq = c.text.find(" = ");
        step->kind = EditStep::Kind::Rewrite;
        step->text = c.text.substr(0, eq) + " = (" +
                     c.text.substr(eq + 3) + ")*2";
        break;
      }
      case 2:
        step->kind = EditStep::Kind::Insert;
        step->text = "QSTORM = QSTORM + 1";
        break;
      default:
        step->kind = EditStep::Kind::Delete;
        break;
    }
    return true;
  }
  return false;
}

bool applyStep(ped::Session& s, const EditStep& step) {
  if (!s.selectProcedure(step.proc)) return false;
  switch (step.kind) {
    case EditStep::Kind::Rewrite:
      return s.editStatement(step.stmt, step.text);
    case EditStep::Kind::Insert:
      return s.insertStatementAfter(step.stmt, step.text);
    case EditStep::Kind::Delete:
      return s.deleteStatement(step.stmt);
  }
  return false;
}

}  // namespace ps::workloads
