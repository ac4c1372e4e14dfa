#include "support/audit.h"

#include <algorithm>
#include <set>

#include "fortran/parser.h"
#include "fortran/pretty.h"
#include "support/bitset.h"

namespace ps::audit {

using fortran::Procedure;
using fortran::Program;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;

std::string Report::str() const {
  std::string out;
  for (const auto& v : violations) {
    out += v.str();
    out += '\n';
  }
  return out;
}

namespace {

const char* kindName(StmtKind k) {
  switch (k) {
    case StmtKind::Assign: return "Assign";
    case StmtKind::Do: return "Do";
    case StmtKind::If: return "If";
    case StmtKind::ArithmeticIf: return "ArithmeticIf";
    case StmtKind::Goto: return "Goto";
    case StmtKind::Call: return "Call";
    case StmtKind::Continue: return "Continue";
    case StmtKind::Return: return "Return";
    case StmtKind::Stop: return "Stop";
    case StmtKind::Read: return "Read";
    case StmtKind::Write: return "Write";
    case StmtKind::Assertion: return "Assertion";
  }
  return "?";
}

std::string where(const Procedure& proc, const Stmt& s) {
  return proc.name + " stmt#" + std::to_string(s.id) + " (" +
         kindName(s.kind) + " at " + s.loc.str() + ")";
}

void checkShape(const Procedure& proc, const Stmt& s, Report& out) {
  auto need = [&](bool cond, const char* what) {
    if (!cond) {
      out.add("ast-shape", where(proc, s) + " missing " + what);
    }
  };
  switch (s.kind) {
    case StmtKind::Assign:
      need(s.lhs != nullptr, "lhs");
      need(s.rhs != nullptr, "rhs");
      break;
    case StmtKind::Do:
      need(!s.doVar.empty(), "induction variable");
      need(s.doLo != nullptr, "lower bound");
      need(s.doHi != nullptr, "upper bound");
      break;
    case StmtKind::If:
      need(!s.arms.empty(), "arms");
      for (std::size_t i = 0; i < s.arms.size(); ++i) {
        // Only the final ELSE arm may lack a condition.
        if (!s.arms[i].condition && i + 1 != s.arms.size()) {
          out.add("ast-shape",
                  where(proc, s) + " non-final arm without condition");
        }
      }
      break;
    case StmtKind::ArithmeticIf:
      need(s.condExpr != nullptr, "condition");
      break;
    default:
      break;
  }
}

/// Calls fn(s) for every statement of `stmts` and their nested bodies, in
/// pre-order, by direct recursion.
template <class Fn>
void walkStmts(const std::vector<fortran::StmtPtr>& stmts, Fn& fn) {
  for (const auto& s : stmts) {
    fn(*s);
    walkStmts(s->body, fn);
    for (const auto& arm : s->arms) walkStmts(arm.body, fn);
  }
}

}  // namespace

void auditProgram(const Program& prog, Report& out) {
  // Ids below the counter are marked in a dense bitmap; an id at or past
  // it is already a violation and goes to a set.
  DenseBitSet seen(prog.nextStmtId);
  std::set<StmtId> beyond;
  for (const auto& unit : prog.units) {
    auto check = [&](const Stmt& s) {
      if (s.id == fortran::kInvalidStmt) {
        out.add("stmt-id-valid", where(*unit, s) + " has invalid id");
      } else {
        bool fresh = true;
        if (s.id >= prog.nextStmtId) {
          out.add("stmt-id-counter",
                  where(*unit, s) + " id beyond program counter " +
                      std::to_string(prog.nextStmtId));
          fresh = beyond.insert(s.id).second;
        } else {
          fresh = !seen.test(s.id);
          seen.set(s.id);
        }
        if (!fresh) {
          out.add("stmt-id-unique", where(*unit, s) + " duplicates an id");
        }
      }
      checkShape(*unit, s, out);
    };
    walkStmts(unit->body, check);
  }
}

void auditModel(const ir::ProcedureModel& model, Report& out) {
  const Procedure& proc = model.procedure();
  // The model's pre-order index must agree with a fresh traversal, compared
  // in place.
  const auto& indexed = model.allStmts();
  std::size_t walked = 0;
  std::size_t diverged = indexed.size();
  auto compare = [&](const Stmt& s) {
    if (diverged == indexed.size() && walked < indexed.size() &&
        indexed[walked] != &s) {
      diverged = walked;
    }
    ++walked;
  };
  walkStmts(proc.body, compare);
  if (walked != indexed.size()) {
    out.add("model-stmt-index",
            proc.name + ": model indexes " +
                std::to_string(indexed.size()) + " statements, AST has " +
                std::to_string(walked));
  } else if (diverged != indexed.size()) {
    out.add("model-stmt-index",
            proc.name + ": model statement " + std::to_string(diverged) +
                " diverges from AST pre-order (stale model?)");
  }
  // Id lookups resolve to the very same nodes.
  for (const Stmt* s : indexed) {
    if (model.stmt(s->id) != s) {
      out.add("model-id-lookup",
              where(proc, *s) + " does not resolve to itself");
    }
  }
  // Every DO statement's row names a loop node headed by that DO, every
  // loop node heads a DO, and there are as many loop nodes as DOs, so each
  // DO owns exactly one. The row also checks the loop's links: its parent
  // is the loop around the DO, and its body is the slice of the pre-order
  // table that follows the DO.
  const auto& rows = model.rows();
  std::size_t dos = 0;
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    const Stmt* s = indexed[i];
    if (s->kind != StmtKind::Do) continue;
    ++dos;
    const ir::Loop* l = rows[i].heads;
    if (!l || l->stmt != s) {
      out.add("loop-tree", where(proc, *s) + " has no loop-tree node");
      continue;
    }
    if (l->parent != rows[i].enclosing) {
      out.add("loop-tree",
              where(proc, *s) + " not contained in its parent loop");
    }
    if (l->bodyStmts.size() > indexed.size() - i - 1 ||
        !std::equal(l->bodyStmts.begin(), l->bodyStmts.end(),
                    indexed.begin() + static_cast<std::ptrdiff_t>(i) + 1)) {
      out.add("loop-tree",
              where(proc, *s) + " body references a dead statement");
    }
  }
  for (const auto& loopPtr : model.loops()) {
    const ir::Loop* l = loopPtr.get();
    if (!l->stmt || l->stmt->kind != StmtKind::Do) {
      out.add("loop-tree", proc.name + ": loop node without a DO statement");
      continue;
    }
    int expected = l->parent ? l->parent->level + 1 : 1;
    if (l->level != expected) {
      out.add("loop-tree", where(proc, *l->stmt) + " level " +
                               std::to_string(l->level) + ", expected " +
                               std::to_string(expected));
    }
  }
  if (model.loops().size() != dos) {
    out.add("loop-tree", proc.name + ": " + std::to_string(dos) +
                             " DO statements, " +
                             std::to_string(model.loops().size()) +
                             " loop-tree nodes");
  }
}

void auditGraph(const dep::DependenceGraph& graph,
                const ir::ProcedureModel& model, Report& out) {
  const std::string& proc = model.procedure().name;
  // Edge ids are minted densely from 1, so ids below the graph's counter
  // are marked in a bitmap (bounded by the edge count, in case a restored
  // counter is damaged); any other id goes to a set.
  const std::size_t dense =
      std::min<std::size_t>(graph.nextEdgeId(), 8 * graph.all().size() + 64);
  DenseBitSet seen(dense);
  std::set<std::uint32_t> beyond;
  for (const dep::Dependence& d : graph.all()) {
    // Rendered only for a failing check.
    auto tag = [&] {
      return proc + " dep#" + std::to_string(d.id) + " on " +
             (d.variable.empty() ? std::string("<control>") : d.variable);
    };
    bool fresh = true;
    if (d.id < dense) {
      fresh = !seen.test(d.id);
      seen.set(d.id);
    } else {
      fresh = beyond.insert(d.id).second;
    }
    if (!fresh) {
      out.add("dep-id-unique", tag() + " duplicates an edge id");
    }
    if (!model.stmt(d.srcStmt)) {
      out.add("dep-live-endpoint", tag() + " source stmt#" +
                                       std::to_string(d.srcStmt) +
                                       " is not in the procedure");
    }
    if (!model.stmt(d.dstStmt)) {
      out.add("dep-live-endpoint", tag() + " sink stmt#" +
                                       std::to_string(d.dstStmt) +
                                       " is not in the procedure");
    }
    if (d.level < 0 ||
        static_cast<std::size_t>(d.level) > d.vector.dirs.size()) {
      out.add("dep-level", tag() + " level " + std::to_string(d.level) +
                               " outside its direction vector");
    }
    if (d.level > 0) {
      if (d.carrierLoop == fortran::kInvalidStmt ||
          !model.loopByDoStmt(d.carrierLoop)) {
        out.add("dep-carrier", tag() + " carried edge without a live carrier"
                                       " loop");
      }
    }
    if (d.commonLoop != fortran::kInvalidStmt &&
        !model.loopByDoStmt(d.commonLoop)) {
      out.add("dep-carrier", tag() + " common loop stmt#" +
                                 std::to_string(d.commonLoop) +
                                 " is not a live loop");
    }
  }
}

void auditRoundTrip(const Program& prog, Report& out) {
  const std::string printed = fortran::printProgram(prog);
  DiagnosticEngine diags;
  auto reparsed = fortran::parseSource(printed, diags);
  if (diags.hasErrors()) {
    out.add("round-trip",
            "pretty-printed program does not re-parse:\n" + diags.dump());
    return;
  }
  if (reparsed->units.size() != prog.units.size()) {
    out.add("round-trip", "unit count changed: " +
                              std::to_string(prog.units.size()) + " -> " +
                              std::to_string(reparsed->units.size()));
    return;
  }
  for (std::size_t u = 0; u < prog.units.size(); ++u) {
    std::vector<StmtKind> before, after;
    prog.units[u]->forEachStmt(
        [&](const Stmt& s) { before.push_back(s.kind); });
    reparsed->units[u]->forEachStmt(
        [&](const Stmt& s) { after.push_back(s.kind); });
    if (before != after) {
      out.add("round-trip",
              prog.units[u]->name + ": statement kind sequence changed (" +
                  std::to_string(before.size()) + " -> " +
                  std::to_string(after.size()) + " statements)");
    }
  }
}

}  // namespace ps::audit
