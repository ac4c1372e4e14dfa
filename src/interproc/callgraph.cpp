#include "interproc/callgraph.h"

#include <algorithm>
#include <set>

#include "ir/refs.h"

namespace ps::interproc {

using fortran::Procedure;
using fortran::Program;
using fortran::Stmt;

CallGraph CallGraph::build(const Program& program) {
  CallGraph g;
  std::set<std::string> defined;
  for (const auto& u : program.units) defined.insert(u->name);

  std::map<std::string, std::set<std::string>> callees;
  for (const auto& u : program.units) {
    callees[u->name];  // ensure every unit has a node
    u->forEachStmt([&](const Stmt& s) {
      for (const std::string& callee : ir::calledFunctions(s)) {
        g.byCaller_[u->name].push_back(g.sites_.size());
        g.byCallee_[callee].push_back(g.sites_.size());
        g.sites_.push_back({u->name, callee, &s});
        callees[u->name].insert(callee);
        if (!defined.count(callee)) {
          if (std::find(g.unresolved_.begin(), g.unresolved_.end(),
                        callee) == g.unresolved_.end()) {
            g.unresolved_.push_back(callee);
          }
        }
      }
    });
  }

  // Iterative Kahn-style peeling: emit procedures whose defined callees are
  // all already emitted; anything left is on a cycle.
  std::set<std::string> emitted;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& u : program.units) {
      if (emitted.count(u->name)) continue;
      bool ready = true;
      for (const auto& c : callees[u->name]) {
        if (defined.count(c) && !emitted.count(c) && c != u->name) {
          ready = false;
          break;
        }
      }
      if (callees[u->name].count(u->name)) ready = false;  // self-recursion
      if (ready) {
        g.bottomUp_.push_back(u->name);
        emitted.insert(u->name);
        progress = true;
      }
    }
  }
  for (const auto& u : program.units) {
    if (!emitted.count(u->name)) g.recursive_.push_back(u->name);
  }
  return g;
}

namespace {

std::vector<const CallSite*> sitesAt(
    const std::vector<CallSite>& sites,
    const std::map<std::string, std::vector<std::size_t>>& index,
    const std::string& key) {
  std::vector<const CallSite*> out;
  auto it = index.find(key);
  if (it == index.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t i : it->second) out.push_back(&sites[i]);
  return out;
}

}  // namespace

std::vector<const CallSite*> CallGraph::callsFrom(
    const std::string& caller) const {
  return sitesAt(sites_, byCaller_, caller);
}

std::vector<const CallSite*> CallGraph::callsTo(
    const std::string& callee) const {
  return sitesAt(sites_, byCallee_, callee);
}

bool CallGraph::refreshCaller(const Procedure& unit) {
  static const std::vector<std::size_t> kNone;
  auto it = byCaller_.find(unit.name);
  const std::vector<std::size_t>& mine =
      it == byCaller_.end() ? kNone : it->second;
  // Walk the unit as build() does, matching callees against the recorded
  // sequence; mutate only once the whole sequence is known to match.
  std::vector<const Stmt*> stmts;
  stmts.reserve(mine.size());
  bool same = true;
  unit.forEachStmt([&](const Stmt& s) {
    if (!same) return;
    for (const std::string& callee : ir::calledFunctions(s)) {
      if (stmts.size() == mine.size() ||
          sites_[mine[stmts.size()]].callee != callee) {
        same = false;
        return;
      }
      stmts.push_back(&s);
    }
  });
  if (!same || stmts.size() != mine.size()) return false;
  for (std::size_t i = 0; i < mine.size(); ++i) sites_[mine[i]].stmt = stmts[i];
  return true;
}

std::string CallGraph::textual() const {
  std::string out;
  for (const auto& [caller, indices] : byCaller_) {
    out += caller + ":";
    for (std::size_t i : indices) out += " " + sites_[i].callee;
    out += "\n";
  }
  return out;
}

}  // namespace ps::interproc
