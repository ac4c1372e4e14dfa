#include "cfg/control_dep.h"

#include <algorithm>

namespace ps::cfg {

using fortran::StmtId;
using fortran::StmtKind;

ControlDependence ControlDependence::build(const FlowGraph& g) {
  ControlDependence cd;
  DominatorTree pdom = DominatorTree::postDominators(g);

  // For each edge (a -> b) where b does not post-dominate a, every node on
  // the post-dominator-tree path from b up to (but not including) pdom(a)
  // is control dependent on a. Pairs are ordered by flow-graph node, which
  // follows the model's pre-order: statement ids minted after parsing do
  // not, and a re-parse of the printed unit must list the same order.
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < g.numNodes(); ++a) {
    if (!g.isBranch(a) || !g.stmtOf(a)) continue;
    for (int b : g.successors(a)) {
      if (pdom.dominates(b, a)) continue;
      if (!pdom.reachable(b) || !pdom.reachable(a)) continue;
      int stop = pdom.idom(a);
      for (int runner = b; runner != stop;) {
        if (runner != a && g.stmtOf(runner)) pairs.emplace_back(a, runner);
        int up = pdom.idom(runner);
        if (up == runner) break;  // hit the root
        runner = up;
      }
    }
  }
  // Dedup (a node can be reached along several branch edges of `a`).
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  cd.deps_.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    cd.deps_.push_back({g.stmtOf(a)->id, g.stmtOf(b)->id});
  }
  return cd;
}

std::vector<StmtId> ControlDependence::controllersOf(StmtId id) const {
  std::vector<StmtId> out;
  for (const auto& d : deps_) {
    if (d.dependent == id) out.push_back(d.branch);
  }
  return out;
}

std::vector<StmtId> ControlDependence::controlledBy(StmtId branch) const {
  std::vector<StmtId> out;
  for (const auto& d : deps_) {
    if (d.branch == branch) out.push_back(d.dependent);
  }
  return out;
}

bool ControlDependence::hasNonLoopController(
    StmtId id, const ir::ProcedureModel& model) const {
  for (StmtId c : controllersOf(id)) {
    const fortran::Stmt* s = model.stmt(c);
    if (s && s->kind != StmtKind::Do) return true;
  }
  return false;
}

}  // namespace ps::cfg
