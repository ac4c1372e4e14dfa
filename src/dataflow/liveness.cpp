#include "dataflow/liveness.h"

namespace ps::dataflow {

using cfg::FlowGraph;
using fortran::Stmt;
using ir::RefKind;

Liveness Liveness::build(const VarIndex& index) {
  Liveness lv;
  lv.index_ = &index;
  const FlowGraph& g = index.graph();
  const auto n = static_cast<std::size_t>(g.numNodes());
  const auto nv = static_cast<std::size_t>(index.size());
  lv.in_.assign(n, DenseBitSet(nv));

  // use/def per node, as variable lists. A statement reads before it writes
  // (Fortran evaluates the right-hand side and subscripts before storing),
  // so a variable it reads is live on entry even when it also assigns it:
  // after a loop, T = T + 1.0 needs the loop's last T. Array element stores
  // do not fully define the array, so arrays are never in DEF
  // (conservative for backward liveness).
  std::vector<std::size_t> useStart(n + 1, 0), defStart(n + 1, 0);
  std::vector<int> use, def;
  std::vector<std::size_t> usedAt(nv, n), definedAt(nv, n);
  for (std::size_t node = 0; node < n; ++node) {
    useStart[node] = use.size();
    defStart[node] = def.size();
    for (const IndexedRef& r : index.refs(static_cast<int>(node))) {
      const auto v = static_cast<std::size_t>(r.var);
      if (r.isRead() && usedAt[v] != node) {
        usedAt[v] = node;
        use.push_back(r.var);
      }
      if (r.isWrite() && !index.isArray(r.var) &&
          r.kind != RefKind::CallActual && definedAt[v] != node) {
        definedAt[v] = node;
        def.push_back(r.var);
      }
    }
  }
  useStart[n] = use.size();
  defStart[n] = def.size();

  // Everything that escapes the procedure is live at exit: parameters and
  // COMMON members (callers may observe them).
  for (int v = 0; v < index.size(); ++v) {
    if (index.escapes(v)) {
      lv.in_[FlowGraph::kExit].set(static_cast<std::size_t>(v));
    }
  }

  const std::vector<int> order = g.reversePostOrderOfReverse();
  DenseBitSet in(nv);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int node : order) {
      if (node == FlowGraph::kExit) continue;
      const auto un = static_cast<std::size_t>(node);
      in.clear();
      for (int s : g.successors(node)) {
        in.unionWith(lv.in_[static_cast<std::size_t>(s)]);
      }
      for (std::size_t i = defStart[un]; i < defStart[un + 1]; ++i) {
        in.reset(static_cast<std::size_t>(def[i]));
      }
      for (std::size_t i = useStart[un]; i < useStart[un + 1]; ++i) {
        in.set(static_cast<std::size_t>(use[i]));
      }
      if (!(in == lv.in_[un])) {
        lv.in_[un] = in;
        changed = true;
      }
    }
  }
  return lv;
}

bool Liveness::liveAfterLoop(const ir::Loop& loop,
                             const std::string& name) const {
  // The DO node's non-body successors are the loop exits; `name` is live
  // after the loop if it is live-in at any of them. GOTO exits out of the
  // body are covered because their targets are those nodes' successors.
  const FlowGraph& g = index_->graph();
  int doNode = g.nodeOf(loop.stmt->id);
  if (doNode < 0) return true;  // be conservative
  const int var = index_->idOf(name);
  if (var < 0) return false;
  for (int s : g.successors(doNode)) {
    const Stmt* st = g.stmtOf(s);
    bool inBody = false;
    if (st) {
      for (const Stmt* b : loop.bodyStmts) {
        if (b == st) {
          inBody = true;
          break;
        }
      }
    }
    if (!inBody && liveIn(s, var)) return true;
  }
  return false;
}

}  // namespace ps::dataflow
