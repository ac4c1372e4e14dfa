#include "dataflow/reaching.h"

namespace ps::dataflow {

using cfg::FlowGraph;
using fortran::Stmt;
using fortran::StmtId;
using ir::RefKind;

ReachingDefs ReachingDefs::build(const VarIndex& index) {
  ReachingDefs r;
  r.index_ = &index;
  const FlowGraph& g = index.graph();
  const auto n = static_cast<std::size_t>(g.numNodes());
  const auto nv = static_cast<std::size_t>(index.size());

  // Definitions node by node: GEN of a node is the contiguous run of its
  // definitions, and KILL is every definition of the scalars it assigns.
  // The entry node defines what the caller passes in through scalar dummy
  // arguments and COMMON.
  std::vector<std::size_t> genStart(n + 1, 0), killStart(n + 1, 0);
  std::vector<int> killVars;
  for (std::size_t node = 0; node < n; ++node) {
    genStart[node] = r.defs_.size();
    killStart[node] = killVars.size();
    if (node == FlowGraph::kEntry) {
      for (int v = 0; v < index.size(); ++v) {
        if ((index.isFormal(v) || index.inCommon(v)) && !index.isArray(v)) {
          r.defs_.push_back({nullptr, v, RefKind::Write, true});
        }
      }
      continue;
    }
    const Stmt* s = g.stmtOf(static_cast<int>(node));
    for (const IndexedRef& ref : index.refs(static_cast<int>(node))) {
      if (!ref.isWrite()) continue;
      const bool killing =
          !index.isArray(ref.var) &&
          (ref.kind == RefKind::Write || ref.kind == RefKind::DoVarDef);
      r.defs_.push_back({s, ref.var, ref.kind, killing});
      if (killing) killVars.push_back(ref.var);
    }
  }
  genStart[n] = r.defs_.size();
  killStart[n] = killVars.size();

  // The definitions of each variable, in ascending order.
  const std::size_t nd = r.defs_.size();
  r.defsOfStart_.assign(nv + 1, 0);
  for (const Definition& d : r.defs_) {
    ++r.defsOfStart_[static_cast<std::size_t>(d.var) + 1];
  }
  for (std::size_t v = 0; v < nv; ++v) {
    r.defsOfStart_[v + 1] += r.defsOfStart_[v];
  }
  r.defsOf_.resize(nd);
  std::vector<std::size_t> fill(r.defsOfStart_.begin(),
                                r.defsOfStart_.end() - 1);
  for (std::size_t di = 0; di < nd; ++di) {
    r.defsOf_[fill[static_cast<std::size_t>(r.defs_[di].var)]++] =
        static_cast<int>(di);
  }

  // Iterate to fixpoint over reverse post-order. OUT is the only row kept:
  // the definitions reaching a node are the union of its predecessors'.
  r.out_.assign(n, DenseBitSet(nd));
  const std::vector<int> order = g.reversePostOrder();
  DenseBitSet cur(nd);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int node : order) {
      const auto un = static_cast<std::size_t>(node);
      cur.clear();
      for (int p : g.predecessors(node)) {
        cur.unionWith(r.out_[static_cast<std::size_t>(p)]);
      }
      for (std::size_t k = killStart[un]; k < killStart[un + 1]; ++k) {
        const auto v = static_cast<std::size_t>(killVars[k]);
        for (std::size_t i = r.defsOfStart_[v]; i < r.defsOfStart_[v + 1];
             ++i) {
          cur.reset(static_cast<std::size_t>(r.defsOf_[i]));
        }
      }
      for (std::size_t di = genStart[un]; di < genStart[un + 1]; ++di) {
        cur.set(di);
      }
      if (!(cur == r.out_[un])) {
        r.out_[un] = cur;
        changed = true;
      }
    }
  }
  return r;
}

template <typename Fn>
void ReachingDefs::forEachReaching(int node, int var, Fn&& fn) const {
  const auto& preds = index_->graph().predecessors(node);
  const auto v = static_cast<std::size_t>(var);
  for (std::size_t i = defsOfStart_[v]; i < defsOfStart_[v + 1]; ++i) {
    const auto di = static_cast<std::size_t>(defsOf_[i]);
    for (int p : preds) {
      if (out_[static_cast<std::size_t>(p)].test(di)) {
        fn(static_cast<int>(di));
        break;
      }
    }
  }
}

std::vector<int> ReachingDefs::reachingAt(StmtId stmt,
                                          const std::string& name) const {
  std::vector<int> result;
  const int node = index_->graph().nodeOf(stmt);
  const int var = index_->idOf(name);
  if (node < 0 || var < 0) return result;
  forEachReaching(node, var, [&](int di) {
    if (defs_[static_cast<std::size_t>(di)].stmt) result.push_back(di);
  });
  return result;
}

bool ReachingDefs::uniqueReachingAssignment(StmtId stmt,
                                            const std::string& name,
                                            const Stmt** out) const {
  const int node = index_->graph().nodeOf(stmt);
  const int var = index_->idOf(name);
  if (node < 0 || var < 0) return false;
  int count = 0;
  int only = -1;
  forEachReaching(node, var, [&](int di) {
    ++count;
    only = di;
  });
  if (count != 1) return false;
  const Definition& d = defs_[static_cast<std::size_t>(only)];
  if (!d.stmt || !d.killing || d.stmt->kind != fortran::StmtKind::Assign) {
    return false;
  }
  if (out) *out = d.stmt;
  return true;
}

}  // namespace ps::dataflow
