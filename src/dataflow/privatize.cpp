#include "dataflow/privatize.h"

namespace ps::dataflow {

using cfg::FlowGraph;
using fortran::Stmt;
using ir::Loop;
using ir::RefKind;

const char* privatizationStatusName(PrivatizationStatus s) {
  switch (s) {
    case PrivatizationStatus::Unused: return "unused";
    case PrivatizationStatus::Shared: return "shared";
    case PrivatizationStatus::Private: return "private";
    case PrivatizationStatus::PrivateNeedsLastValue: return "private(last)";
  }
  return "?";
}

PrivatizationAnalysis PrivatizationAnalysis::build(const VarIndex& index,
                                                   const Liveness& liveness) {
  PrivatizationAnalysis pa;
  const ir::ProcedureModel& model = index.model();
  const FlowGraph& g = index.graph();
  const auto n = static_cast<std::size_t>(g.numNodes());
  const auto nv = static_cast<std::size_t>(index.size());

  // Work arrays reused across loops and variables: the loop whose body a node
  // is in, the (loop, variable) search that last visited it, and the
  // scalars the body reads and writes.
  std::vector<int> bodyOf(n, -1), visitedBy(n, -1);
  int search = 0;
  std::vector<int> entries, work;
  DenseBitSet accessed(nv), written(nv), read(nv);

  int loopOrdinal = 0;
  for (const auto& loopPtr : model.loops()) {
    const Loop* loop = loopPtr.get();
    const int thisLoop = loopOrdinal++;
    std::vector<VariableClassification>& classes = pa.classes_[loop];

    // Scalars accessed in the loop body; arrays are handled elsewhere.
    accessed.clear();
    written.clear();
    read.clear();
    for (const Stmt* s : loop->bodyStmts) {
      const int node = g.nodeOf(s->id);
      if (node < 0) continue;
      bodyOf[static_cast<std::size_t>(node)] = thisLoop;
      for (const IndexedRef& r : index.refs(node)) {
        if (index.isArray(r.var)) continue;
        const auto v = static_cast<std::size_t>(r.var);
        accessed.set(v);
        if (r.isWrite()) written.set(v);
        if (r.isRead()) read.set(v);
      }
    }
    // The loop's own induction variable is implicitly private.
    const int iv = index.idOf(loop->inductionVar());
    if (iv >= 0) accessed.reset(static_cast<std::size_t>(iv));

    // Body-entry nodes: successors of the DO header that are in the body.
    const int doNode = g.nodeOf(loop->stmt->id);
    auto inBody = [&](int node) {
      return bodyOf[static_cast<std::size_t>(node)] == thisLoop;
    };
    entries.clear();
    for (int succ : g.successors(doNode)) {
      if (inBody(succ)) entries.push_back(succ);
    }

    accessed.forEach([&](std::size_t v) {
      const int var = static_cast<int>(v);
      VariableClassification vc;
      vc.name = index.name(var);
      vc.writtenInLoop = written.test(v);
      vc.readInLoop = read.test(v);

      // Search from body entry: does a read of the variable occur before a
      // killing write on some path within one iteration? (Fortran
      // evaluates the RHS and subscripts before storing the LHS, so any
      // read in a statement comes first.) A call may read the scalar if it
      // is in COMMON.
      ++search;
      work.assign(entries.begin(), entries.end());
      bool exposed = false;
      while (!work.empty() && !exposed) {
        const int node = work.back();
        work.pop_back();
        if (visitedBy[static_cast<std::size_t>(node)] == search) continue;
        visitedBy[static_cast<std::size_t>(node)] = search;
        bool kills = false;
        for (const IndexedRef& r : index.refs(node)) {
          if (r.var != var) continue;
          if (r.kind == RefKind::Read || r.kind == RefKind::CallActual) {
            exposed = true;
          } else {
            kills = true;  // a write or the DO-variable update
          }
        }
        if (exposed) break;
        if (kills) continue;  // path killed here
        if (index.calls(node) && index.inCommon(var)) {
          exposed = true;
          break;
        }
        for (int succ : g.successors(node)) {
          if (succ == doNode) continue;  // iteration boundary
          if (inBody(succ) &&
              visitedBy[static_cast<std::size_t>(succ)] != search) {
            work.push_back(succ);
          }
        }
      }
      vc.upwardExposedRead = exposed;

      if (!vc.readInLoop && !vc.writtenInLoop) {
        vc.status = PrivatizationStatus::Unused;
      } else if (!vc.writtenInLoop) {
        // Read-only: shared is safe (no dependence arises).
        vc.status = PrivatizationStatus::Shared;
      } else if (exposed) {
        vc.status = PrivatizationStatus::Shared;
      } else if (liveness.liveAfterLoop(*loop, vc.name)) {
        vc.status = PrivatizationStatus::PrivateNeedsLastValue;
      } else {
        vc.status = PrivatizationStatus::Private;
      }
      classes.push_back(std::move(vc));
    });
  }
  return pa;
}

const std::vector<VariableClassification>& PrivatizationAnalysis::classesFor(
    const Loop& loop) const {
  auto it = classes_.find(&loop);
  return it == classes_.end() ? empty_ : it->second;
}

PrivatizationStatus PrivatizationAnalysis::statusOf(
    const Loop& loop, const std::string& name) const {
  for (const auto& vc : classesFor(loop)) {
    if (vc.name == name) return vc.status;
  }
  return PrivatizationStatus::Unused;
}

}  // namespace ps::dataflow
