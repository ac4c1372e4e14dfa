#ifndef PS_CFG_FLOW_GRAPH_H
#define PS_CFG_FLOW_GRAPH_H

#include <utility>
#include <vector>

#include "fortran/ast.h"
#include "ir/model.h"

namespace ps::cfg {

/// A statement-level control-flow graph for one procedure. Statement-level
/// granularity (rather than basic blocks) keeps the mapping to PED's pane
/// rows one-to-one; procedures in the workshop study are a few hundred
/// statements, so the constant factor is irrelevant.
///
/// Node 0 is the synthetic entry, node 1 the synthetic exit; every other
/// node corresponds to one statement: node kFirstStmt + i is the model's
/// allStmts()[i].
class FlowGraph {
 public:
  static constexpr int kEntry = 0;
  static constexpr int kExit = 1;
  static constexpr int kFirstStmt = 2;

  /// Build the CFG for a procedure. Handles structured constructs (DO, block
  /// IF) and unstructured ones (GOTO, arithmetic IF) uniformly: labels may
  /// be targeted from anywhere in the procedure.
  static FlowGraph build(const ir::ProcedureModel& model);

  [[nodiscard]] int numNodes() const { return static_cast<int>(succ_.size()); }
  [[nodiscard]] const std::vector<int>& successors(int node) const {
    return succ_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] const std::vector<int>& predecessors(int node) const {
    return pred_[static_cast<std::size_t>(node)];
  }

  /// The statement a node represents (null for entry/exit).
  [[nodiscard]] const fortran::Stmt* stmtOf(int node) const;
  /// The node for a statement id, or -1.
  [[nodiscard]] int nodeOf(fortran::StmtId id) const;

  /// True when a node has more than one successor (a branch point).
  [[nodiscard]] bool isBranch(int node) const {
    return successors(node).size() > 1;
  }

  /// Nodes in reverse post-order from the entry (for fast data-flow).
  [[nodiscard]] std::vector<int> reversePostOrder() const;
  /// Reverse post-order of the reverse graph, from the exit.
  [[nodiscard]] std::vector<int> reversePostOrderOfReverse() const;

 private:
  void addEdge(int from, int to);

  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<int>> pred_;
  std::vector<const fortran::Stmt*> stmts_;  // index = node
  /// (statement id, node), sorted. A duplicated id answers for the last of
  /// its statements in pre-order, which has the highest node.
  std::vector<std::pair<fortran::StmtId, int>> nodeIndex_;
};

}  // namespace ps::cfg

#endif  // PS_CFG_FLOW_GRAPH_H
