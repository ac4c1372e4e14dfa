#include "cfg/flow_graph.h"

#include <algorithm>
#include <climits>

namespace ps::cfg {

using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using fortran::StmtPtr;

namespace {

/// Recursive CFG construction over the structured statement tree. `follow`
/// is the node control reaches after the current statement list completes
/// normally.
class Builder {
 public:
  Builder(const FlowGraph& g, const ir::ProcedureModel& model,
          std::vector<std::vector<int>>& succ)
      : g_(g), model_(model), succ_(succ) {}

  void addEdge(int from, int to) {
    auto& s = succ_[static_cast<std::size_t>(from)];
    if (std::find(s.begin(), s.end(), to) == s.end()) s.push_back(to);
  }

  int labelNode(int label) const {
    const Stmt* t = model_.labelTarget(label);
    if (!t) return FlowGraph::kExit;  // jump to a missing label: treat as exit
    const int node = g_.nodeOf(t->id);
    return node < 0 ? FlowGraph::kExit : node;
  }

  /// First node executed when entering this statement list; `follow` when
  /// the list is empty.
  int headOf(const std::vector<StmtPtr>& stmts, int follow) const {
    if (stmts.empty()) return follow;
    return g_.nodeOf(stmts.front()->id);
  }

  void buildList(const std::vector<StmtPtr>& stmts, int follow) {
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      int next = (i + 1 < stmts.size()) ? g_.nodeOf(stmts[i + 1]->id)
                                        : follow;
      buildStmt(*stmts[i], next);
    }
  }

  void buildStmt(const Stmt& s, int next) {
    int node = g_.nodeOf(s.id);
    switch (s.kind) {
      case StmtKind::Goto:
        addEdge(node, labelNode(s.gotoTarget));
        return;
      case StmtKind::Return:
      case StmtKind::Stop:
        addEdge(node, FlowGraph::kExit);
        return;
      case StmtKind::ArithmeticIf:
        for (int l : s.aifLabels) addEdge(node, labelNode(l));
        return;
      case StmtKind::Do: {
        // Loop entry and zero-trip exit; back edge comes from the body's
        // normal flow returning to the DO node.
        addEdge(node, headOf(s.body, node));
        addEdge(node, next);
        buildList(s.body, node);
        return;
      }
      case StmtKind::If: {
        bool hasElse = false;
        for (const auto& arm : s.arms) {
          if (!arm.condition) hasElse = true;
          addEdge(node, headOf(arm.body, next));
          buildList(arm.body, next);
        }
        if (!hasElse) addEdge(node, next);
        return;
      }
      default:
        addEdge(node, next);
        return;
    }
  }

 private:
  const FlowGraph& g_;
  const ir::ProcedureModel& model_;
  std::vector<std::vector<int>>& succ_;
};

}  // namespace

FlowGraph FlowGraph::build(const ir::ProcedureModel& model) {
  FlowGraph g;
  const auto& all = model.allStmts();
  g.stmts_.assign(all.size() + kFirstStmt, nullptr);
  g.succ_.assign(all.size() + kFirstStmt, {});
  g.pred_.assign(all.size() + kFirstStmt, {});
  g.nodeIndex_.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    int node = static_cast<int>(i) + kFirstStmt;
    g.stmts_[static_cast<std::size_t>(node)] = all[i];
    g.nodeIndex_.emplace_back(all[i]->id, node);
  }
  std::sort(g.nodeIndex_.begin(), g.nodeIndex_.end());

  Builder b(g, model, g.succ_);
  auto& body = model.procedure().body;
  b.addEdge(kEntry, b.headOf(body, kExit));
  b.buildList(body, kExit);

  // Derive predecessor lists.
  for (int from = 0; from < g.numNodes(); ++from) {
    for (int to : g.succ_[static_cast<std::size_t>(from)]) {
      g.pred_[static_cast<std::size_t>(to)].push_back(from);
    }
  }
  return g;
}

const fortran::Stmt* FlowGraph::stmtOf(int node) const {
  return stmts_[static_cast<std::size_t>(node)];
}

int FlowGraph::nodeOf(StmtId id) const {
  auto it = std::upper_bound(nodeIndex_.begin(), nodeIndex_.end(),
                             std::pair<StmtId, int>{id, INT_MAX});
  if (it == nodeIndex_.begin() || std::prev(it)->first != id) return -1;
  return std::prev(it)->second;
}

void FlowGraph::addEdge(int from, int to) {
  succ_[static_cast<std::size_t>(from)].push_back(to);
  pred_[static_cast<std::size_t>(to)].push_back(from);
}

namespace {
void dfs(const FlowGraph& g, int node, bool forward,
         std::vector<bool>& seen, std::vector<int>& post) {
  seen[static_cast<std::size_t>(node)] = true;
  const auto& next = forward ? g.successors(node) : g.predecessors(node);
  for (int n : next) {
    if (!seen[static_cast<std::size_t>(n)]) dfs(g, n, forward, seen, post);
  }
  post.push_back(node);
}
}  // namespace

std::vector<int> FlowGraph::reversePostOrder() const {
  std::vector<bool> seen(static_cast<std::size_t>(numNodes()), false);
  std::vector<int> post;
  dfs(*this, kEntry, /*forward=*/true, seen, post);
  std::reverse(post.begin(), post.end());
  return post;
}

std::vector<int> FlowGraph::reversePostOrderOfReverse() const {
  std::vector<bool> seen(static_cast<std::size_t>(numNodes()), false);
  std::vector<int> post;
  dfs(*this, kExit, /*forward=*/false, seen, post);
  std::reverse(post.begin(), post.end());
  return post;
}

}  // namespace ps::cfg
