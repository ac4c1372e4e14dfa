#include "ir/model.h"

#include <algorithm>
#include <iterator>

namespace ps::ir {

using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using fortran::StmtPtr;

namespace {

/// The first entry of a sorted (key, position) index past every entry
/// that carries `key`.
template <class Index, class Key>
auto pastKey(const Index& index, Key key) {
  return std::upper_bound(
      index.begin(), index.end(), key,
      [](Key k, const auto& entry) { return k < entry.first; });
}

/// The pre-order position of the last statement that carries `key`, or
/// `none`.
template <class Index, class Key>
std::size_t lastPosition(const Index& index, Key key, std::size_t none) {
  auto it = pastKey(index, key);
  if (it == index.begin() || std::prev(it)->first != key) return none;
  return std::prev(it)->second;
}

}  // namespace

bool Loop::contains(StmtId id) const {
  if (stmt->id == id) return true;
  for (const Stmt* s : bodyStmts) {
    if (s->id == id) return true;
  }
  return false;
}

std::vector<const Loop*> Loop::nestPath() const {
  std::vector<const Loop*> path;
  for (const Loop* l = this; l; l = l->parent) path.push_back(l);
  std::reverse(path.begin(), path.end());
  return path;
}

ProcedureModel::ProcedureModel(fortran::Procedure& proc) : proc_(proc) {
  index(proc.body, nullptr, nullptr);
  ids_.reserve(allStmts_.size());
  for (std::size_t i = 0; i < allStmts_.size(); ++i) {
    const Stmt* s = allStmts_[i];
    const auto pos = static_cast<std::uint32_t>(i);
    ids_.emplace_back(s->id, pos);
    if (s->label != 0) labelIndex_.emplace_back(s->label, pos);
  }
  std::sort(ids_.begin(), ids_.end());
  std::sort(labelIndex_.begin(), labelIndex_.end());
}

void ProcedureModel::index(std::vector<StmtPtr>& stmts, Stmt* parent,
                           Loop* loop) {
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    Stmt* s = stmts[i].get();
    allStmts_.push_back(s);
    rows_.push_back({parent, loop, nullptr, &stmts, i});
    // Register this statement in every enclosing loop body.
    for (Loop* l = loop; l; l = l->parent) l->bodyStmts.push_back(s);

    if (s->kind == StmtKind::Do) {
      auto newLoop = std::make_unique<Loop>();
      newLoop->stmt = s;
      newLoop->parent = loop;
      newLoop->level = loop ? loop->level + 1 : 1;
      Loop* lp = newLoop.get();
      if (loop) loop->children.push_back(lp);
      loops_.push_back(std::move(newLoop));
      rows_.back().heads = lp;
      index(s->body, s, lp);
    } else if (s->kind == StmtKind::If) {
      for (auto& arm : s->arms) index(arm.body, s, loop);
    }
  }
}

std::vector<Loop*> ProcedureModel::topLevelLoops() const {
  std::vector<Loop*> out;
  for (const auto& l : loops_) {
    if (!l->parent) out.push_back(l.get());
  }
  return out;
}

Loop* ProcedureModel::loopByDoStmt(StmtId id) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(),
                             std::pair<StmtId, std::uint32_t>{id, 0});
  for (; it != ids_.end() && it->first == id; ++it) {
    if (Loop* l = rows_[it->second].heads) return l;
  }
  return nullptr;
}

Loop* ProcedureModel::enclosingLoop(StmtId id) const {
  const std::size_t pos = lastPosition(ids_, id, rows_.size());
  return pos < rows_.size() ? rows_[pos].enclosing : nullptr;
}

Stmt* ProcedureModel::stmt(StmtId id) const {
  const std::size_t pos = lastPosition(ids_, id, rows_.size());
  return pos < rows_.size() ? allStmts_[pos] : nullptr;
}

Stmt* ProcedureModel::parentStmt(StmtId id) const {
  for (auto it = pastKey(ids_, id);
       it != ids_.begin() && std::prev(it)->first == id; --it) {
    if (Stmt* p = rows_[std::prev(it)->second].parent) return p;
  }
  return nullptr;
}

Stmt* ProcedureModel::labelTarget(int label) const {
  const std::size_t pos = lastPosition(labelIndex_, label, rows_.size());
  return pos < rows_.size() ? allStmts_[pos] : nullptr;
}

std::vector<StmtPtr>* ProcedureModel::containerOf(StmtId id,
                                                  std::size_t* indexOut) const {
  const std::size_t pos = lastPosition(ids_, id, rows_.size());
  if (pos == rows_.size()) return nullptr;
  if (indexOut) *indexOut = rows_[pos].index;
  return rows_[pos].container;
}

}  // namespace ps::ir
