#include "dataflow/varindex.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace ps::dataflow {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;

namespace {

bool callsUserCode(const Stmt& s) {
  bool calls = s.kind == fortran::StmtKind::Call;
  if (!calls) {
    s.forEachExpr([&](const Expr& e) {
      if (e.kind == ExprKind::FuncCall && !ir::isIntrinsic(e.name)) {
        calls = true;
      }
    });
  }
  return calls;
}

}  // namespace

VarIndex VarIndex::build(const cfg::FlowGraph& g,
                         const ir::ProcedureModel& model) {
  VarIndex ix;
  ix.graph_ = &g;
  ix.model_ = &model;
  const fortran::Procedure& proc = model.procedure();
  const auto n = static_cast<std::size_t>(g.numNodes());

  // Ids are handed out in first-seen order here and renumbered by name
  // below, so that walking ids walks names in order.
  std::unordered_map<std::string, int> firstSeen;
  auto intern = [&](const std::string& name) {
    auto [it, fresh] =
        firstSeen.try_emplace(name, static_cast<int>(ix.names_.size()));
    if (fresh) {
      ix.names_.push_back(name);
      ix.facts_.push_back(0);
    }
    return it->second;
  };

  for (const std::string& p : proc.params) {
    ix.facts_[static_cast<std::size_t>(intern(p))] |= kFormal;
  }
  if (proc.kind == fortran::ProcKind::Function) {
    ix.facts_[static_cast<std::size_t>(intern(proc.name))] |= kEscapes;
  }
  std::vector<bool> declared;
  for (const fortran::VarDecl& d : proc.decls) {
    const auto v = static_cast<std::size_t>(intern(d.name));
    declared.resize(ix.names_.size(), false);
    const bool common = !d.commonBlock.empty();
    if (common) ix.commonVars_.push_back(static_cast<int>(v));
    if ((ix.facts_[v] & kFormal) || common) ix.facts_[v] |= kEscapes;
    if (declared[v]) continue;  // the first declaration of a name rules
    declared[v] = true;
    if (d.isArray()) ix.facts_[v] |= kArray;
    if (common) ix.facts_[v] |= kCommon;
  }

  ix.refStart_.assign(n + 1, 0);
  ix.calls_.assign(n, 0);
  for (std::size_t node = 0; node < n; ++node) {
    ix.refStart_[node] = ix.refs_.size();
    const Stmt* s = g.stmtOf(static_cast<int>(node));
    if (!s) continue;
    for (const ir::Ref& r : ir::collectRefs(*s)) {
      ix.refs_.push_back({intern(r.name), r.kind, r.expr});
    }
    ix.calls_[node] = callsUserCode(*s) ? 1 : 0;
  }
  ix.refStart_[n] = ix.refs_.size();

  // Renumber by name.
  const std::size_t nv = ix.names_.size();
  std::vector<int> byName(nv);
  std::iota(byName.begin(), byName.end(), 0);
  std::sort(byName.begin(), byName.end(), [&](int a, int b) {
    return ix.names_[static_cast<std::size_t>(a)] <
           ix.names_[static_cast<std::size_t>(b)];
  });
  std::vector<int> rank(nv);
  std::vector<std::string> names(nv);
  std::vector<unsigned char> facts(nv);
  for (std::size_t i = 0; i < nv; ++i) {
    const auto old = static_cast<std::size_t>(byName[i]);
    rank[old] = static_cast<int>(i);
    names[i] = std::move(ix.names_[old]);
    facts[i] = ix.facts_[old];
  }
  ix.names_ = std::move(names);
  ix.facts_ = std::move(facts);
  for (IndexedRef& r : ix.refs_) r.var = rank[static_cast<std::size_t>(r.var)];
  for (int& v : ix.commonVars_) v = rank[static_cast<std::size_t>(v)];
  return ix;
}

int VarIndex::idOf(std::string_view name) const {
  auto it = std::lower_bound(names_.begin(), names_.end(), name);
  if (it == names_.end() || *it != name) return -1;
  return static_cast<int>(it - names_.begin());
}

}  // namespace ps::dataflow
