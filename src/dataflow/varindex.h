#ifndef PS_DATAFLOW_VARINDEX_H
#define PS_DATAFLOW_VARINDEX_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cfg/flow_graph.h"
#include "ir/model.h"
#include "ir/refs.h"

namespace ps::dataflow {

/// One variable occurrence of a CFG node's statement, resolved to the
/// variable's dense id. A node lists its occurrences in ir::collectRefs
/// order.
struct IndexedRef {
  int var = -1;
  ir::RefKind kind = ir::RefKind::Read;
  const fortran::Expr* expr = nullptr;

  [[nodiscard]] bool isWrite() const {
    return kind == ir::RefKind::Write || kind == ir::RefKind::DoVarDef ||
           kind == ir::RefKind::CallActual;
  }
  [[nodiscard]] bool isRead() const {
    return kind == ir::RefKind::Read || kind == ir::RefKind::CallActual;
  }
};

/// The variables of one procedure, numbered densely in name order, with the
/// declaration facts the scalar analyses ask about and every CFG node's
/// references resolved to ids. Liveness, reaching definitions, constants,
/// privatization and symbolic analysis all index their rows by these ids.
///
/// The index reads the statements as they are when it is built, so it is
/// built with the analyses that use it and never outlives an edit: a
/// transformation that rewrites a loop body builds a fresh one. It keeps
/// pointers to the graph and the model, which must outlive it.
class VarIndex {
 public:
  static VarIndex build(const cfg::FlowGraph& g,
                        const ir::ProcedureModel& model);

  [[nodiscard]] const cfg::FlowGraph& graph() const { return *graph_; }
  [[nodiscard]] const ir::ProcedureModel& model() const { return *model_; }

  /// Number of variables: every name the procedure declares, takes as a
  /// dummy argument or references.
  [[nodiscard]] int size() const { return static_cast<int>(names_.size()); }
  /// The id of `name`, or -1 when the procedure never mentions it.
  [[nodiscard]] int idOf(std::string_view name) const;
  [[nodiscard]] const std::string& name(int var) const {
    return names_[static_cast<std::size_t>(var)];
  }

  [[nodiscard]] bool isArray(int var) const { return fact(var, kArray); }
  [[nodiscard]] bool inCommon(int var) const { return fact(var, kCommon); }
  /// A dummy argument of the procedure.
  [[nodiscard]] bool isFormal(int var) const { return fact(var, kFormal); }
  /// The caller can observe the variable after the procedure returns: a
  /// declared dummy argument, a COMMON member, or a function's result.
  [[nodiscard]] bool escapes(int var) const { return fact(var, kEscapes); }

  /// The references of a node's statement (empty for entry and exit).
  [[nodiscard]] std::span<const IndexedRef> refs(int node) const {
    const auto u = static_cast<std::size_t>(node);
    return {refs_.data() + refStart_[u], refStart_[u + 1] - refStart_[u]};
  }
  /// True when the node's statement is a CALL or invokes a user function.
  [[nodiscard]] bool calls(int node) const {
    return calls_[static_cast<std::size_t>(node)] != 0;
  }
  /// COMMON members, in declaration order.
  [[nodiscard]] const std::vector<int>& commonVars() const {
    return commonVars_;
  }

 private:
  enum Fact : unsigned char {
    kArray = 1,
    kCommon = 2,
    kFormal = 4,
    kEscapes = 8,
  };
  [[nodiscard]] bool fact(int var, Fact f) const {
    return (facts_[static_cast<std::size_t>(var)] & f) != 0;
  }

  const cfg::FlowGraph* graph_ = nullptr;
  const ir::ProcedureModel* model_ = nullptr;
  std::vector<std::string> names_;     // sorted; id = position
  std::vector<unsigned char> facts_;   // per variable, Fact bits
  std::vector<std::size_t> refStart_;  // per node, into refs_; one extra
  std::vector<IndexedRef> refs_;
  std::vector<unsigned char> calls_;   // per node
  std::vector<int> commonVars_;
};

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_VARINDEX_H
