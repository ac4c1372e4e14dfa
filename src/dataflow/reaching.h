#ifndef PS_DATAFLOW_REACHING_H
#define PS_DATAFLOW_REACHING_H

#include <string>
#include <vector>

#include "dataflow/varindex.h"
#include "support/bitset.h"

namespace ps::dataflow {

/// One definition point of a variable: a scalar assignment, an array element
/// store, a READ item, a DO-variable update, or a call-site may-def. The
/// value a scalar dummy argument or COMMON member brings into the procedure
/// is an entry definition, with no statement.
struct Definition {
  const fortran::Stmt* stmt = nullptr;  // null for an entry definition
  int var = -1;                         // id in the VarIndex
  ir::RefKind kind = ir::RefKind::Write;
  /// Scalar writes kill other definitions of the same name; array element
  /// stores and call may-defs do not.
  bool killing = false;
};

/// Classic reaching definitions over the statement-level CFG. This powers
/// scalar forward substitution in the dependence builder and the symbolic
/// analyzer's "which assignment reaches this loop" queries.
class ReachingDefs {
 public:
  static ReachingDefs build(const VarIndex& index);

  [[nodiscard]] const std::vector<Definition>& definitions() const {
    return defs_;
  }

  /// Indices into definitions() for the statement definitions of `name`
  /// reaching the *entry* of the statement's node, in ascending order.
  /// Entry definitions are not listed.
  [[nodiscard]] std::vector<int> reachingAt(fortran::StmtId stmt,
                                            const std::string& name) const;

  /// True when exactly one definition of `name` reaches the statement and it
  /// is a killing (scalar) assignment; returns it via `out`. A reaching
  /// entry definition counts, so a dummy argument or COMMON member assigned
  /// on only some paths has no unique reaching assignment.
  bool uniqueReachingAssignment(fortran::StmtId stmt, const std::string& name,
                                const fortran::Stmt** out) const;

 private:
  /// Calls fn(def index) for each definition of `var` reaching `node`.
  template <typename Fn>
  void forEachReaching(int node, int var, Fn&& fn) const;

  const VarIndex* index_ = nullptr;
  std::vector<Definition> defs_;  // entry definitions first, then by node
  std::vector<std::size_t> defsOfStart_;  // per variable, into defsOf_
  std::vector<int> defsOf_;               // ascending per variable
  std::vector<DenseBitSet> out_;          // per CFG node
};

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_REACHING_H
