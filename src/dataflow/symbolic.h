#ifndef PS_DATAFLOW_SYMBOLIC_H
#define PS_DATAFLOW_SYMBOLIC_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cfg/control_dep.h"
#include "dataflow/constants.h"
#include "dataflow/linear.h"
#include "dataflow/reaching.h"
#include "dataflow/varindex.h"
#include "support/bitset.h"

namespace ps::dataflow {

/// An auxiliary induction variable: a scalar updated exactly once per loop
/// iteration by V = V + stride (stride loop-invariant constant). Its value
/// at any statement is  V@entry + stride*(iteration count)  [+ stride if the
/// statement follows the update in the body].
struct AuxInduction {
  std::string name;
  long long stride = 0;
  const fortran::Stmt* update = nullptr;
};

/// A symbolic relation V = <linear form> valid throughout a loop (e.g. the
/// paper's arc3d fact JM = JMAX - 1). Sources: unique reaching assignments,
/// interprocedural propagation, and user assertions.
struct Relation {
  std::string name;
  LinearExpr value;

  [[nodiscard]] bool operator==(const Relation& o) const {
    return name == o.name && value == o.value;
  }
};

/// Per-procedure symbolic analysis: auxiliary induction variables,
/// loop-invariance, and equality relations that sharpen dependence testing.
class SymbolicAnalysis {
 public:
  /// `maxRelations` bounds the total number of relations kept across the
  /// whole procedure (0 = unlimited). When the cap is hit, further relations
  /// are dropped — dependence tests lose sharpening facts but stay sound —
  /// and `truncated()` reports it.
  static SymbolicAnalysis build(const VarIndex& index,
                                const ReachingDefs& reaching,
                                const ConstantAnalysis& constants,
                                const cfg::ControlDependence& cdeps,
                                const std::vector<Relation>& inherited = {},
                                std::size_t maxRelations = 0);

  /// Number of relations dropped by the `maxRelations` cap.
  [[nodiscard]] long long truncated() const { return truncated_; }

  /// True when `name` is a scalar defined anywhere inside the loop body
  /// (including call may-defs), or a whole array a call in the body may
  /// rewrite.
  [[nodiscard]] bool definedIn(const ir::Loop& loop,
                               const std::string& name) const;
  /// Every name definedIn(loop, name) holds for.
  [[nodiscard]] std::set<std::string> definedIn(const ir::Loop& loop) const;

  /// True when the expression's value cannot change during any iteration of
  /// the loop: no variable in it is defined in the loop, no user-function
  /// calls, and any array read is of an array not written in the loop.
  [[nodiscard]] bool isLoopInvariant(const fortran::Expr& e,
                                     const ir::Loop& loop) const;

  /// Auxiliary induction variables of the loop.
  [[nodiscard]] std::vector<AuxInduction> auxInductionsOf(
      const ir::Loop& loop) const;

  /// Equality relations valid at (every iteration of) the loop.
  [[nodiscard]] std::vector<Relation> relationsAt(const ir::Loop& loop) const;

  /// Build the substitution map used to linearize subscripts inside `loop`:
  /// constants fold to literals, related symbolics rewrite to their linear
  /// forms, auxiliary induction variables rewrite in terms of enclosing
  /// loop induction variables (`atStmt` decides before/after-update).
  [[nodiscard]] std::map<std::string, LinearExpr> substitutionFor(
      const ir::Loop& loop, const fortran::Stmt& atStmt) const;

 private:
  /// True when the loop's row in `rows` has `name`.
  [[nodiscard]] bool rowHas(
      const std::map<const ir::Loop*, DenseBitSet>& rows, const ir::Loop& loop,
      const std::string& name) const;

  const VarIndex* index_ = nullptr;
  const ConstantAnalysis* constants_ = nullptr;
  std::map<const ir::Loop*, DenseBitSet> definedIn_;      // over variables
  std::map<const ir::Loop*, DenseBitSet> arraysWritten_;  // over variables
  std::map<const ir::Loop*, std::vector<AuxInduction>> auxIvs_;
  std::map<const ir::Loop*, std::vector<Relation>> relations_;
  long long truncated_ = 0;
};

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_SYMBOLIC_H
