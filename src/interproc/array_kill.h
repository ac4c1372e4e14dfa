#ifndef PS_INTERPROC_ARRAY_KILL_H
#define PS_INTERPROC_ARRAY_KILL_H

#include <string>
#include <vector>

#include "dependence/graph.h"
#include "ir/model.h"

namespace ps::interproc {

/// One array found privatizable for a loop by array kill analysis: every
/// read of the array inside an iteration is covered by a write earlier in
/// the same iteration, so the array's values never cross iterations — the
/// slab2d/arc3d temporary-array pattern Table 3 reports as "needed".
struct ArrayKill {
  fortran::StmtId loop = fortran::kInvalidStmt;
  std::string array;
  /// True when the covering write sits inside a procedure invoked in the
  /// loop (the arc3d case: "an array is killed inside a procedure invoked
  /// in a loop, so interprocedural array kill analysis is required").
  bool interprocedural = false;
};

/// Find arrays privatizable per-iteration in each loop of a procedure.
/// `ctx` (may be null) supplies the callee KILL oracle, symbolic relations
/// (e.g. arc3d's JM = JMAX - 1, substituted into subscripts), and user
/// facts. Coverage of reads by writes is decided with the same
/// Fourier–Motzkin machinery the dependence tests use.
[[nodiscard]] std::vector<ArrayKill> findArrayKills(
    ir::ProcedureModel& model, const dep::DependenceGraph& graph,
    const dep::AnalysisContext* ctx = nullptr);

}  // namespace ps::interproc

#endif  // PS_INTERPROC_ARRAY_KILL_H
