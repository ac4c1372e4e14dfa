#ifndef PS_PED_PERFEST_H
#define PS_PED_PERFEST_H

#include <map>
#include <string>
#include <vector>

#include "dataflow/constants.h"
#include "ir/model.h"

namespace ps::ped {

/// One ranked loop from the static performance estimator — the navigation
/// aid every workshop user asked for ("similar profiling or static
/// performance estimation be integrated into PED to help focus user
/// attention on the loops where effective parallelization would have the
/// highest payoff"). ParaScope added exactly this [26].
struct LoopEstimate {
  fortran::StmtId loop = fortran::kInvalidStmt;
  std::string procedure;
  std::string headline;
  /// Estimated dynamic operation count for one entry of the loop.
  double cost = 0.0;
  /// Estimated trip count (constant-folded bound, or the default guess).
  double trips = 0.0;
  int level = 1;
  /// cost / total procedure cost.
  double fraction = 0.0;
};

struct EstimatorOptions {
  /// Trip count assumed when bounds are not compile-time constants.
  double defaultTripCount = 64.0;
  /// Cost charged for a call to an unknown (library) routine.
  double unknownCallCost = 25.0;
  /// Number of processors assumed when estimating parallel speedup.
  double processors = 8.0;
};

/// Static performance estimation over one procedure. Costs: one unit per
/// arithmetic operation / memory reference, loops multiply by estimated
/// trip counts, calls charge the callee's estimate (call graph supplied by
/// the caller via `procedureCosts`).
class PerformanceEstimator {
 public:
  PerformanceEstimator(ir::ProcedureModel& model,
                       const EstimatorOptions& opts = {},
                       const std::map<std::string, double>* procedureCosts =
                           nullptr);

  /// Total estimated cost of one execution of the procedure.
  [[nodiscard]] double procedureCost() const { return total_; }

  /// Per-loop estimates, sorted by descending cost — the pane ordering.
  [[nodiscard]] const std::vector<LoopEstimate>& loops() const {
    return loops_;
  }

  /// Estimated speedup from running this loop's iterations on P processors
  /// (Amdahl over the procedure; the paper's estimator predicts "the
  /// relative execution time of loops and subroutines in parallel
  /// programs").
  [[nodiscard]] double parallelSpeedup(fortran::StmtId loop) const;

 private:
  double stmtCost(const fortran::Stmt& s,
                  const dataflow::ConstantAnalysis& constants);
  double exprCost(const fortran::Expr& e) const;
  double tripCount(const fortran::Stmt& doStmt,
                   const dataflow::ConstantAnalysis& constants) const;

  ir::ProcedureModel& model_;
  EstimatorOptions opts_;
  const std::map<std::string, double>* procCosts_;
  double total_ = 0.0;
  std::vector<LoopEstimate> loops_;
  std::map<fortran::StmtId, double> loopCost_;
};

}  // namespace ps::ped

#endif  // PS_PED_PERFEST_H
