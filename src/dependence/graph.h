#ifndef PS_DEPENDENCE_GRAPH_H
#define PS_DEPENDENCE_GRAPH_H

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cfg/control_dep.h"
#include "cfg/flow_graph.h"
#include "dataflow/privatize.h"
#include "dataflow/symbolic.h"
#include "dependence/dep.h"
#include "dependence/section.h"
#include "dependence/subscript.h"
#include "dependence/testsuite.h"
#include "ir/model.h"

namespace ps::support {
class TaskPool;
}

namespace ps::dep {

/// User-editable analysis context: assertions and variable classification
/// overrides sharpen the graph. After an edit PED rebuilds only the dirty
/// procedures, and the memo answers every test whose inputs did not change.
struct AnalysisContext {
  /// Linear facts from assertions and relations (shared symbol namespace
  /// with the subscript linearizer).
  std::vector<Fact> facts;
  IndexArrayFacts indexFacts;
  /// Per-loop variable classification overrides: loop DO-stmt id -> name ->
  /// force-private? (true = treat as private, false = force shared).
  std::map<fortran::StmtId, std::map<std::string, bool>> classificationOverrides;
  /// Interprocedural side-effect oracle; may be null.
  const SideEffectOracle* oracle = nullptr;
  /// Constants inherited from callers (interprocedural constant
  /// propagation).
  std::map<std::string, long long> inheritedConstants;
  /// Symbolic relations valid on entry (interprocedural symbolic
  /// propagation, e.g. arc3d's JM = JMAX - 1 established in an init
  /// routine).
  std::vector<dataflow::Relation> inheritedRelations;
  /// Ablation: disable the cheap-test tiers (A1).
  bool cheapTestsFirst = true;
  /// Ablation: pretend no symbolic relations/constants are available (A3).
  bool useSymbolicInfo = true;
  /// Ablation: disable scalar privatization (A3) — every scalar is shared.
  bool usePrivatization = true;

  /// Work limits for the dependence tiers, linearizer and symbolic analysis.
  /// Exhaustion degrades answers conservatively and is reported through
  /// TestStats / Dependence::degraded — never a silent timeout.
  AnalysisBudget budget;

  /// Cross-build memo table for dependence-test results, shared by the
  /// session across procedures and rebuilds — and, under the analysis
  /// server, across SESSIONS. Null = a transient per-build table
  /// (intra-build memoization only).
  std::shared_ptr<DepMemo> memo;
  /// Ablation: disable memoization entirely (A2 baseline).
  bool useMemo = true;
  /// Optional sink accumulating per-tier and memo counters across every
  /// build this context participates in (session-wide observability).
  TestStats* statsSink = nullptr;
  /// When set, the per-nest dependence-test batteries of a build fan out as
  /// tasks on this pool (each nest gets a private tester, opaque-term table
  /// and stats block; edges merge back in deterministic enumeration order,
  /// so the resulting graph is identical for any thread count). Null keeps
  /// the build fully sequential.
  support::TaskPool* pool = nullptr;
};

/// The dependence graph of one procedure, as PED computes and displays it.
class DependenceGraph {
 public:
  /// Run all supporting analyses and build the graph. Every build is a
  /// whole-procedure build: with a session memo in `ctx`, the tests of
  /// reference pairs whose inputs an edit left unchanged are answered from
  /// the memo instead of running again.
  static DependenceGraph build(ir::ProcedureModel& model,
                               const AnalysisContext& ctx = {});

  [[nodiscard]] const std::vector<Dependence>& all() const { return deps_; }
  [[nodiscard]] std::vector<Dependence>& allMutable() { return deps_; }

  /// Dependences whose endpoints both lie in the given loop (the dependence
  /// pane's progressive disclosure: "when the user expresses interest in a
  /// particular loop ... the selected loop's dependences immediately
  /// appear").
  [[nodiscard]] std::vector<const Dependence*> forLoop(
      const ir::Loop& loop) const;

  /// Dependences that inhibit parallelization of the loop: active
  /// loop-carried edges whose carrier is this loop.
  [[nodiscard]] std::vector<const Dependence*> parallelismInhibitors(
      const ir::Loop& loop) const;

  /// True when the loop may run its iterations in parallel under the
  /// current marking/classification.
  [[nodiscard]] bool parallelizable(const ir::Loop& loop) const;

  [[nodiscard]] Dependence* byId(std::uint32_t id);
  [[nodiscard]] const TestStats& stats() const { return stats_; }

  /// The statistics of supporting analyses, for Table 3 style reporting.
  struct Summary {
    int totalDeps = 0;
    int provenDeps = 0;
    int pendingDeps = 0;
    int carriedDeps = 0;
    int controlDeps = 0;
    int interprocDeps = 0;
    /// Edges assumed only because an analysis budget ran out.
    int degradedDeps = 0;
  };
  [[nodiscard]] Summary summary() const;

  /// Adopt a deserialized edge set (persistent-program-database warm
  /// start). The caller has already proven, via the store's content-hash
  /// key, that `deps` came from an identical build over an identical
  /// procedure and context. Stats stay zero: no tests ran here.
  static DependenceGraph restore(ir::ProcedureModel& model,
                                 std::vector<Dependence> deps,
                                 std::uint32_t nextEdgeId);

  /// The id the next inserted edge would receive (persisted so a restored
  /// graph keeps minting unique ids).
  [[nodiscard]] std::uint32_t nextEdgeId() const { return nextId_; }

 private:
  std::vector<Dependence> deps_;
  ir::ProcedureModel* model_ = nullptr;
  TestStats stats_;
  std::uint32_t nextId_ = 1;
};

}  // namespace ps::dep

#endif  // PS_DEPENDENCE_GRAPH_H
