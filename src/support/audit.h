#ifndef PS_SUPPORT_AUDIT_H
#define PS_SUPPORT_AUDIT_H

#include <string>
#include <vector>

#include "dependence/graph.h"
#include "fortran/ast.h"
#include "ir/model.h"

namespace ps::audit {

/// How much checking to pay for. Cheap covers the structural invariants
/// that every edit/transform must preserve (id uniqueness, AST shape,
/// loop-tree agreement, dependence-edge liveness) and is fast enough to run
/// after every mutation. Deep adds the pretty-print -> re-parse round trip,
/// intended for tests and the fuzz harness.
enum class Depth { Cheap, Deep };

/// One invariant violation: which check tripped and where.
struct Violation {
  std::string check;   // "stmt-id-unique", "ast-shape", ...
  std::string detail;

  [[nodiscard]] std::string str() const { return check + ": " + detail; }
};

/// The outcome of an audit pass over the program database.
struct Report {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  void add(std::string check, std::string detail) {
    violations.push_back({std::move(check), std::move(detail)});
  }
  void merge(Report other) {
    for (auto& v : other.violations) violations.push_back(std::move(v));
  }
  [[nodiscard]] std::string str() const;
};

/// Program-wide invariants: every statement id is valid, unique across all
/// units, and below the program's id counter; every statement has the
/// operands its kind requires (an Assign has both sides, a DO has a
/// variable and bounds, IF arms have conditions). These hold even for the
/// partial programs produced by error recovery — the parser never emits a
/// malformed statement node.
void auditProgram(const fortran::Program& prog, Report& out);

/// Loop-tree/AST agreement: the model's pre-order statement index matches a
/// fresh traversal of the procedure, every DO statement has exactly one
/// loop-tree node, and loop parent/level links are consistent. Run against
/// a workspace's model after each incremental reanalysis.
void auditModel(const ir::ProcedureModel& model, Report& out);

/// Dependence-graph consistency with the model it was built against: edge
/// endpoints and carrier loops name live statements, edge ids are unique,
/// levels fit the direction vectors.
void auditGraph(const dep::DependenceGraph& graph,
                const ir::ProcedureModel& model, Report& out);

/// Deep check: pretty-print the program and re-parse it; the result must
/// parse without errors and agree unit-for-unit on the executable statement
/// kind sequence. Catches printer/parser drift that would corrupt the
/// source pane's edit cycle.
void auditRoundTrip(const fortran::Program& prog, Report& out);

/// Convenience: the whole battery at the given depth. Model/graph checks
/// are the caller's to add per workspace (they need the analysis state).
[[nodiscard]] Report auditAll(const fortran::Program& prog, Depth depth);

}  // namespace ps::audit

#endif  // PS_SUPPORT_AUDIT_H
