#ifndef PS_DEPENDENCE_DEP_H
#define PS_DEPENDENCE_DEP_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fortran/ast.h"

namespace ps::dep {

/// Dependence classes, as displayed in PED's TYPE column.
enum class DepType {
  True,     // flow: write then read
  Anti,     // read then write
  Output,   // write then write
  Input,    // read then read (tracked for locality work, never inhibits)
  Control,  // control dependence
};

const char* depTypeName(DepType t);

/// Direction of a dependence with respect to one loop.
enum class Direction : std::uint8_t {
  Lt,    // '<' : carried forward
  Eq,    // '='
  Gt,    // '>'
  Le,    // '<='
  Ge,    // '>='
  Star,  // '*' : unknown
};

const char* directionName(Direction d);

/// Per-loop direction/distance information for a dependence.
struct DependenceVector {
  std::vector<Direction> dirs;
  /// Known constant distance per level (nullopt = unknown).
  std::vector<std::optional<long long>> dists;

  [[nodiscard]] std::string str() const;
};

/// PED's dependence marking: "The system marks each dependence as either
/// proven, pending, accepted or rejected."
enum class DepMark {
  Proven,    // an exact dependence test proved it exists
  Pending,   // assumed because analysis could not prove otherwise
  Accepted,  // user confirmed a pending dependence
  Rejected,  // user asserted it does not exist (disregarded, but kept)
};

const char* depMarkName(DepMark m);

/// Which builder section produced an edge: array pairs (the expensive
/// section, whose tests the memo answers), scalars, control or call sites.
/// Dynamic validation reads it, and graph slices and snapshots record it.
enum class DepOrigin : std::uint8_t {
  ArrayPair,
  Scalar,
  Control,
  CallSite,
};

/// One dependence edge.
struct Dependence {
  std::uint32_t id = 0;
  DepType type = DepType::True;
  fortran::StmtId srcStmt = fortran::kInvalidStmt;
  fortran::StmtId dstStmt = fortran::kInvalidStmt;
  /// The source/sink reference expressions (null for control deps and
  /// whole-variable call summaries).
  const fortran::Expr* srcRef = nullptr;
  const fortran::Expr* dstRef = nullptr;
  std::string variable;  // empty for control deps

  /// Carrier: 0 = loop-independent, k = carried by the k-th loop of the
  /// common nest (1 = outermost common loop).
  int level = 0;
  /// The DO statement of the carrier loop (invalid when loop-independent).
  fortran::StmtId carrierLoop = fortran::kInvalidStmt;
  /// The innermost loop containing both endpoints (invalid if none).
  fortran::StmtId commonLoop = fortran::kInvalidStmt;

  DependenceVector vector;
  DepMark mark = DepMark::Pending;
  DepOrigin origin = DepOrigin::ArrayPair;
  std::string reason;  // editable annotation, as in PED's REASON column
  /// Dynamic-validation evidence: how a trace or relative execution
  /// confirmed, refuted or failed to check this edge ("trace: witness …",
  /// "trace: no witness in N events", "unvalidated: …"). Empty until a
  /// validation pass touches the edge; persisted with the graph slice so
  /// evidence survives the program database round trip.
  std::string evidence;

  /// True when one endpoint summarizes accesses inside a callee
  /// (interprocedural side-effect dependence).
  bool interprocedural = false;

  /// True when an analysis budget ran out while testing this pair: the edge
  /// is assumed, not proven, and might disappear with a larger budget. The
  /// session surfaces these through degradationReport().
  bool degraded = false;

  [[nodiscard]] bool loopCarried() const { return level > 0; }
  /// A dependence the parallelizer must honor: rejected edges are
  /// disregarded ("they remain in the system so the user can reconsider").
  [[nodiscard]] bool active() const { return mark != DepMark::Rejected; }
  /// Inhibits parallelization of its carrier loop.
  [[nodiscard]] bool inhibitsParallelism() const {
    return active() && loopCarried() && type != DepType::Input;
  }
};

}  // namespace ps::dep

#endif  // PS_DEPENDENCE_DEP_H
