#ifndef PS_FORTRAN_PRETTY_H
#define PS_FORTRAN_PRETTY_H

#include <map>
#include <string>

#include "fortran/ast.h"

namespace ps::fortran {

/// Pretty-printing options. PED displays source "in pretty-printed form";
/// the same printer also produces parseable text for round-trip tests and
/// for re-parsing after transformations.
struct PrettyOptions {
  /// Emit "PARALLEL DO" for loops marked parallel (PED's sequential<->
  /// parallel display); when false, parallel loops print as plain DO.
  bool emitParallelMarkers = true;
  /// OpenMP directive payload per DO statement id ("PARALLEL DO ..."
  /// without the "!$OMP " sentinel). Emitted immediately before the DO
  /// line, wrapped at the fixed-form 72-column limit with "!$OMP&"
  /// continuation lines. Not owned; may be null.
  const std::map<StmtId, std::string>* ompDirectives = nullptr;
};

[[nodiscard]] std::string printExpr(const Expr& e);
[[nodiscard]] std::string printStmt(const Stmt& s, int indent = 0,
                                    const PrettyOptions& opts = {});
[[nodiscard]] std::string printProcedure(const Procedure& proc,
                                         const PrettyOptions& opts = {});
[[nodiscard]] std::string printProgram(const Program& prog,
                                       const PrettyOptions& opts = {});

/// A single-line rendering of a statement header (DO/IF show only their
/// header, not the body) — used by the source pane.
[[nodiscard]] std::string stmtHeadline(const Stmt& s);

/// Render an OpenMP directive payload as fixed-form comment lines: the
/// first line is "!$OMP <payload...>", overflow beyond column 72 breaks at
/// clause/word boundaries onto "!$OMP& " continuation lines. Every
/// returned line ends with '\n' and fits in 72 columns (a single word too
/// long to fit is emitted whole rather than truncated).
[[nodiscard]] std::string wrapOmpDirective(const std::string& payload);

}  // namespace ps::fortran

#endif  // PS_FORTRAN_PRETTY_H
