#ifndef PS_DATAFLOW_LINEAR_H
#define PS_DATAFLOW_LINEAR_H

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fortran/ast.h"

namespace ps::dataflow {

/// A linear (affine) form: sum of coef*var terms plus a constant. Variables
/// include loop induction variables *and* symbolic terms (loop-invariant
/// scalars like MCN or JMAX). Dependence tests treat induction variables
/// specially and cancel identical symbolic terms across a subscript pair —
/// the Goff–Kennedy–Tseng treatment of symbolics.
struct LinearExpr {
  std::map<std::string, long long> coef;  // var -> coefficient (non-zero)
  long long constant = 0;

  /// Set when the expression could not be fully linearized.
  bool affine = true;
  /// An array reference appears inside the expression (index array — the
  /// dpmin IT(N)/JT(N)/KT(N) pattern the paper calls out).
  bool hasIndexArray = false;
  /// A function call appears inside the expression.
  bool hasCall = false;
  /// An analysis budget was exhausted while building this form (e.g. the
  /// linearizer's node cap); the form is still sound but deliberately
  /// coarser than the source warranted.
  bool degraded = false;

  [[nodiscard]] long long coefOf(const std::string& v) const {
    auto it = coef.find(v);
    return it == coef.end() ? 0 : it->second;
  }

  LinearExpr& add(const LinearExpr& o, long long scale = 1);
  [[nodiscard]] bool isConstant() const { return affine && coef.empty(); }

  [[nodiscard]] std::string str() const;
  [[nodiscard]] bool operator==(const LinearExpr& o) const {
    return affine == o.affine && coef == o.coef && constant == o.constant;
  }
};

/// Linearize an expression. `substitute` maps auxiliary variables to their
/// own linear forms (auxiliary induction variables, propagated symbolic
/// relations like JM = JMAX - 1, and constants from constant propagation);
/// it is applied transitively by the caller building the map.
[[nodiscard]] LinearExpr linearize(
    const fortran::Expr& e,
    const std::map<std::string, LinearExpr>& substitute = {});

/// Difference a - b with symbolic cancellation.
[[nodiscard]] LinearExpr subtract(const LinearExpr& a, const LinearExpr& b);

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_LINEAR_H
