#include "dataflow/linear.h"

#include "ir/refs.h"

namespace ps::dataflow {

using fortran::BinOp;
using fortran::Expr;
using fortran::ExprKind;
using fortran::UnOp;

LinearExpr& LinearExpr::add(const LinearExpr& o, long long scale) {
  affine = affine && o.affine;
  hasIndexArray = hasIndexArray || o.hasIndexArray;
  hasCall = hasCall || o.hasCall;
  degraded = degraded || o.degraded;
  constant += scale * o.constant;
  for (const auto& [v, c] : o.coef) {
    long long nc = coefOf(v) + scale * c;
    if (nc == 0) {
      coef.erase(v);
    } else {
      coef[v] = nc;
    }
  }
  return *this;
}

std::string LinearExpr::str() const {
  if (!affine) return "<nonlinear>";
  std::string out;
  for (const auto& [v, c] : coef) {
    if (!out.empty()) out += " + ";
    if (c == 1) {
      out += v;
    } else {
      out += std::to_string(c) + "*" + v;
    }
  }
  if (constant != 0 || out.empty()) {
    if (!out.empty()) out += " + ";
    out += std::to_string(constant);
  }
  return out;
}

LinearExpr linearize(const Expr& e,
                     const std::map<std::string, LinearExpr>& substitute) {
  LinearExpr out;
  switch (e.kind) {
    case ExprKind::IntConst:
      out.constant = e.intValue;
      return out;
    case ExprKind::RealConst:
      // Real-valued subscripts do not occur in valid Fortran; treat a whole
      // real constant as non-affine so tests stay conservative.
      out.affine = false;
      return out;
    case ExprKind::VarRef: {
      auto it = substitute.find(e.name);
      if (it != substitute.end()) return it->second;
      out.coef[e.name] = 1;
      return out;
    }
    case ExprKind::ArrayRef:
      out.affine = false;
      out.hasIndexArray = true;
      return out;
    case ExprKind::FuncCall:
      out.affine = false;
      out.hasCall = true;
      // A non-intrinsic name with arguments in a subscript is
      // indistinguishable from an index array without a declaration; flag it
      // as one so Table 3's index-array detection stays robust.
      if (!ir::isIntrinsic(e.name)) out.hasIndexArray = true;
      return out;
    case ExprKind::Unary: {
      LinearExpr v = linearize(*e.lhs, substitute);
      if (e.unOp == UnOp::Neg) {
        LinearExpr neg;
        neg.add(v, -1);
        return neg;
      }
      if (e.unOp == UnOp::Plus) return v;
      v.affine = false;  // .NOT. in a subscript — nonsense, stay safe
      return v;
    }
    case ExprKind::Binary: {
      LinearExpr l = linearize(*e.lhs, substitute);
      LinearExpr r = linearize(*e.rhs, substitute);
      switch (e.binOp) {
        case BinOp::Add:
          return l.add(r, 1);
        case BinOp::Sub:
          return l.add(r, -1);
        case BinOp::Mul: {
          // Linear only when one side is a pure constant.
          if (l.affine && l.isConstant()) {
            LinearExpr scaled;
            scaled.add(r, l.constant);
            scaled.hasIndexArray |= l.hasIndexArray;
            scaled.hasCall |= l.hasCall;
            return scaled;
          }
          if (r.affine && r.isConstant()) {
            LinearExpr scaled;
            scaled.add(l, r.constant);
            scaled.hasIndexArray |= r.hasIndexArray;
            scaled.hasCall |= r.hasCall;
            return scaled;
          }
          LinearExpr bad;
          bad.affine = false;
          bad.hasIndexArray = l.hasIndexArray || r.hasIndexArray;
          bad.hasCall = l.hasCall || r.hasCall;
          return bad;
        }
        case BinOp::Div: {
          // Exact division of a constant-only form by a constant.
          if (l.affine && r.affine && r.isConstant() && r.constant != 0 &&
              l.isConstant() && l.constant % r.constant == 0) {
            LinearExpr q;
            q.constant = l.constant / r.constant;
            return q;
          }
          LinearExpr bad;
          bad.affine = false;
          bad.hasIndexArray = l.hasIndexArray || r.hasIndexArray;
          bad.hasCall = l.hasCall || r.hasCall;
          return bad;
        }
        default: {
          LinearExpr bad;
          bad.affine = false;
          bad.hasIndexArray = l.hasIndexArray || r.hasIndexArray;
          bad.hasCall = l.hasCall || r.hasCall;
          return bad;
        }
      }
    }
    default:
      out.affine = false;
      return out;
  }
}

LinearExpr subtract(const LinearExpr& a, const LinearExpr& b) {
  LinearExpr out = a;
  out.add(b, -1);
  return out;
}

}  // namespace ps::dataflow
