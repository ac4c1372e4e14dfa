#include "dependence/fm.h"

#include <numeric>
#include <set>
#include <vector>

namespace ps::dep {

using dataflow::LinearExpr;

std::string Constraint::str() const {
  const char* rel = kind == Kind::Ge0 ? " >= 0"
                    : kind == Kind::Gt0 ? " > 0"
                                        : " == 0";
  return expr.str() + rel;
}

FourierMotzkin::FourierMotzkin(std::vector<Constraint> constraints,
                               FmBudget budget)
    : budget_(budget) {
  solve(std::move(constraints));
}

namespace {

long long gcdAll(const LinearExpr& e) {
  long long g = 0;
  for (const auto& [v, c] : e.coef) {
    (void)v;
    g = std::gcd(g, c < 0 ? -c : c);
  }
  return g;
}

}  // namespace

void FourierMotzkin::solve(std::vector<Constraint> cs) {
  // Normalize: integer Gt0 -> Ge0 with constant-1; Eq0 -> GCD check + two
  // Ge0 constraints.
  std::vector<LinearExpr> ge;  // each means expr >= 0
  for (auto& c : cs) {
    if (!c.expr.affine) continue;  // cannot reason about it: drop (sound)
    switch (c.kind) {
      case Constraint::Kind::Gt0: {
        LinearExpr e = c.expr;
        e.constant -= 1;
        ge.push_back(std::move(e));
        break;
      }
      case Constraint::Kind::Ge0:
        ge.push_back(c.expr);
        break;
      case Constraint::Kind::Eq0: {
        long long g = gcdAll(c.expr);
        if (g == 0) {
          // No variables: constant must be exactly 0.
          if (c.expr.constant != 0) {
            infeasible_ = true;
            return;
          }
          break;
        }
        if (c.expr.constant % g != 0) {
          // GCD test: sum of coef*x cannot produce -constant.
          infeasible_ = true;
          return;
        }
        ge.push_back(c.expr);
        LinearExpr neg;
        neg.add(c.expr, -1);
        ge.push_back(std::move(neg));
        break;
      }
    }
  }

  // Collect variables.
  std::set<std::string> vars;
  for (const auto& e : ge) {
    for (const auto& [v, c] : e.coef) {
      (void)c;
      vars.insert(v);
    }
  }

  for (const std::string& v : vars) {
    if (eliminations_ >= budget_.maxEliminations) {
      // Budget exhausted before the system was decided: assume feasible
      // (sound) and tell the caller the answer is conservative.
      degraded_ = true;
      return;
    }
    std::vector<LinearExpr> lower, upper, rest;
    for (const auto& e : ge) {
      long long a = e.coefOf(v);
      if (a > 0) {
        lower.push_back(e);
      } else if (a < 0) {
        upper.push_back(e);
      } else {
        rest.push_back(e);
      }
    }
    ++eliminations_;
    // Combine every lower with every upper bound:
    //   L: a*v + rl >= 0 (a>0)    =>  v >= -rl/a
    //   U: -b*v + ru >= 0 (b>0)   =>  v <= ru/b
    //   feasible v exists iff b*rl + a*ru >= 0... careful with signs:
    //   combine: b*L + a*U eliminates v:  b*rl + a*ru >= 0 where
    //   rl = L - a*v, ru = U + b*v. Equivalently b*L + a*U with the v terms
    //   cancelling.
    for (const auto& lo : lower) {
      long long a = lo.coefOf(v);
      for (const auto& up : upper) {
        long long b = -up.coefOf(v);
        LinearExpr combined;
        combined.add(lo, b);
        combined.add(up, a);
        // v coefficient: b*a + a*(-b) = 0 by construction.
        rest.push_back(std::move(combined));
        if (rest.size() > budget_.maxConstraints) {
          // Blowup guard: give up (assume feasible — sound) and report it.
          degraded_ = true;
          return;
        }
      }
    }
    ge = std::move(rest);
    // Early exit: constant-only contradictions.
    for (const auto& e : ge) {
      if (e.coef.empty() && e.constant < 0) {
        infeasible_ = true;
        return;
      }
    }
  }

  for (const auto& e : ge) {
    if (e.coef.empty() && e.constant < 0) {
      infeasible_ = true;
      return;
    }
  }
}

}  // namespace ps::dep
