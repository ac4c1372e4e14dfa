#include "interproc/array_kill.h"

#include <algorithm>
#include <map>
#include <set>

#include "dataflow/linear.h"
#include "dependence/fm.h"
#include "ir/refs.h"

namespace ps::interproc {

using dataflow::LinearExpr;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;
using ir::Loop;
using ir::Ref;
using ir::RefKind;

namespace {

/// Loops strictly inside `outer` that enclose `stmt`.
std::vector<const Loop*> innerChain(ir::ProcedureModel& model,
                                    const Loop* outer, const Stmt* stmt) {
  std::vector<const Loop*> chain;
  const Loop* l = model.enclosingLoop(stmt->id);
  while (l && l != outer) {
    chain.push_back(l);
    l = l->parent;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

/// Constraints binding a loop chain's normalized iteration variables (the
/// IVs themselves are used as FM variables, with lo <= iv <= hi).
void addLoopConstraints(const std::vector<const Loop*>& chain,
                        const std::map<std::string, LinearExpr>& subst,
                        std::vector<dep::Constraint>& cs, bool* ok) {
  for (const Loop* l : chain) {
    LinearExpr lo = dataflow::linearize(*l->stmt->doLo, subst);
    LinearExpr hi = dataflow::linearize(*l->stmt->doHi, subst);
    if (!lo.affine || !hi.affine) {
      *ok = false;
      return;
    }
    LinearExpr lower;
    lower.coef[l->inductionVar()] = 1;
    lower.add(lo, -1);
    cs.push_back(dep::Constraint::ge0(std::move(lower)));
    LinearExpr upper = hi;
    upper.coef[l->inductionVar()] -= 1;
    if (upper.coef[l->inductionVar()] == 0) {
      upper.coef.erase(l->inductionVar());
    }
    cs.push_back(dep::Constraint::ge0(std::move(upper)));
  }
}

/// Widen a subscript over a loop chain into [lo, hi] forms; false on
/// failure or when leftover variables are iteration-variant in `outer`.
bool widen(const Expr& sub, const std::vector<const Loop*>& chain,
           const std::set<std::string>& variantInOuter,
           const std::map<std::string, LinearExpr>& subst, LinearExpr* loOut,
           LinearExpr* hiOut) {
  LinearExpr f = dataflow::linearize(sub, subst);
  if (!f.affine) return false;
  LinearExpr lo = f, hi = f;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Loop* l = *it;
    const std::string& iv = l->inductionVar();
    long long cl = lo.coefOf(iv), ch = hi.coefOf(iv);
    if (cl == 0 && ch == 0) continue;
    LinearExpr lob = dataflow::linearize(*l->stmt->doLo, subst);
    LinearExpr hib = dataflow::linearize(*l->stmt->doHi, subst);
    if (!lob.affine || !hib.affine) return false;
    if (l->stmt->doStep && !l->stmt->doStep->isIntConst(1)) return false;
    if (cl != 0) {
      lo.coef.erase(iv);
      lo.add(cl > 0 ? lob : hib, cl);
    }
    if (ch != 0) {
      hi.coef.erase(iv);
      hi.add(ch > 0 ? hib : lob, ch);
    }
  }
  for (const auto& [v, c] : lo.coef) {
    (void)c;
    if (variantInOuter.count(v)) return false;
  }
  for (const auto& [v, c] : hi.coef) {
    (void)c;
    if (variantInOuter.count(v)) return false;
  }
  *loOut = std::move(lo);
  *hiOut = std::move(hi);
  return true;
}

/// Is the read subscript provably within [lo, hi] for every iteration of
/// its inner loops? `facts` carry non-emptiness assumptions (hi - lo >= 0
/// for the writing loops: if the covering write never executed the read
/// would see undefined storage anyway, the classical array-kill caveat).
bool covered(const Expr& readSub, const std::vector<const Loop*>& readChain,
             const LinearExpr& lo, const LinearExpr& hi,
             const std::map<std::string, LinearExpr>& subst,
             const std::vector<dep::Constraint>& facts) {
  LinearExpr f = dataflow::linearize(readSub, subst);
  if (!f.affine) return false;
  // Below-lower violation: f <= lo - 1 feasible?
  {
    std::vector<dep::Constraint> cs = facts;
    bool ok = true;
    addLoopConstraints(readChain, subst, cs, &ok);
    if (!ok) return false;
    LinearExpr viol = lo;
    viol.add(f, -1);  // lo - f >= 1
    cs.push_back(dep::Constraint::gt0(std::move(viol)));
    dep::FourierMotzkin fm(std::move(cs));
    if (!fm.infeasible()) return false;
  }
  // Above-upper violation: f >= hi + 1 feasible?
  {
    std::vector<dep::Constraint> cs = facts;
    bool ok = true;
    addLoopConstraints(readChain, subst, cs, &ok);
    if (!ok) return false;
    LinearExpr viol = f;
    viol.add(hi, -1);  // f - hi >= 1
    cs.push_back(dep::Constraint::gt0(std::move(viol)));
    dep::FourierMotzkin fm(std::move(cs));
    if (!fm.infeasible()) return false;
  }
  return true;
}

}  // namespace

std::vector<ArrayKill> findArrayKills(ir::ProcedureModel& model,
                                      const dep::DependenceGraph& graph,
                                      const dep::AnalysisContext* ctx) {
  std::vector<ArrayKill> out;
  const fortran::Procedure& proc = model.procedure();
  const dep::SideEffectOracle* oracle = ctx ? ctx->oracle : nullptr;

  // Symbolic relations become a substitution so related names (JM vs JMAX)
  // compare in one namespace; user facts join the coverage prover.
  std::map<std::string, LinearExpr> subst;
  std::vector<dep::Constraint> userFacts;
  if (ctx) {
    for (const auto& r : ctx->inheritedRelations) subst[r.name] = r.value;
    for (const auto& f : ctx->facts) {
      userFacts.push_back(f.strict ? dep::Constraint::gt0(f.expr)
                                   : dep::Constraint::ge0(f.expr));
    }
  }

  for (const auto& loopPtr : model.loops()) {
    const Loop* loop = loopPtr.get();

    // Arrays whose carried dependences serialize this loop.
    std::set<std::string> candidates;
    for (const auto* d : graph.parallelismInhibitors(*loop)) {
      const fortran::VarDecl* decl = proc.findDecl(d->variable);
      if (decl && decl->isArray()) candidates.insert(d->variable);
    }
    if (candidates.empty()) continue;

    // Iteration-variant names of this loop.
    std::set<std::string> variant;
    variant.insert(loop->inductionVar());
    for (const Stmt* s : loop->bodyStmts) {
      for (const Ref& r : ir::collectRefs(*s)) {
        if (r.isWrite()) variant.insert(r.name);
      }
    }

    for (const std::string& array : candidates) {
      // Walk the loop's immediate body in order; the first statement (or
      // statement group) touching the array must write a coverable section
      // with no prior read.
      bool interproc = false;
      bool haveSection = false;
      std::vector<std::pair<LinearExpr, LinearExpr>> sectionDims;
      std::vector<dep::Constraint> nonEmpty;  // hi - lo >= 0 per dim
      bool killed = true;
      bool sawAccess = false;
      auto rebuildNonEmpty = [&] {
        // Accumulate: every section version's non-emptiness remains a valid
        // assumption (each covering write loop executed).
        for (const auto& [lo, hi] : sectionDims) {
          LinearExpr span = hi;
          span.add(lo, -1);
          nonEmpty.push_back(dep::Constraint::ge0(std::move(span)));
        }
      };
      auto allFacts = [&] {
        std::vector<dep::Constraint> facts = nonEmpty;
        facts.insert(facts.end(), userFacts.begin(), userFacts.end());
        return facts;
      };
      // Prove a linear inequality e >= 0 under the current facts (its
      // negation must be infeasible).
      auto proves = [&](LinearExpr e) {
        std::vector<dep::Constraint> cs = allFacts();
        LinearExpr neg;
        neg.add(e, -1);  // -e >= 1  i.e.  e <= -1
        cs.push_back(dep::Constraint::gt0(std::move(neg)));
        dep::FourierMotzkin fm(std::move(cs));
        return fm.infeasible();
      };
      // A later write extends the killed section when it is adjacent or
      // overlapping (arc3d's boundary-row copy WR1(JMAX,K) extends
      // [1, JM] to [1, JMAX] given JM = JMAX - 1).
      auto extendSection = [&](const Stmt* wstmt, const Expr* wref) {
        auto chain = innerChain(model, loop, wstmt);
        for (std::size_t dmn = 0;
             dmn < wref->args.size() && dmn < sectionDims.size(); ++dmn) {
          LinearExpr wlo, whi;
          if (!widen(*wref->args[dmn], chain, variant, subst, &wlo, &whi)) {
            continue;
          }
          auto& [lo, hi] = sectionDims[dmn];
          // Upward: wlo <= hi + 1 and whi >= hi  =>  hi := whi.
          LinearExpr adjacency = hi;   // hi + 1 - wlo >= 0
          adjacency.add(wlo, -1);
          adjacency.constant += 1;
          LinearExpr growth = whi;     // whi - hi >= 0
          growth.add(hi, -1);
          if (proves(adjacency) && proves(growth)) {
            hi = whi;
            rebuildNonEmpty();
            continue;
          }
          // Downward: whi >= lo - 1 and wlo <= lo  =>  lo := wlo.
          LinearExpr adjacency2 = whi;  // whi - lo + 1 >= 0
          adjacency2.add(lo, -1);
          adjacency2.constant += 1;
          LinearExpr growth2 = lo;      // lo - wlo >= 0
          growth2.add(wlo, -1);
          if (proves(adjacency2) && proves(growth2)) {
            lo = wlo;
            rebuildNonEmpty();
          }
        }
      };

      for (const auto& topPtr : loop->stmt->body) {
        const Stmt* top = topPtr.get();
        // Collect this group's reads and writes of the array, in textual
        // order within the group.
        struct Access {
          const Stmt* stmt;
          const Expr* ref;
          bool write;
        };
        std::vector<Access> accesses;
        top->forEach([&](const Stmt& s) {
          for (const Ref& r : ir::collectRefs(s)) {
            if (r.name != array) continue;
            if (r.kind == RefKind::CallActual) {
              accesses.push_back({&s, r.expr, true});  // resolved below
            } else if (r.isArrayRef()) {
              accesses.push_back({&s, r.expr, r.isWrite()});
            }
          }
        });
        if (accesses.empty()) continue;

        if (!sawAccess) {
          sawAccess = true;
          // The first accessing group must establish the killed section.
          const Stmt* first = accesses.front().stmt;
          if (first->kind == StmtKind::Call && oracle) {
            bool resolved = false;
            for (const auto& callee : ir::calledFunctions(*first)) {
              if (!oracle->knowsCallee(callee)) continue;
              for (const auto& e : oracle->effectsOfCall(*first, callee)) {
                if (e.var != array || !e.mayWrite || !e.kills ||
                    !e.section) {
                  continue;
                }
                sectionDims.clear();
                bool all = true;
                for (const auto& dPtr : e.section->dims) {
                  if (!dPtr || !dPtr->lo || !dPtr->hi) {
                    all = false;
                    break;
                  }
                  LinearExpr lo = dataflow::linearize(*dPtr->lo);
                  LinearExpr hi = dataflow::linearize(*dPtr->hi);
                  if (!lo.affine || !hi.affine) {
                    all = false;
                    break;
                  }
                  sectionDims.emplace_back(std::move(lo), std::move(hi));
                }
                if (all) {
                  haveSection = true;
                  interproc = true;
                  resolved = true;
                  rebuildNonEmpty();
                }
              }
            }
            if (!resolved) {
              killed = false;
              break;
            }
            continue;
          }
          // A direct write group: no read may precede the write, and the
          // write's section must widen cleanly.
          if (!accesses.front().write) {
            killed = false;
            break;
          }
          const Expr* w = accesses.front().ref;
          auto chain = innerChain(model, loop, accesses.front().stmt);
          sectionDims.clear();
          bool all = true;
          for (const auto& sub : w->args) {
            LinearExpr lo, hi;
            if (!widen(*sub, chain, variant, subst, &lo, &hi)) {
              all = false;
              break;
            }
            sectionDims.emplace_back(std::move(lo), std::move(hi));
          }
          if (!all) {
            killed = false;
            break;
          }
          haveSection = true;
          rebuildNonEmpty();
          // Reads inside the same group must also be covered (e.g. the
          // write loop reads what it already wrote) — check them below
          // like any other read, except the very first access.
          for (std::size_t k = 1; k < accesses.size(); ++k) {
            if (accesses[k].write) continue;
            auto rc = innerChain(model, loop, accesses[k].stmt);
            const Expr* r = accesses[k].ref;
            for (std::size_t dmn = 0;
                 dmn < r->args.size() && dmn < sectionDims.size(); ++dmn) {
              if (!covered(*r->args[dmn], rc, sectionDims[dmn].first,
                           sectionDims[dmn].second, subst, allFacts())) {
                killed = false;
              }
            }
          }
          if (!killed) break;
          continue;
        }

        // Later groups: writes may extend the killed section; every read
        // must be covered by it.
        if (!haveSection) {
          killed = false;
          break;
        }
        for (const auto& acc : accesses) {
          if (acc.write && acc.ref) {
            extendSection(acc.stmt, acc.ref);
            continue;
          }
          if (acc.write) continue;
          auto rc = innerChain(model, loop, acc.stmt);
          const Expr* r = acc.ref;
          if (!r) {
            killed = false;
            break;
          }
          for (std::size_t dmn = 0;
               dmn < r->args.size() && dmn < sectionDims.size(); ++dmn) {
            if (!covered(*r->args[dmn], rc, sectionDims[dmn].first,
                         sectionDims[dmn].second, subst, allFacts())) {
              killed = false;
            }
          }
        }
        if (!killed) break;
      }

      if (sawAccess && haveSection && killed) {
        out.push_back({loop->stmt->id, array, interproc});
      }
    }
  }
  return out;
}

}  // namespace ps::interproc
