#include "dependence/graph.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "support/taskpool.h"

#include "dataflow/constants.h"
#include "dataflow/liveness.h"
#include "dataflow/reaching.h"
#include "dataflow/varindex.h"
#include "ir/refs.h"

namespace ps::dep {

using dataflow::ConstantAnalysis;
using dataflow::LinearExpr;
using dataflow::Liveness;
using dataflow::PrivatizationAnalysis;
using dataflow::PrivatizationStatus;
using dataflow::ReachingDefs;
using dataflow::SymbolicAnalysis;
using dataflow::VarIndex;
using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtId;
using fortran::StmtKind;
using ir::Loop;
using ir::Ref;
using ir::RefKind;

namespace {

struct ARef {
  const Stmt* stmt = nullptr;
  const Expr* expr = nullptr;
  bool write = false;
};

DepType typeOf(bool srcWrite, bool dstWrite) {
  if (srcWrite && dstWrite) return DepType::Output;
  if (srcWrite) return DepType::True;
  if (dstWrite) return DepType::Anti;
  return DepType::Input;
}

/// The chain of loops containing a statement, outermost first.
std::vector<const Loop*> loopChain(const ir::ProcedureModel& model,
                                   StmtId id) {
  const Loop* l = model.enclosingLoop(id);
  if (!l) return {};
  auto path = l->nestPath();
  return path;
}

/// Longest common prefix of two loop chains.
std::vector<const Loop*> commonNest(const std::vector<const Loop*>& a,
                                    const std::vector<const Loop*>& b) {
  std::vector<const Loop*> out;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) break;
    out.push_back(a[i]);
  }
  return out;
}

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Construct an array-pair/scalar/call-site edge. The id is NOT assigned
/// here: parallel per-nest tasks build edges into private vectors and the
/// deterministic merge numbers them in enumeration order.
Dependence makeDep(DepType type, const ARef& src, const ARef& dst,
                   const std::vector<const Loop*>& nest, int level,
                   const LevelResult& res, bool interproc, DepOrigin origin) {
  Dependence d;
  d.type = type;
  d.srcStmt = src.stmt->id;
  d.dstStmt = dst.stmt->id;
  d.srcRef = src.expr;
  d.dstRef = dst.expr;
  d.variable = src.expr   ? src.expr->name
               : dst.expr ? dst.expr->name
                          : "";
  d.level = level;
  d.commonLoop = nest.empty() ? fortran::kInvalidStmt
                              : nest.back()->stmt->id;
  if (level > 0) {
    d.carrierLoop = nest[static_cast<std::size_t>(level - 1)]->stmt->id;
  }
  d.vector.dirs.resize(nest.size(), Direction::Star);
  d.vector.dists.resize(nest.size());
  for (std::size_t k = 0; k < nest.size(); ++k) {
    if (level == 0 || static_cast<int>(k) < level - 1) {
      d.vector.dirs[k] = Direction::Eq;
      d.vector.dists[k] = 0;
    } else if (static_cast<int>(k) == level - 1) {
      d.vector.dirs[k] = Direction::Lt;
      if (res.distance) d.vector.dists[k] = res.distance;
    }
  }
  d.mark = (res.answer == DepAnswer::DependenceExact) ? DepMark::Proven
                                                      : DepMark::Pending;
  d.origin = origin;
  d.interprocedural = interproc;
  d.degraded = res.degraded;
  return d;
}

}  // namespace

DependenceGraph DependenceGraph::restore(ir::ProcedureModel& model,
                                         std::vector<Dependence> deps,
                                         std::uint32_t nextEdgeId) {
  DependenceGraph g;
  g.model_ = &model;
  g.deps_ = std::move(deps);
  g.nextId_ = nextEdgeId;
  return g;
}

DependenceGraph DependenceGraph::build(ir::ProcedureModel& model,
                                       const AnalysisContext& ctx) {
  const auto tBuild = std::chrono::steady_clock::now();
  DependenceGraph g;
  g.model_ = &model;

  cfg::FlowGraph fg = cfg::FlowGraph::build(model);
  const VarIndex vars = VarIndex::build(fg, model);
  ReachingDefs reaching = ReachingDefs::build(vars);
  Liveness liveness = Liveness::build(vars);
  ConstantAnalysis constants =
      ConstantAnalysis::build(vars, ctx.inheritedConstants);
  cfg::ControlDependence cdeps = cfg::ControlDependence::build(fg);
  SymbolicAnalysis sym = SymbolicAnalysis::build(
      vars, reaching, constants, cdeps,
      ctx.useSymbolicInfo ? ctx.inheritedRelations
                          : std::vector<dataflow::Relation>{},
      ctx.budget.maxSymbolicRelations);
  g.stats_.symbolicTruncated += sym.truncated();
  PrivatizationAnalysis priv = PrivatizationAnalysis::build(vars, liveness);
  g.stats_.dataflowSeconds = secondsSince(tBuild);

  const fortran::Procedure& proc = model.procedure();
  OpaqueTable opaques;

  // Memoization: prefer the session-shared table (warm across rebuilds and
  // procedures); fall back to a transient per-build table so structurally
  // repeated pairs within one build still hit cache. Null disables (A2).
  DepMemo localMemo;
  DepMemo* memo = nullptr;
  if (ctx.useMemo) memo = ctx.memo ? ctx.memo.get() : &localMemo;

  // -------------------------------------------------------------------
  // Per-statement substitution maps for subscript linearization, with
  // forward substitution of unique same-loop scalar assignments (this is
  // how "I3 = IT(N)" flows into "F(I3 + 1)").
  // -------------------------------------------------------------------
  std::map<StmtId, std::map<std::string, LinearExpr>> subCache;
  auto subFor = [&](const Stmt* s) -> const std::map<std::string, LinearExpr>& {
    auto it = subCache.find(s->id);
    if (it != subCache.end()) return it->second;
    std::map<std::string, LinearExpr> sub;
    const Loop* loop = model.enclosingLoop(s->id);
    if (ctx.useSymbolicInfo) {
      if (loop) {
        sub = sym.substitutionFor(*loop, *s);
      } else {
        constants.forEachIntConst(
            s->id, [&](const std::string& name, long long value) {
              LinearExpr c;
              c.constant = value;
              sub[name] = c;
            });
      }
      // Forward substitution: scalar vars read in this statement's
      // subscripts whose unique reaching definition is an assignment inside
      // the same loop (so the value is this iteration's).
      if (loop) {
        // One copy of the nest path: nestPath() returns by value, so
        // iterators from two calls must never be compared.
        const std::vector<const Loop*> nest = loop->nestPath();
        std::set<std::string> wanted;
        s->forEachExpr([&](const Expr& e) {
          if (e.kind == ExprKind::VarRef) wanted.insert(e.name);
        });
        for (const std::string& v : wanted) {
          if (sub.count(v)) continue;
          const Stmt* def = nullptr;
          if (!reaching.uniqueReachingAssignment(s->id, v, &def)) continue;
          if (def == s) continue;
          const Loop* defLoop = model.enclosingLoop(def->id);
          bool defInNest = false;
          for (const Loop* l = defLoop; l; l = l->parent) {
            if (l == loop ||
                std::find(nest.begin(), nest.end(), l) != nest.end()) {
              defInNest = true;
              break;
            }
          }
          if (!defInNest && defLoop != nullptr) continue;
          // Operands must be stable between the def and the use: every
          // variable in the rhs is either loop-invariant or an enclosing
          // induction variable (constant within an iteration).
          bool stable = true;
          def->rhs->forEach([&](const Expr& e) {
            if (e.kind != ExprKind::VarRef) return;
            bool isIv = false;
            for (const Loop* l = loop; l; l = l->parent) {
              if (l->inductionVar() == e.name) isIv = true;
            }
            if (!isIv && sym.definedIn(*loop, e.name)) stable = false;
          });
          if (!stable) continue;
          sub[v] = linearizeSubscript(*def->rhs, sub, opaques);
        }
      }
    }
    return subCache.emplace(s->id, std::move(sub)).first->second;
  };

  // -------------------------------------------------------------------
  // LoopContext per loop, and one DependenceTester per common nest. A nest
  // is uniquely identified by its innermost loop; every pair sharing that
  // nest shares the tester (and through it the memo key prefix).
  // -------------------------------------------------------------------
  std::map<StmtId, LoopContext> lcCache;
  auto contextOf = [&](const Loop* loop) -> const LoopContext& {
    auto it = lcCache.find(loop->stmt->id);
    if (it != lcCache.end()) return it->second;
    LoopContext lc;
    lc.iv = loop->inductionVar();
    lc.doStmt = loop->stmt->id;
    const auto& sub = subFor(loop->stmt);
    lc.lo = linearizeSubscript(*loop->stmt->doLo, sub, opaques);
    lc.hi = linearizeSubscript(*loop->stmt->doHi, sub, opaques);
    lc.step = 1;
    if (loop->stmt->doStep) {
      LinearExpr st = linearizeSubscript(*loop->stmt->doStep, sub, opaques);
      lc.step = st.isConstant() ? st.constant : 0;
    }
    return lcCache.emplace(loop->stmt->id, std::move(lc)).first->second;
  };

  std::map<StmtId, std::unique_ptr<DependenceTester>> testerCache;
  auto testerFor =
      [&](const std::vector<const Loop*>& nest) -> DependenceTester& {
    auto& slot = testerCache[nest.back()->stmt->id];
    if (!slot) {
      std::vector<LoopContext> lctxs;
      for (const Loop* l : nest) lctxs.push_back(contextOf(l));
      slot = std::make_unique<DependenceTester>(
          std::move(lctxs), ctx.facts, ctx.indexFacts, opaques,
          sym.definedIn(*nest.front()), ctx.cheapTestsFirst, memo,
          ctx.budget);
    }
    return *slot;
  };

  auto effectiveStatus = [&](const Loop* loop,
                             const std::string& name) -> PrivatizationStatus {
    auto itL = ctx.classificationOverrides.find(loop->stmt->id);
    if (itL != ctx.classificationOverrides.end()) {
      auto itV = itL->second.find(name);
      if (itV != itL->second.end()) {
        return itV->second ? PrivatizationStatus::Private
                           : PrivatizationStatus::Shared;
      }
    }
    if (!ctx.usePrivatization) {
      // Ablation: act as if kill analysis were unavailable.
      for (const auto& vc : priv.classesFor(*loop)) {
        if (vc.name == name) {
          return (vc.writtenInLoop || vc.readInLoop)
                     ? PrivatizationStatus::Shared
                     : PrivatizationStatus::Unused;
        }
      }
      return PrivatizationStatus::Unused;
    }
    return priv.statusOf(*loop, name);
  };

  auto addDep = [&](DepType type, const ARef& src, const ARef& dst,
                    const std::vector<const Loop*>& nest, int level,
                    const LevelResult& res, bool interproc,
                    DepOrigin origin) {
    Dependence d = makeDep(type, src, dst, nest, level, res, interproc, origin);
    d.id = g.nextId_++;
    g.deps_.push_back(std::move(d));
  };

  // -------------------------------------------------------------------
  // Array-reference pairs.
  // -------------------------------------------------------------------
  std::map<std::string, std::vector<ARef>> refsByArray;
  std::vector<const Stmt*> callStmts;
  for (const Stmt* s : model.allStmts()) {
    for (const Ref& r : ir::collectRefs(*s)) {
      if (!r.isArrayRef()) continue;
      if (r.kind == RefKind::CallActual) continue;  // handled via effects
      const fortran::VarDecl* d = proc.findDecl(r.name);
      if (!d || !d->isArray()) continue;
      refsByArray[r.name].push_back({s, r.expr, r.isWrite()});
    }
    if (!ir::calledFunctions(*s).empty()) callStmts.push_back(s);
  }

  // Position of each statement in pre-order (intra-iteration execution
  // order proxy for loop-independent dependence orientation).
  std::map<StmtId, int> position;
  {
    int idx = 0;
    for (const Stmt* s : model.allStmts()) position[s->id] = idx++;
  }

  // -------------------------------------------------------------------
  // Pair enumeration, in the exact sequential order (array -> i -> j).
  // Every pair becomes a job; jobs are grouped by common nest and then cut
  // into fixed-size batches. Each batch is an independent unit of work —
  // its own tester, its own copy of the opaque-term table (symbols are a
  // pure function of printed expression text, so copies intern
  // identically), its own output slots and stats block — and may run on a
  // TaskPool worker. Edge ids are assigned at the deterministic merge
  // below, so the resulting graph is bit-identical for ANY thread count,
  // including the fully sequential path.
  // -------------------------------------------------------------------
  struct PairJob {
    ARef r1, r2;
    bool self = false;
    const std::string* array = nullptr;
    std::vector<const Loop*> nest;
    const std::map<std::string, LinearExpr>* sub1 = nullptr;
    const std::map<std::string, LinearExpr>* sub2 = nullptr;
  };
  std::vector<PairJob> jobs;
  std::vector<std::vector<Dependence>> jobEdges;
  std::map<StmtId, std::vector<std::size_t>> nestGroups;

  const auto tPairs = std::chrono::steady_clock::now();
  for (auto& [array, refs] : refsByArray) {
    for (std::size_t i = 0; i < refs.size(); ++i) {
      for (std::size_t j = i; j < refs.size(); ++j) {
        const ARef& r1 = refs[i];
        const ARef& r2 = refs[j];
        if (!r1.write && !r2.write) continue;  // read-read: no dependence
        auto nest = commonNest(loopChain(model, r1.stmt->id),
                               loopChain(model, r2.stmt->id));
        if (nest.empty()) continue;
        ++g.stats_.pairsTested;

        PairJob jb;
        jb.r1 = r1;
        jb.r2 = r2;
        jb.self = (i == j);
        jb.array = &array;
        // Resolve every shared lazy cache NOW, while still sequential:
        // tasks must only read. The std::map nodes stay put under later
        // insertions, so the pointers are stable.
        jb.sub1 = &subFor(r1.stmt);
        jb.sub2 = &subFor(r2.stmt);
        for (const Loop* l : nest) contextOf(l);
        jb.nest = std::move(nest);
        nestGroups[jb.nest.back()->stmt->id].push_back(jobs.size());
        jobs.push_back(std::move(jb));
        jobEdges.emplace_back();
      }
    }
  }

  // The per-pair test battery, writing edges (ids unassigned) to `out`.
  auto processJob = [&](const PairJob& jb, DependenceTester& tester,
                        std::vector<Dependence>& out) {
    const ARef& r1 = jb.r1;
    const ARef& r2 = jb.r2;
    const std::vector<const Loop*>& nest = jb.nest;
    const auto& sub1 = *jb.sub1;
    const auto& sub2 = *jb.sub2;

    // Refine the direction at the level below the carrier (what loop
    // interchange legality needs) by constrained re-tests. nullopt
    // means all three inner directions were disproved: the plain
    // level test was inexact and the edge does not actually exist.
    auto refineInner =
        [&](const RefPair& pair, int level) -> std::optional<Direction> {
      if (level >= static_cast<int>(nest.size())) return Direction::Star;
      bool lt = tester.test(pair, level, Direction::Lt).answer !=
                DepAnswer::NoDependence;
      bool eq = tester.test(pair, level, Direction::Eq).answer !=
                DepAnswer::NoDependence;
      bool gt = tester.test(pair, level, Direction::Gt).answer !=
                DepAnswer::NoDependence;
      int count = (lt ? 1 : 0) + (eq ? 1 : 0) + (gt ? 1 : 0);
      if (count == 0) return std::nullopt;
      if (count != 1) {
        if (lt && eq && !gt) return Direction::Le;
        if (!lt && eq && gt) return Direction::Ge;
        return Direction::Star;
      }
      if (lt) return Direction::Lt;
      if (eq) return Direction::Eq;
      return Direction::Gt;
    };

    // Attach the refined inner direction to the edge just added, or
    // retract the edge when the constrained re-tests disproved every
    // inner direction.
    auto refineOrRetract = [&](const RefPair& pair, int level) {
      if (static_cast<std::size_t>(level) >= nest.size()) return;
      std::optional<Direction> dir = refineInner(pair, level);
      if (!dir) {
        out.pop_back();
        return;
      }
      out.back().vector.dirs[static_cast<std::size_t>(level)] = *dir;
    };

    // A user classification of the array as private w.r.t. a loop
    // removes the dependences that loop carries (each iteration gets
    // its own copy); loop-independent deps and inner-carried deps
    // remain.
    auto carrierPrivatized = [&](int level) {
      const Loop* carrier = nest[static_cast<std::size_t>(level - 1)];
      auto itL = ctx.classificationOverrides.find(carrier->stmt->id);
      if (itL == ctx.classificationOverrides.end()) return false;
      auto itV = itL->second.find(*jb.array);
      return itV != itL->second.end() && itV->second;
    };

    for (int level = 1; level <= static_cast<int>(nest.size()); ++level) {
      if (carrierPrivatized(level)) continue;
      RefPair fwd{r1.expr, r2.expr, &sub1, &sub2};
      LevelResult res = tester.test(fwd, level);
      if (res.answer != DepAnswer::NoDependence) {
        out.push_back(makeDep(typeOf(r1.write, r2.write), r1, r2, nest,
                              level, res, false, DepOrigin::ArrayPair));
        refineOrRetract(fwd, level);
      }
      if (!jb.self) {
        RefPair rev{r2.expr, r1.expr, &sub2, &sub1};
        LevelResult rres = tester.test(rev, level);
        if (rres.answer != DepAnswer::NoDependence) {
          out.push_back(makeDep(typeOf(r2.write, r1.write), r2, r1, nest,
                                level, rres, false, DepOrigin::ArrayPair));
          refineOrRetract(rev, level);
        }
      }
    }
    if (!jb.self) {
      // Loop-independent: source is the statement executed first.
      const ARef& first = position.at(r1.stmt->id) <= position.at(r2.stmt->id)
                              ? r1
                              : r2;
      const ARef& second = (&first == &r1) ? r2 : r1;
      if (first.stmt != second.stmt) {
        const auto* firstSub = (&first == &r1) ? &sub1 : &sub2;
        const auto* secondSub = (&first == &r1) ? &sub2 : &sub1;
        LevelResult res =
            tester.test({first.expr, second.expr, firstSub, secondSub}, 0);
        if (res.answer != DepAnswer::NoDependence) {
          out.push_back(makeDep(typeOf(first.write, second.write), first,
                                second, nest, 0, res, false,
                                DepOrigin::ArrayPair));
        }
      }
    }
  };

  // One unit of work per batch: private tester + opaque table + stats. A
  // nest group is further split into fixed-size batches so that a
  // procedure whose pairs all land in ONE nest still exposes parallelism.
  // Batching is a pure function of the enumeration order — never of the
  // pool or thread count — and every batch clones the same pre-phase opaque
  // table (symbols intern identically from printed text), so the merged
  // graph is the same for any batch schedule, including the fully
  // sequential one.
  static constexpr std::size_t kPairBatch = 8;
  std::vector<std::vector<std::size_t>> batches;
  for (auto& [nid, idxs] : nestGroups) {
    (void)nid;
    for (std::size_t b = 0; b < idxs.size(); b += kPairBatch) {
      const std::size_t e = std::min(idxs.size(), b + kPairBatch);
      batches.emplace_back(idxs.begin() + static_cast<std::ptrdiff_t>(b),
                           idxs.begin() + static_cast<std::ptrdiff_t>(e));
    }
  }
  g.stats_.pairBatches = static_cast<long long>(batches.size());

  auto runBatch = [&](const std::vector<std::size_t>& idxs, TestStats& gs) {
    const std::vector<const Loop*>& nest = jobs[idxs.front()].nest;
    OpaqueTable groupOpaques = opaques;
    std::vector<LoopContext> lctxs;
    lctxs.reserve(nest.size());
    for (const Loop* l : nest) lctxs.push_back(lcCache.at(l->stmt->id));
    DependenceTester tester(std::move(lctxs), ctx.facts, ctx.indexFacts,
                            groupOpaques, sym.definedIn(*nest.front()),
                            ctx.cheapTestsFirst, memo, ctx.budget);
    for (std::size_t idx : idxs) processJob(jobs[idx], tester, jobEdges[idx]);
    gs.accumulate(tester.stats());
  };

  std::vector<TestStats> batchStats(batches.size());
  {
    if (ctx.pool && batches.size() > 1) {
      std::vector<std::function<void()>> thunks;
      thunks.reserve(batches.size());
      for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        const std::vector<std::size_t>* ix = &batches[bi];
        TestStats* gs = &batchStats[bi];
        thunks.push_back([&runBatch, ix, gs] { runBatch(*ix, *gs); });
      }
      ctx.pool->runAll(std::move(thunks));
    } else {
      for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        runBatch(batches[bi], batchStats[bi]);
      }
    }
  }

  // Deterministic merge: edges in enumeration order get consecutive ids
  // (exactly what the sequential interleaved build produced); per-group
  // tester stats fold in fixed nest order.
  for (auto& edges : jobEdges) {
    for (Dependence& d : edges) {
      d.id = g.nextId_++;
      g.deps_.push_back(std::move(d));
    }
  }
  for (const TestStats& gs : batchStats) g.stats_.accumulate(gs);
  g.stats_.pairSeconds = secondsSince(tPairs);

  const auto tOther = std::chrono::steady_clock::now();
  // -------------------------------------------------------------------
  // Scalar dependences, gated by privatization status per loop.
  // -------------------------------------------------------------------
  for (const auto& loopPtr : model.loops()) {
    const Loop* loop = loopPtr.get();
    for (const auto& vc : priv.classesFor(*loop)) {
      PrivatizationStatus status = effectiveStatus(loop, vc.name);
      if (status != PrivatizationStatus::Shared) continue;
      if (!vc.writtenInLoop) continue;  // read-only shared: no dependence

      // Did the user force this variable shared (or is the privatization
      // ablation active)? Then honor it literally — no oracle refinement.
      bool forcedShared = !ctx.usePrivatization;
      {
        auto itL = ctx.classificationOverrides.find(loop->stmt->id);
        if (itL != ctx.classificationOverrides.end()) {
          auto itV = itL->second.find(vc.name);
          if (itV != itL->second.end() && !itV->second) forcedShared = true;
        }
      }

      // Gather the scalar's access sites directly in this loop. A call
      // actual counts as read+write only when no interprocedural summary
      // says otherwise — this is where MOD/REF analysis pays off for
      // scalars.
      std::vector<ARef> writes, reads;
      for (const Stmt* s : loop->bodyStmts) {
        for (const Ref& r : ir::collectRefs(*s)) {
          if (r.name != vc.name) continue;
          if (r.kind == RefKind::DoVarDef) continue;
          bool mayRead = r.isRead();
          bool mayWrite = r.isWrite();
          if (r.kind == RefKind::CallActual && ctx.oracle) {
            auto callees = ir::calledFunctions(*s);
            bool allKnown = !callees.empty();
            for (const auto& c : callees) {
              if (!ctx.oracle->knowsCallee(c)) allKnown = false;
            }
            if (allKnown) {
              mayRead = mayWrite = false;
              for (const auto& c : callees) {
                for (const auto& e : ctx.oracle->effectsOfCall(*s, c)) {
                  if (e.var != r.name) continue;
                  // Only entry-exposed reads matter for cross-iteration
                  // dependences: a read after the callee's kill sees this
                  // iteration's value (interprocedural scalar KILL).
                  mayRead = mayRead || e.exposedRead;
                  mayWrite = mayWrite || e.mayWrite;
                }
              }
            }
          }
          if (mayWrite) writes.push_back({s, r.expr, true});
          if (mayRead) reads.push_back({s, r.expr, false});
        }
      }
      // A scalar with no (exposed) reads whose value dies with the loop is
      // effectively private even when classified shared: no dependence can
      // be observed.
      if (!forcedShared && reads.empty() &&
          !liveness.liveAfterLoop(*loop, vc.name)) {
        continue;
      }
      auto nestOf = [&](const Stmt* s1, const Stmt* s2) {
        return commonNest(loopChain(model, s1->id),
                          loopChain(model, s2->id));
      };
      auto levelOf = [&](const std::vector<const Loop*>& nest) {
        for (std::size_t k = 0; k < nest.size(); ++k) {
          if (nest[k] == loop) return static_cast<int>(k) + 1;
        }
        return 0;
      };
      LevelResult assumed;
      assumed.answer = DepAnswer::DependenceExact;  // same address: certain

      // Recompute upward exposure with oracle-refined call semantics: a
      // call that kills the scalar without reading its incoming value ends
      // the search path instead of exposing it (interprocedural scalar
      // KILL, the nxsns case).
      bool exposed = vc.upwardExposedRead;
      if (exposed && ctx.oracle && !forcedShared) {
        int doNode = fg.nodeOf(loop->stmt->id);
        std::set<int> bodyNodes;
        for (const Stmt* s : loop->bodyStmts) {
          int n = fg.nodeOf(s->id);
          if (n >= 0) bodyNodes.insert(n);
        }
        std::vector<int> work;
        for (int succ : fg.successors(doNode)) {
          if (bodyNodes.count(succ)) work.push_back(succ);
        }
        std::set<int> seen;
        bool refined = false;
        bool decidable = true;
        while (!work.empty() && !refined && decidable) {
          int node = work.back();
          work.pop_back();
          if (seen.count(node)) continue;
          seen.insert(node);
          const Stmt* s = fg.stmtOf(node);
          if (!s) continue;
          bool killsHere = false;
          for (const Ref& r : ir::collectRefs(*s)) {
            if (r.name != vc.name) continue;
            if (r.kind == RefKind::Read) {
              refined = true;
              break;
            }
            if (r.kind == RefKind::CallActual) {
              bool known = true;
              bool calleeExposed = false, calleeKills = false;
              for (const auto& c : ir::calledFunctions(*s)) {
                if (!ctx.oracle->knowsCallee(c)) {
                  known = false;
                  break;
                }
                for (const auto& eff : ctx.oracle->effectsOfCall(*s, c)) {
                  if (eff.var != r.name) continue;
                  calleeExposed = calleeExposed || eff.exposedRead;
                  calleeKills = calleeKills || eff.kills;
                }
              }
              if (!known) {
                decidable = false;
                break;
              }
              if (calleeExposed) {
                refined = true;
                break;
              }
              if (calleeKills) killsHere = true;
            }
            if (r.kind == RefKind::Write || r.kind == RefKind::DoVarDef) {
              killsHere = true;
            }
          }
          if (refined || !decidable) break;
          if (killsHere) continue;
          for (int succ : fg.successors(node)) {
            if (succ == doNode) continue;
            if (bodyNodes.count(succ) && !seen.count(succ)) {
              work.push_back(succ);
            }
          }
        }
        if (decidable) exposed = refined;
      }
      for (const ARef& w : writes) {
        for (const ARef& r : reads) {
          if (!exposed) continue;
          auto nest = nestOf(w.stmt, r.stmt);
          int level = levelOf(nest);
          if (level == 0) continue;
          addDep(DepType::True, w, r, nest, level, assumed, false,
                 DepOrigin::Scalar);
          addDep(DepType::Anti, r, w, nest, level, assumed, false,
                 DepOrigin::Scalar);
        }
        // Output dependences only matter when the scalar's value can be
        // observed across iterations (exposed read) or after the loop —
        // unless the user insists the variable is shared.
        if (!forcedShared && !exposed &&
            !liveness.liveAfterLoop(*loop, vc.name)) {
          continue;
        }
        for (const ARef& w2 : writes) {
          auto nest = nestOf(w.stmt, w2.stmt);
          int level = levelOf(nest);
          if (level == 0) continue;
          addDep(DepType::Output, w, w2, nest, level, assumed, false,
                 DepOrigin::Scalar);
          break;  // one representative output edge per source write
        }
      }
    }
  }

  // -------------------------------------------------------------------
  // Control dependences.
  // -------------------------------------------------------------------
  for (const auto& cdep : cdeps.all()) {
    const Stmt* branch = model.stmt(cdep.branch);
    const Stmt* dependent = model.stmt(cdep.dependent);
    if (!branch || !dependent) continue;
    if (branch->kind == StmtKind::Do) continue;  // loop control is implicit
    Dependence d;
    d.id = g.nextId_++;
    d.type = DepType::Control;
    d.srcStmt = branch->id;
    d.dstStmt = dependent->id;
    d.level = 0;
    auto nest = commonNest(loopChain(model, branch->id),
                           loopChain(model, dependent->id));
    d.commonLoop =
        nest.empty() ? fortran::kInvalidStmt : nest.back()->stmt->id;
    d.vector.dirs.resize(nest.size(), Direction::Eq);
    d.vector.dists.resize(nest.size(), 0);
    d.mark = DepMark::Proven;
    d.origin = DepOrigin::Control;
    g.deps_.push_back(std::move(d));
  }

  // -------------------------------------------------------------------
  // Call-site dependences (interprocedural side effects).
  // -------------------------------------------------------------------
  auto conservativeEffects = [&](const Stmt* s) {
    std::vector<CallEffect> effects;
    for (const Ref& r : ir::collectRefs(*s)) {
      if (r.kind != RefKind::CallActual) continue;
      CallEffect e;
      e.var = r.name;
      const fortran::VarDecl* d = proc.findDecl(r.name);
      e.isArray = d && d->isArray();
      e.mayRead = true;
      e.mayWrite = true;
      effects.push_back(std::move(e));
    }
    for (const auto& d : proc.decls) {
      if (d.commonBlock.empty()) continue;
      CallEffect e;
      e.var = d.name;
      e.isArray = d.isArray();
      e.mayRead = true;
      e.mayWrite = true;
      effects.push_back(std::move(e));
    }
    return effects;
  };

  for (const Stmt* call : callStmts) {
    const Loop* callLoop = model.enclosingLoop(call->id);
    if (!callLoop) continue;  // calls outside loops cannot carry

    std::vector<CallEffect> effects;
    bool summarized = false;
    for (const std::string& callee : ir::calledFunctions(*call)) {
      if (ctx.oracle && ctx.oracle->knowsCallee(callee)) {
        auto es = ctx.oracle->effectsOfCall(*call, callee);
        for (auto& e : es) effects.push_back(std::move(e));
        summarized = true;
      } else {
        auto es = conservativeEffects(call);
        for (auto& e : es) effects.push_back(std::move(e));
        summarized = false;
        break;  // one unknown callee poisons the call site
      }
    }

    // Aggregate per-variable kill/exposure info across the split effects.
    std::map<std::string, std::pair<bool, bool>> scalarInfo;  // kills, exposed
    for (const CallEffect& e : effects) {
      if (e.isArray) continue;
      auto& info = scalarInfo[e.var];
      info.first = info.first || e.kills;
      info.second = info.second || e.exposedRead;
    }

    for (const CallEffect& e : effects) {
      if (!e.mayRead && !e.mayWrite) continue;
      const fortran::VarDecl* d = proc.findDecl(e.var);
      bool isArray = d && d->isArray();

      // Interprocedural scalar KILL: a scalar the callee overwrites on
      // every path, never reading its incoming value, whose value dies with
      // the loop, cannot carry a dependence — provided nothing in the loop
      // reads it before the call each iteration.
      if (!isArray && summarized) {
        auto info = scalarInfo[e.var];
        if (info.first && !info.second &&
            !liveness.liveAfterLoop(*callLoop, e.var)) {
          bool readBeforeCall = false;
          for (const Stmt* s : callLoop->bodyStmts) {
            if (position[s->id] >= position[call->id]) continue;
            for (const Ref& r : ir::collectRefs(*s)) {
              if (r.name == e.var && r.isRead()) readBeforeCall = true;
            }
          }
          if (!readBeforeCall) continue;
        }
      }

      // Dependences against explicit references of the same variable.
      auto itRefs = refsByArray.find(e.var);
      std::vector<ARef> others;
      if (isArray && itRefs != refsByArray.end()) others = itRefs->second;
      if (!isArray) {
        for (const Stmt* s : callLoop->bodyStmts) {
          if (s == call) continue;
          for (const Ref& r : ir::collectRefs(*s)) {
            if (r.name == e.var && r.kind != RefKind::CallActual &&
                r.kind != RefKind::DoVarDef) {
              others.push_back({s, r.expr, r.isWrite()});
            }
          }
        }
      }

      ARef callRef{call, nullptr, e.mayWrite};
      for (const ARef& o : others) {
        auto nest = commonNest(loopChain(model, call->id),
                               loopChain(model, o.stmt->id));
        if (nest.empty()) continue;
        DependenceTester& tester = testerFor(nest);
        auto carrierPrivatized = [&](int level) {
          const Loop* carrier = nest[static_cast<std::size_t>(level - 1)];
          auto itL = ctx.classificationOverrides.find(carrier->stmt->id);
          if (itL == ctx.classificationOverrides.end()) return false;
          auto itV = itL->second.find(e.var);
          return itV != itL->second.end() && itV->second;
        };
        for (int level = 1; level <= static_cast<int>(nest.size());
             ++level) {
          if (carrierPrivatized(level)) continue;
          LevelResult res;
          if (summarized && e.section && o.expr) {
            res = tester.testSection(*o.expr, subFor(o.stmt), *e.section,
                                     subFor(call), level,
                                     /*callIsSrc=*/true);
          } else {
            res.answer = DepAnswer::DependenceAssumed;
          }
          if (res.answer != DepAnswer::NoDependence &&
              (e.mayWrite || o.write)) {
            addDep(typeOf(e.mayWrite, o.write), callRef, o, nest, level, res,
                   true, DepOrigin::CallSite);
          }
        }
      }

      // Call-to-itself across iterations: the write effect against every
      // effect on the same variable (write-write and write-read pairs).
      if (e.mayWrite) {
        auto nest = loopChain(model, call->id);
        if (!nest.empty()) {
          DependenceTester& tester = testerFor(nest);
          auto selfCarrierPrivatized = [&](int level) {
            const Loop* carrier =
                nest[static_cast<std::size_t>(level - 1)];
            auto itL = ctx.classificationOverrides.find(carrier->stmt->id);
            if (itL == ctx.classificationOverrides.end()) return false;
            auto itV = itL->second.find(e.var);
            return itV != itL->second.end() && itV->second;
          };
          for (const CallEffect& e2 : effects) {
            if (e2.var != e.var) continue;
            for (int level = 1; level <= static_cast<int>(nest.size());
                 ++level) {
              if (selfCarrierPrivatized(level)) continue;
              LevelResult res;
              if (summarized && e.section && e2.section) {
                res = tester.testSections(*e.section, subFor(call),
                                          *e2.section, subFor(call), level);
              } else {
                res.answer = DepAnswer::DependenceAssumed;
              }
              if (res.answer != DepAnswer::NoDependence) {
                addDep(e2.mayWrite ? DepType::Output : DepType::True,
                       callRef, callRef, nest, level, res, true,
                       DepOrigin::CallSite);
              }
            }
          }
        }
      }
    }
  }
  g.stats_.otherSeconds = secondsSince(tOther);

  // Tester tier/memo counters, once per tester (testers are shared by
  // every pair in their nest, so per-pair accumulation would double
  // count).
  for (const auto& [doId, tester] : testerCache) {
    (void)doId;
    g.stats_.accumulate(tester->stats());
  }
  g.stats_.totalSeconds = secondsSince(tBuild);
  if (ctx.statsSink) ctx.statsSink->accumulate(g.stats_);

  return g;
}

std::vector<const Dependence*> DependenceGraph::forLoop(
    const Loop& loop) const {
  std::vector<const Dependence*> out;
  for (const auto& d : deps_) {
    bool srcIn = loop.contains(d.srcStmt);
    bool dstIn = loop.contains(d.dstStmt);
    if (srcIn && dstIn) out.push_back(&d);
  }
  return out;
}

std::vector<const Dependence*> DependenceGraph::parallelismInhibitors(
    const Loop& loop) const {
  std::vector<const Dependence*> out;
  for (const auto& d : deps_) {
    if (d.carrierLoop == loop.stmt->id && d.inhibitsParallelism()) {
      out.push_back(&d);
    }
  }
  return out;
}

bool DependenceGraph::parallelizable(const Loop& loop) const {
  return parallelismInhibitors(loop).empty();
}

Dependence* DependenceGraph::byId(std::uint32_t id) {
  for (auto& d : deps_) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

DependenceGraph::Summary DependenceGraph::summary() const {
  Summary s;
  for (const auto& d : deps_) {
    ++s.totalDeps;
    if (d.mark == DepMark::Proven) ++s.provenDeps;
    if (d.mark == DepMark::Pending) ++s.pendingDeps;
    if (d.loopCarried()) ++s.carriedDeps;
    if (d.type == DepType::Control) ++s.controlDeps;
    if (d.interprocedural) ++s.interprocDeps;
    if (d.degraded) ++s.degradedDeps;
  }
  return s;
}

}  // namespace ps::dep
