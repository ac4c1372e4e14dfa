#include "interproc/summaries.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string_view>

#include "cfg/flow_graph.h"
#include "dataflow/constants.h"
#include "dataflow/linear.h"
#include "ir/model.h"
#include "ir/refs.h"

namespace ps::interproc {

using dataflow::LinearExpr;
using fortran::Expr;
using fortran::ExprKind;
using fortran::ExprPtr;
using fortran::Procedure;
using fortran::Stmt;
using fortran::StmtKind;
using ir::Ref;
using ir::RefKind;

namespace {

/// Convert a linear form back into an expression tree. Fails (returns null)
/// when the form carries opaque or tagged symbols.
ExprPtr exprFromLinear(const LinearExpr& f) {
  if (!f.affine) return nullptr;
  ExprPtr acc;
  for (const auto& [v, c] : f.coef) {
    if (v.find('@') != std::string::npos ||
        v.find('#') != std::string::npos) {
      return nullptr;
    }
    ExprPtr term;
    if (c == 1) {
      term = fortran::makeVarRef(v);
    } else if (c == -1) {
      term = fortran::makeUnary(fortran::UnOp::Neg, fortran::makeVarRef(v));
    } else {
      term = fortran::makeBinary(fortran::BinOp::Mul, fortran::makeIntConst(c),
                                 fortran::makeVarRef(v));
    }
    acc = acc ? fortran::makeBinary(fortran::BinOp::Add, std::move(acc),
                                    std::move(term))
              : std::move(term);
  }
  if (!acc) return fortran::makeIntConst(f.constant);
  if (f.constant > 0) {
    return fortran::makeBinary(fortran::BinOp::Add, std::move(acc),
                               fortran::makeIntConst(f.constant));
  }
  if (f.constant < 0) {
    return fortran::makeBinary(fortran::BinOp::Sub, std::move(acc),
                               fortran::makeIntConst(-f.constant));
  }
  return acc;
}

/// Widen a subscript's linear form over the enclosing loops, producing
/// [lo, hi] forms over `stable` names only. Returns false on failure.
bool widenOverLoops(LinearExpr form,
                    const std::vector<const ir::Loop*>& chain,
                    const std::set<std::string>& stable, LinearExpr* loOut,
                    LinearExpr* hiOut) {
  if (!form.affine) return false;
  LinearExpr lo = form, hi = form;
  // Innermost to outermost, so triangular bounds resolve outward.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const ir::Loop* l = *it;
    const std::string& iv = l->inductionVar();
    long long cl = lo.coefOf(iv);
    long long ch = hi.coefOf(iv);
    if (cl == 0 && ch == 0) continue;
    LinearExpr lob = dataflow::linearize(*l->stmt->doLo);
    LinearExpr hib = dataflow::linearize(*l->stmt->doHi);
    if (!lob.affine || !hib.affine) return false;
    long long step = 1;
    if (l->stmt->doStep) {
      LinearExpr st = dataflow::linearize(*l->stmt->doStep);
      if (!st.affine || !st.isConstant() || st.constant == 0) return false;
      step = st.constant;
    }
    if (step < 0) std::swap(lob, hib);
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
    if (!stable.count(v)) return false;
  }
  for (const auto& [v, c] : hi.coef) {
    (void)c;
    if (!stable.count(v)) return false;
  }
  *loOut = std::move(lo);
  *hiOut = std::move(hi);
  return true;
}

/// Merge a [lo,hi] contribution into a section dimension; collapses to
/// "unknown" (disengaged) when the union is not expressible.
void mergeDim(std::optional<dep::SectionDim>& dim, bool& dimKnown,
              const LinearExpr& lo, const LinearExpr& hi) {
  ExprPtr loE = exprFromLinear(lo);
  ExprPtr hiE = exprFromLinear(hi);
  if (!loE || !hiE) {
    dimKnown = false;
    dim.reset();
    return;
  }
  if (!dimKnown) return;  // already collapsed
  if (!dim) {
    dep::SectionDim d;
    d.lo = std::move(loE);
    d.hi = std::move(hiE);
    dim = std::move(d);
    return;
  }
  // Union: equal forms stay; constants take min/max; otherwise unknown.
  auto asConst = [](const Expr& e, long long* v) {
    if (e.kind == ExprKind::IntConst) {
      *v = e.intValue;
      return true;
    }
    return false;
  };
  if (!dim->lo->structurallyEquals(*loE)) {
    long long a, b;
    if (asConst(*dim->lo, &a) && asConst(*loE, &b)) {
      dim->lo = fortran::makeIntConst(std::min(a, b));
    } else {
      dimKnown = false;
      dim.reset();
      return;
    }
  }
  if (!dim->hi->structurallyEquals(*hiE)) {
    long long a, b;
    if (asConst(*dim->hi, &a) && asConst(*hiE, &b)) {
      dim->hi = fortran::makeIntConst(std::max(a, b));
    } else {
      dimKnown = false;
      dim.reset();
    }
  }
}

/// Accumulates one array's section per access kind during summarization.
struct SectionAccum {
  std::vector<std::optional<dep::SectionDim>> dims;
  std::vector<bool> dimKnown;
  bool any = false;

  void ensure(std::size_t n) {
    while (dims.size() < n) {
      dims.emplace_back();
      dimKnown.push_back(true);
    }
  }
  void collapse() {
    for (std::size_t i = 0; i < dims.size(); ++i) {
      dims[i].reset();
      dimKnown[i] = false;
    }
    any = true;
  }
  [[nodiscard]] std::optional<dep::Section> toSection(
      const std::string& array) const {
    if (!any) return std::nullopt;
    dep::Section s;
    s.array = array;
    for (const auto& d : dims) {
      if (d) {
        s.dims.push_back(d->clone());
      } else {
        s.dims.emplace_back();
      }
    }
    return s;
  }
};

/// Calls fn(actuals, isCall) for every call of `callee` in `s`: the CALL
/// statement itself (isCall) and every reference to the function.
template <class Fn>
void forEachCall(const Stmt& s, const std::string& callee, Fn&& fn) {
  if (s.kind == StmtKind::Call && s.callee == callee) fn(s.args, true);
  s.forEachExpr([&](const Expr& e) {
    if (e.kind == ExprKind::FuncCall && e.name == callee) fn(e.args, false);
  });
}

/// The caller variable a callee's effect on one of its names lands on.
struct Landing {
  std::string name;
  /// The actual the name's formal is bound to; null for a name the call
  /// does not bind (a COMMON member or the function result).
  const Expr* actual = nullptr;

  [[nodiscard]] bool byName() const { return actual == nullptr; }
  /// The callee's section maps onto the caller's array only when the call
  /// passes it whole; an element actual moves the section's origin.
  [[nodiscard]] bool whole() const {
    return !actual || actual->kind == ExprKind::VarRef;
  }
};

/// One call of a callee, bound to the caller: the callee's formals paired
/// by position with the call's actuals. Every reader of a callee summary
/// maps the summary onto a call through this binding and keeps only its own
/// policy for what the landed effect means.
class CallBinding {
 public:
  CallBinding(const ProcSummary& callee, const std::vector<ExprPtr>& actuals)
      : callee_(callee), actuals_(actuals) {}

  /// Where the callee's effect on its name `var` lands: on a variable or
  /// array-element actual, nowhere for an expression or a missing actual,
  /// and on the same name for a COMMON member or the function result.
  [[nodiscard]] std::optional<Landing> land(const std::string& var) const {
    const Expr* actual = nullptr;
    if (!isFormal(var, &actual)) return Landing{var, nullptr};
    if (actual && (actual->kind == ExprKind::VarRef ||
                   actual->kind == ExprKind::ArrayRef)) {
      return Landing{actual->name, actual};
    }
    return std::nullopt;
  }

  /// The callee's section `sec` of a name that lands `at`, in the caller's
  /// terms: each bound with the bound formals replaced by their actuals,
  /// and unknown when it names anything else than a caller COMMON name
  /// (`common`). Null when `sec` is unknown or the landing is not whole.
  [[nodiscard]] std::optional<dep::Section> translate(
      const std::optional<dep::Section>& sec, const Landing& at,
      const std::set<std::string>& common) const {
    if (!sec || !at.whole()) return std::nullopt;
    dep::Section s;
    s.array = at.name;
    for (const auto& d : sec->dims) {
      ExprPtr lo = d && d->lo ? substitute(*d->lo, common) : nullptr;
      ExprPtr hi = d && d->hi ? substitute(*d->hi, common) : nullptr;
      if (!lo || !hi) {
        s.dims.emplace_back();
        continue;
      }
      dep::SectionDim sd;
      sd.lo = std::move(lo);
      sd.hi = std::move(hi);
      s.dims.emplace_back(std::move(sd));
    }
    return s;
  }

 private:
  /// True when `var` is one of the callee's formals; `*actual` is then the
  /// call's actual at its position, or null when the call passes none.
  bool isFormal(const std::string& var, const Expr** actual) const {
    for (std::size_t i = 0; i < callee_.formals.size(); ++i) {
      if (callee_.formals[i] != var) continue;
      *actual = i < actuals_.size() ? actuals_[i].get() : nullptr;
      return true;
    }
    return false;
  }

  /// A callee-scope expression in the caller's terms, or null.
  ExprPtr substitute(const Expr& e, const std::set<std::string>& common) const {
    switch (e.kind) {
      case ExprKind::VarRef: {
        const Expr* actual = nullptr;
        if (isFormal(e.name, &actual)) {
          return actual ? actual->clone() : nullptr;
        }
        return common.count(e.name) ? e.clone() : nullptr;
      }
      case ExprKind::IntConst:
      case ExprKind::RealConst:
      case ExprKind::LogicalConst:
        return e.clone();
      case ExprKind::Binary: {
        ExprPtr l = substitute(*e.lhs, common);
        ExprPtr r = substitute(*e.rhs, common);
        if (!l || !r) return nullptr;
        return fortran::makeBinary(e.binOp, std::move(l), std::move(r));
      }
      case ExprKind::Unary: {
        ExprPtr v = substitute(*e.lhs, common);
        if (!v) return nullptr;
        return fortran::makeUnary(e.unOp, std::move(v));
      }
      default:
        return nullptr;
    }
  }

  const ProcSummary& callee_;
  const std::vector<ExprPtr>& actuals_;
};

/// Calls fn(name) for each variable actual of a reference to a function
/// in `callees` (the user routines `s` calls) that the function's summary,
/// from `summaryOf`, writes, and for every variable or array-element
/// actual of a function without a summary (it may write any of them, as
/// refMayWrite assumes of a CALL). ir::collectRefs reports these actuals
/// as reads; a CALL's actuals are CallActual references instead.
template <class Lookup, class Fn>
void forEachFunctionActualWrite(const Stmt& s,
                                const std::vector<std::string>& callees,
                                Lookup&& summaryOf, Fn&& fn) {
  for (const std::string& callee : callees) {
    const ProcSummary* cs = summaryOf(callee);
    forEachCall(s, callee, [&](const std::vector<ExprPtr>& actuals,
                               bool isCall) {
      if (isCall) return;
      if (!cs) {
        for (const auto& a : actuals) {
          if (a->kind == ExprKind::VarRef || a->kind == ExprKind::ArrayRef) {
            fn(a->name);
          }
        }
        return;
      }
      const CallBinding call(*cs, actuals);
      for (const auto& [var, eff] : cs->effects) {
        if (!eff.mayWrite) continue;
        const auto at = call.land(var);
        if (at && !at->byName()) fn(at->name);
      }
    });
  }
}

/// One row of bits per flow-graph node, all in one buffer.
class BitRows {
 public:
  BitRows(int rows, std::size_t bits)
      : bits_(bits),
        words_((bits + 63) / 64),
        data_(static_cast<std::size_t>(rows) * words_, 0) {}

  [[nodiscard]] std::size_t bits() const { return bits_; }
  [[nodiscard]] std::size_t words() const { return words_; }
  std::uint64_t* operator[](int node) {
    return data_.data() + static_cast<std::size_t>(node) * words_;
  }
  const std::uint64_t* operator[](int node) const {
    return data_.data() + static_cast<std::size_t>(node) * words_;
  }
  void set(int node, std::size_t bit) {
    (*this)[node][bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  static bool test(const std::uint64_t* row, std::size_t bit) {
    return (row[bit >> 6] >> (bit & 63)) & 1;
  }

 private:
  std::size_t bits_;
  std::size_t words_;
  std::vector<std::uint64_t> data_;
};

/// The names written on every path from the entry to the exit: `gen`
/// propagated in reverse post-order until nothing changes, each node
/// taking the intersection over the predecessors visited so far.
std::vector<std::uint64_t> mustWriteAtExit(const cfg::FlowGraph& fg,
                                           const BitRows& gen) {
  const std::size_t words = gen.words();
  BitRows out(fg.numNodes(), gen.bits());
  std::vector<char> visited(static_cast<std::size_t>(fg.numNodes()), 0);
  visited[cfg::FlowGraph::kEntry] = 1;
  const std::vector<int> order = fg.reversePostOrder();
  std::vector<std::uint64_t> in(words);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int node : order) {
      if (node == cfg::FlowGraph::kEntry) continue;
      bool first = true;
      for (int p : fg.predecessors(node)) {
        if (!visited[static_cast<std::size_t>(p)]) continue;
        for (std::size_t w = 0; w < words; ++w) {
          in[w] = first ? out[p][w] : in[w] & out[p][w];
        }
        first = false;
      }
      if (first) continue;  // unreachable so far
      for (std::size_t w = 0; w < words; ++w) in[w] |= gen[node][w];
      char& seen = visited[static_cast<std::size_t>(node)];
      if (!seen || !std::equal(in.begin(), in.end(), out[node])) {
        seen = 1;
        std::copy(in.begin(), in.end(), out[node]);
        changed = true;
      }
    }
  }
  return {out[cfg::FlowGraph::kExit], out[cfg::FlowGraph::kExit] + words};
}

/// The names read before any write on some path from the entry: a name
/// reaches a node unless a node that `block`s it comes first on every
/// path, and is exposed where it reaches a node that `expose`s it.
std::vector<std::uint64_t> exposedReads(const cfg::FlowGraph& fg,
                                        const BitRows& expose,
                                        const BitRows& block) {
  const std::size_t words = expose.words();
  BitRows reach(fg.numNodes(), expose.bits());
  for (std::size_t b = 0; b < expose.bits(); ++b) {
    reach.set(cfg::FlowGraph::kEntry, b);
  }
  const std::vector<int> order = fg.reversePostOrder();
  std::vector<std::uint64_t> in(words);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int node : order) {
      if (node == cfg::FlowGraph::kEntry) continue;
      std::fill(in.begin(), in.end(), 0);
      for (int p : fg.predecessors(node)) {
        for (std::size_t w = 0; w < words; ++w) {
          in[w] |= reach[p][w] & ~block[p][w];
        }
      }
      if (!std::equal(in.begin(), in.end(), reach[node])) {
        std::copy(in.begin(), in.end(), reach[node]);
        changed = true;
      }
    }
  }
  std::vector<std::uint64_t> exposed(words, 0);
  for (int node : order) {
    for (std::size_t w = 0; w < words; ++w) {
      exposed[w] |= reach[node][w] & expose[node][w];
    }
  }
  return exposed;
}

/// The names `proc` declares in COMMON.
std::set<std::string> commonNamesIn(const Procedure& proc) {
  std::set<std::string> names;
  for (const auto& d : proc.decls) {
    if (!d.commonBlock.empty()) names.insert(d.name);
  }
  return names;
}

/// Canonical text of a section option, for structural comparison.
std::string sectionKey(const std::optional<dep::Section>& s) {
  return s ? s->str() : std::string("<none>");
}

/// Call-graph "shape": the procedure set, their topological/recursive
/// classification, and the (caller, callee) call-site multiset. Argument
/// expressions are NOT part of the shape (they feed formal constants,
/// which every update recomputes for the callees of the units it
/// recounts).
bool sameShape(const CallGraph& a, const CallGraph& b) {
  if (a.bottomUpOrder() != b.bottomUpOrder()) return false;
  if (a.recursive() != b.recursive()) return false;
  if (a.unresolved() != b.unresolved()) return false;
  auto edges = [](const CallGraph& g) {
    std::vector<std::pair<std::string, std::string>> e;
    e.reserve(g.callSites().size());
    for (const CallSite& s : g.callSites()) e.emplace_back(s.caller, s.callee);
    std::sort(e.begin(), e.end());
    return e;
  };
  return edges(a) == edges(b);
}

/// True when `a` and `b` agree on what a call may write: the same formals
/// and the same effects with MOD set. That is all a census record reads of
/// its callees' summaries (refMayWrite).
bool sameWrites(const ProcSummary& a, const ProcSummary& b) {
  if (a.formals != b.formals) return false;
  auto nextWrite = [](auto it, auto end) {
    while (it != end && !it->second.mayWrite) ++it;
    return it;
  };
  auto ia = nextWrite(a.effects.begin(), a.effects.end());
  auto ib = nextWrite(b.effects.begin(), b.effects.end());
  while (ia != a.effects.end() && ib != b.effects.end()) {
    if (ia->first != ib->first) return false;
    ia = nextWrite(++ia, a.effects.end());
    ib = nextWrite(++ib, b.effects.end());
  }
  return ia == a.effects.end() && ib == b.effects.end();
}

}  // namespace

bool operator==(const VarEffect& a, const VarEffect& b) {
  return a.isArray == b.isArray && a.mayRead == b.mayRead &&
         a.mayWrite == b.mayWrite && a.kills == b.kills &&
         a.exposedRead == b.exposedRead &&
         sectionKey(a.readSection) == sectionKey(b.readSection) &&
         sectionKey(a.writeSection) == sectionKey(b.writeSection);
}

bool operator==(const ProcSummary& a, const ProcSummary& b) {
  if (a.name != b.name || a.formals != b.formals) return false;
  if (a.effects.size() != b.effects.size()) return false;
  auto ib = b.effects.begin();
  for (auto ia = a.effects.begin(); ia != a.effects.end(); ++ia, ++ib) {
    if (ia->first != ib->first || !(ia->second == ib->second)) return false;
  }
  return true;
}

SummaryBuilder::SummaryBuilder(fortran::Program& program)
    : SummaryBuilder(program, Deferred{}) {
  summarizeInOrder();
}

SummaryBuilder::SummaryBuilder(fortran::Program& program, Deferred)
    : program_(program), callGraph_(CallGraph::build(program)) {
  indexUnits();
  computeFormalConstants();
}

void SummaryBuilder::indexUnits() {
  unitsNamed_.clear();
  for (std::size_t i = 0; i < program_.units.size(); ++i) {
    const std::string& name = program_.units[i]->name;
    unitsNamed_[name].push_back(i);
    // Every unit is either bottom-up or recursive.
    summaries_[name].name = name;
  }
}

ProcSummary SummaryBuilder::worstCaseSummary(const std::string& name,
                                             const Procedure& proc) const {
  // Worst case: every formal and COMMON var may be read and written,
  // sections unknown.
  ProcSummary s;
  s.name = name;
  s.formals = proc.params;
  for (const auto& p : proc.params) {
    const fortran::VarDecl* d = proc.findDecl(p);
    VarEffect e;
    e.isArray = d && d->isArray();
    e.mayRead = e.mayWrite = true;
    e.exposedRead = true;
    s.effects[p] = std::move(e);
  }
  for (const auto& d : proc.decls) {
    if (d.commonBlock.empty()) continue;
    VarEffect e;
    e.isArray = d.isArray();
    e.mayRead = e.mayWrite = true;
    e.exposedRead = true;
    s.effects[d.name] = std::move(e);
  }
  return s;
}

std::map<std::string, std::vector<std::size_t>> SummaryBuilder::schedule(
    support::TaskGraph& graph, SummarySource source) {
  std::map<std::string, std::vector<std::size_t>> waits;
  if (summarized_) return waits;
  // Every node assigns into its procedure's pre-inserted slot. The names
  // are referenced from the call graph, which no node changes.
  std::map<std::string, std::size_t> node;
  for (const std::string& name : callGraph_.bottomUpOrder()) {
    node[name] = graph.add([this, &name, source] {
      auto units = unitsNamed_.find(name);
      if (units == unitsNamed_.end()) return;
      const std::size_t unit = units->second.front();
      std::optional<ProcSummary> stored =
          source ? source(name, unit) : std::nullopt;
      if (stored) {
        summaries_.at(name) = std::move(*stored);
      } else {
        summarize(*program_.units[unit]);
      }
    });
  }
  for (const std::string& name : callGraph_.recursive()) {
    node[name] = graph.add([this, &name] {
      if (const Procedure* proc = program_.findUnit(name)) {
        summaries_.at(name) = worstCaseSummary(name, *proc);
      }
    });
  }
  for (const CallSite& site : callGraph_.callSites()) {
    if (callGraph_.isRecursive(site.caller) ||
        callGraph_.isRecursive(site.callee)) {
      continue;
    }
    auto callee = node.find(site.callee);
    if (callee != node.end()) {
      graph.addEdge(callee->second, node.at(site.caller));
    }
  }
  const std::size_t census = graph.add([this] { computeGlobalFacts(); });
  for (const auto& [name, n] : node) {
    (void)name;
    graph.addEdge(n, census);
  }

  // What each procedure's analysis reads: its side-effect oracle resolves
  // call sites through its direct callees' summaries (sections already fold
  // in transitive effects), and its inherited facts read the census only
  // when it declares COMMON.
  for (const auto& u : program_.units) {
    auto [it, fresh] = waits.try_emplace(u->name);
    if (!fresh) continue;  // the first unit of a name is the one analyzed
    for (const CallSite* site : callGraph_.callsFrom(u->name)) {
      auto callee = node.find(site->callee);
      if (callee != node.end()) it->second.push_back(callee->second);
    }
    if (usesGlobalFacts(*u)) it->second.push_back(census);
  }
  return waits;
}

void SummaryBuilder::summarizeInOrder() {
  support::TaskGraph phase;
  (void)schedule(phase);
  phase.runInOrder();
}

const ProcSummary* SummaryBuilder::phaseSummaryOf(
    const std::string& name) const {
  // The recursive-name check comes FIRST: during the phase a worst-case
  // node may be assigning that very slot.
  if (callGraph_.isRecursive(name)) return nullptr;
  return summaryOf(name);
}

bool SummaryBuilder::refreshCallGraph(const std::set<std::string>& procs) {
  // Only `procs` changed, and every other unit's sites already point at
  // live statements: re-pointing theirs reproduces CallGraph::build.
  bool refreshed = true;
  for (const std::string& name : procs) {
    const Procedure* proc = program_.findUnit(name);
    if (!proc || !callGraph_.refreshCaller(*proc)) {
      refreshed = false;
      break;
    }
  }
  if (refreshed) return true;
  CallGraph fresh = CallGraph::build(program_);
  const bool shapeKept = sameShape(callGraph_, fresh);
  callGraph_ = std::move(fresh);
  return shapeKept;
}

SummaryBuilder::Update SummaryBuilder::applyEdit(
    const std::set<std::string>& editedProcs) {
  Update up;
  // A census that does not cover every unit (none yet, or units came and
  // went) is rebuilt along with everything else.
  const bool shapeKept = refreshCallGraph(editedProcs) &&
                         census_.size() == program_.units.size();

  if (!shapeKept) {
    // Procedures or call edges appeared or disappeared (a transformation
    // that appends a unit, or its rollback): rebuild everything from
    // scratch.
    up.structureChanged = true;
    summaries_.clear();
    indexUnits();
    computeFormalConstants();
    summarized_ = false;
    summarizeInOrder();
    for (const auto& u : program_.units) up.staleAnalyses.insert(u->name);
    return up;
  }

  // Procedures to re-summarize: the edited ones plus every caller of a
  // summary that actually changed. Their analyses are the stale ones.
  std::set<std::string> dirty = editedProcs;
  // The edited units' call sites carry their callees' formal constants,
  // and their census records read their statements. A census record also
  // reads what a callee may write, for each CALL actual that names a
  // census variable (refMayWrite), so a caller of a summary whose writes
  // moved is recounted when one of its calls to it passes such an actual.
  std::set<std::string> recount = editedProcs;
  auto markCallers = [&](const std::string& callee, bool writesMoved) {
    for (const CallSite* cs : callGraph_.callsTo(callee)) {
      dirty.insert(cs->caller);
      if (writesMoved && passesCensusName(*cs->stmt)) {
        recount.insert(cs->caller);
      }
    }
  };

  // Recursive worst-case summaries track the procedure's current AST
  // (formals + COMMON decls); rebuild and diff them in place.
  for (const std::string& name : callGraph_.recursive()) {
    Procedure* proc = program_.findUnit(name);
    if (!proc) continue;
    ProcSummary ns = worstCaseSummary(name, *proc);
    ProcSummary& cur = summaries_[name];
    if (!(ns == cur)) markCallers(name, !sameWrites(ns, cur));
    cur = std::move(ns);
  }

  // Bottom-up: re-summarize the edited procedures plus every procedure one
  // of whose resolved callee summaries actually changed (callees come
  // first, so a caller is marked before it is reached). Everything else
  // keeps its summary — summarize() is a pure function of the procedure's
  // AST and its direct callee summaries (recursive callees filtered to
  // unknown either way), so the untouched fixed point is what a fresh
  // eager build would recompute.
  for (const std::string& name : callGraph_.bottomUpOrder()) {
    if (!dirty.count(name)) continue;
    Procedure* proc = program_.findUnit(name);
    if (!proc) continue;
    ProcSummary old = std::move(summaries_[name]);
    summarize(*proc);
    const ProcSummary& now = summaries_[name];
    if (!(now == old)) markCallers(name, !sameWrites(now, old));
  }

  // Every other call site and census record is as it was.
  up.formalConstantsChanged = refreshFormalConstants(editedProcs);
  up.globalFactsChanged = recountCensus(recount);

  up.staleAnalyses = std::move(dirty);
  return up;
}

const ProcSummary* SummaryBuilder::summaryOf(const std::string& name) const {
  auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

bool SummaryBuilder::refMayWrite(const Stmt& s,
                                 const std::vector<std::string>& callees,
                                 const ir::Ref& r,
                                 bool duringSummarize) const {
  // Resolve a CallActual's write status through the callee summaries; true
  // (conservative) when any callee is unknown or a write of one of its
  // calls lands on the name.
  bool writes = false;
  for (const std::string& callee : callees) {
    const ProcSummary* cs =
        duringSummarize ? phaseSummaryOf(callee) : summaryOf(callee);
    if (!cs) return true;
    forEachCall(s, callee, [&](const std::vector<ExprPtr>& actuals, bool) {
      const CallBinding call(*cs, actuals);
      for (const auto& [var, eff] : cs->effects) {
        if (!eff.mayWrite) continue;
        const auto at = call.land(var);
        if (at && at->name == r.name) writes = true;
      }
    });
    if (writes) return true;
  }
  return false;
}

void SummaryBuilder::summarize(Procedure& proc) {
  ProcSummary sum;
  sum.name = proc.name;
  sum.formals = proc.params;

  ir::ProcedureModel model(proc);
  const auto& stmts = model.allStmts();
  // The user routines each statement calls, by pre-order position.
  std::vector<std::vector<std::string>> callees(stmts.size());
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    callees[i] = ir::calledFunctions(*stmts[i]);
  }
  auto phaseLookup = [this](const std::string& name) {
    return phaseSummaryOf(name);
  };

  // Externally visible names and stable names.
  std::set<std::string> visible;
  for (const auto& p : proc.params) visible.insert(p);
  for (const auto& d : proc.decls) {
    if (!d.commonBlock.empty()) visible.insert(d.name);
  }
  if (proc.kind == fortran::ProcKind::Function) visible.insert(proc.name);

  // Names written in this procedure. A call actual only counts as written
  // when the callee's summary says so (or, for a CALL, the callee is
  // unknown) — without this, every variable ever passed to a call would
  // lose its "stable" status and sections would collapse.
  std::set<std::string> writtenSomewhere;
  std::vector<Ref> refs;
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt& s = *stmts[i];
    refs.clear();
    ir::appendRefs(s, refs);
    for (const Ref& r : refs) {
      if (!r.isWrite()) continue;
      if (r.kind == RefKind::CallActual &&
          !refMayWrite(s, callees[i], r, /*duringSummarize=*/true)) {
        continue;
      }
      writtenSomewhere.insert(r.name);
    }
    forEachFunctionActualWrite(
        s, callees[i], phaseLookup,
        [&](const std::string& name) { writtenSomewhere.insert(name); });
  }
  std::set<std::string> stable;
  for (const auto& d : proc.decls) {
    if (!writtenSomewhere.count(d.name) || d.isParameter) {
      stable.insert(d.name);
    }
  }

  std::map<std::string, SectionAccum> readAcc, writeAcc;

  auto loopChainOf = [&](const Stmt* s) {
    std::vector<const ir::Loop*> chain;
    if (const ir::Loop* l = model.enclosingLoop(s->id)) {
      for (const ir::Loop* p : l->nestPath()) chain.push_back(p);
    }
    return chain;
  };

  auto recordArrayRef = [&](const Stmt* s, const Expr* ref, bool write) {
    SectionAccum& acc = (write ? writeAcc : readAcc)[ref->name];
    acc.ensure(ref->args.size());
    acc.any = true;
    auto chain = loopChainOf(s);
    for (std::size_t d = 0; d < ref->args.size(); ++d) {
      LinearExpr form = dataflow::linearize(*ref->args[d]);
      LinearExpr lo, hi;
      bool known = acc.dimKnown[d];
      if (form.affine && widenOverLoops(form, chain, stable, &lo, &hi)) {
        mergeDim(acc.dims[d], known, lo, hi);
        acc.dimKnown[d] = known;
      } else {
        acc.dims[d].reset();
        acc.dimKnown[d] = false;
      }
    }
  };

  // Direct references.
  for (const Stmt* s : model.allStmts()) {
    for (const Ref& r : ir::collectRefs(*s)) {
      if (r.kind == RefKind::CallActual) continue;  // handled below
      if (!visible.count(r.name)) continue;
      VarEffect& e = sum.effects[r.name];
      const fortran::VarDecl* decl = proc.findDecl(r.name);
      e.isArray = decl && decl->isArray();
      if (r.isRead()) e.mayRead = true;
      if (r.isWrite()) e.mayWrite = true;
      if (e.isArray && r.expr && r.expr->kind == ExprKind::ArrayRef) {
        recordArrayRef(s, r.expr, r.isWrite());
      }
    }
  }

  // Effects of nested calls, translated into this scope. A callee section
  // of a name that lands `at` is widened over the call's loop `chain`.
  const std::set<std::string> common = commonNamesIn(proc);
  auto widen = [&](const CallBinding& call,
                   const std::optional<dep::Section>& sec, const Landing& at,
                   const std::vector<const ir::Loop*>& chain, bool isWrite) {
    SectionAccum& acc = (isWrite ? writeAcc : readAcc)[at.name];
    const std::optional<dep::Section> local = call.translate(sec, at, common);
    if (!local) {
      acc.collapse();
      return;
    }
    acc.ensure(local->dims.size());
    acc.any = true;
    for (std::size_t d = 0; d < local->dims.size(); ++d) {
      if (!local->dims[d]) {
        acc.dims[d].reset();
        acc.dimKnown[d] = false;
        continue;
      }
      LinearExpr loF = dataflow::linearize(*local->dims[d]->lo);
      LinearExpr hiF = dataflow::linearize(*local->dims[d]->hi);
      LinearExpr loW, hiW, loW2, hiW2;
      bool known = acc.dimKnown[d];
      if (loF.affine && hiF.affine &&
          widenOverLoops(loF, chain, stable, &loW, &hiW2) &&
          widenOverLoops(hiF, chain, stable, &loW2, &hiW)) {
        mergeDim(acc.dims[d], known, loW, hiW);
        acc.dimKnown[d] = known;
      } else {
        acc.dims[d].reset();
        acc.dimKnown[d] = false;
      }
    }
  };
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt* s = stmts[i];
    for (const std::string& callee : callees[i]) {
      const ProcSummary* cs = phaseSummaryOf(callee);
      auto chain = loopChainOf(s);
      forEachCall(*s, callee, [&](const std::vector<ExprPtr>& actuals, bool) {
        if (!cs) {
          // Unknown callee: worst case on array/variable actuals.
          for (const auto& a : actuals) {
            if ((a->kind == ExprKind::VarRef ||
                 a->kind == ExprKind::ArrayRef) &&
                visible.count(a->name)) {
              VarEffect& e = sum.effects[a->name];
              const fortran::VarDecl* decl = proc.findDecl(a->name);
              e.isArray = decl && decl->isArray();
              e.mayRead = e.mayWrite = true;
              if (e.isArray) {
                readAcc[a->name].collapse();
                writeAcc[a->name].collapse();
              }
            }
          }
          return;
        }
        const CallBinding call(*cs, actuals);
        for (const auto& [var, eff] : cs->effects) {
          const auto at = call.land(var);
          if (!at || (!visible.count(at->name) && !proc.findDecl(at->name))) {
            continue;
          }
          VarEffect& e = sum.effects[at->name];
          const fortran::VarDecl* decl = proc.findDecl(at->name);
          e.isArray = (decl && decl->isArray()) || eff.isArray;
          e.mayRead = e.mayRead || eff.mayRead;
          e.mayWrite = e.mayWrite || eff.mayWrite;
          if (!e.isArray) continue;
          if (eff.mayRead) widen(call, eff.readSection, *at, chain, false);
          if (eff.mayWrite) widen(call, eff.writeSection, *at, chain, true);
        }
      });
      if (cs) continue;
      // Unknown callee: worst case on COMMON.
      for (const auto& d : proc.decls) {
        if (d.commonBlock.empty()) continue;
        VarEffect& e = sum.effects[d.name];
        e.isArray = d.isArray();
        e.mayRead = e.mayWrite = true;
        if (e.isArray) {
          readAcc[d.name].collapse();
          writeAcc[d.name].collapse();
        }
      }
    }
  }

  // Attach accumulated sections.
  for (auto& [var, eff] : sum.effects) {
    if (!eff.isArray) continue;
    auto itR = readAcc.find(var);
    if (itR != readAcc.end()) eff.readSection = itR->second.toSection(var);
    auto itW = writeAcc.find(var);
    if (itW != writeAcc.end()) eff.writeSection = itW->second.toSection(var);
  }

  // Flow-sensitive scalar KILL and upward exposure, on bit rows: bit b is
  // the b-th scalar effect in name order, the only names either result
  // reports. Arrays are exposed wherever they are read (conservative).
  std::vector<VarEffect*> scalars;
  std::vector<std::string_view> scalarNames;  // sorted, as the map is
  for (auto& [var, eff] : sum.effects) {
    if (eff.isArray) {
      eff.exposedRead = eff.mayRead;
      continue;
    }
    scalars.push_back(&eff);
    scalarNames.push_back(var);
  }
  if (!scalars.empty()) {
    const cfg::FlowGraph fg = cfg::FlowGraph::build(model);
    auto bitOf = [&](std::string_view name) -> std::ptrdiff_t {
      auto it = std::lower_bound(scalarNames.begin(), scalarNames.end(), name);
      if (it == scalarNames.end() || *it != name) return -1;
      return it - scalarNames.begin();
    };
    // Per statement node: gen, the names it writes for sure (an
    // assignment's or READ's scalar target, and what a callee kills);
    // expose, the names it reads first (a read, or a CALL actual whose
    // callee reads the formal first or is unknown); block, the names it
    // writes otherwise (a write, a DO definition, or a CALL actual whose
    // callee kills the formal).
    BitRows gen(fg.numNodes(), scalars.size());
    BitRows expose(fg.numNodes(), scalars.size());
    BitRows block(fg.numNodes(), scalars.size());
    for (std::size_t i = 0; i < stmts.size(); ++i) {
      const Stmt& s = *stmts[i];
      const int node = cfg::FlowGraph::kFirstStmt + static_cast<int>(i);
      auto mark = [&](BitRows& rows, std::string_view name) {
        const std::ptrdiff_t b = bitOf(name);
        if (b >= 0) rows.set(node, static_cast<std::size_t>(b));
      };
      if (s.kind == StmtKind::Assign && s.lhs->kind == ExprKind::VarRef) {
        mark(gen, s.lhs->name);
      }
      if (s.kind == StmtKind::Read) {
        for (const auto& item : s.args) {
          if (item->kind == ExprKind::VarRef) mark(gen, item->name);
        }
      }
      // A nested call's KILL set propagates.
      for (const std::string& callee : callees[i]) {
        const ProcSummary* cs = phaseSummaryOf(callee);
        if (!cs) continue;
        forEachCall(s, callee, [&](const std::vector<ExprPtr>& actuals,
                                   bool isCall) {
          const CallBinding call(*cs, actuals);
          for (const auto& [var, eff] : cs->effects) {
            if (!eff.kills || eff.isArray) continue;
            // A killed formal reaches this procedure only through a plain
            // variable a CALL passes for it; a COMMON member keeps its
            // name.
            const auto at = call.land(var);
            if (at && (at->byName() || (isCall && at->whole()))) {
              mark(gen, at->name);
            }
          }
        });
      }
      refs.clear();
      ir::appendRefs(s, refs);
      for (const Ref& r : refs) {
        switch (r.kind) {
          case RefKind::Read:
            mark(expose, r.name);
            break;
          case RefKind::CallActual: {
            // Consult the CALL's own callee: exposed read and/or kill
            // through the formals it passes the variable for.
            bool calleeExposed = true, calleeKills = false;
            if (const ProcSummary* cs = phaseSummaryOf(s.callee)) {
              const CallBinding call(*cs, s.args);
              for (const std::string& formal : cs->formals) {
                const auto at = call.land(formal);
                if (!at || !at->whole() || at->name != r.name) continue;
                const VarEffect* fe = cs->effectOn(formal);
                calleeExposed = fe && fe->exposedRead;
                calleeKills = fe && fe->kills;
              }
            }
            if (calleeExposed) {
              mark(expose, r.name);
            } else if (calleeKills) {
              mark(block, r.name);
            }
            break;
          }
          case RefKind::Write:
          case RefKind::DoVarDef:
            mark(block, r.name);
            break;
        }
      }
    }
    const std::vector<std::uint64_t> killed = mustWriteAtExit(fg, gen);
    const std::vector<std::uint64_t> exposed =
        exposedReads(fg, expose, block);
    for (std::size_t b = 0; b < scalars.size(); ++b) {
      VarEffect& eff = *scalars[b];
      eff.kills = BitRows::test(killed.data(), b);
      // The nxsns "scalar killed in a procedure invoked inside a loop"
      // refinement: a read only after a kill on every path is not exposed.
      eff.exposedRead = eff.mayRead && BitRows::test(exposed.data(), b);
    }
  }

  // Array KILL: the write section covers the whole declared extent.
  for (auto& [var, eff] : sum.effects) {
    if (!eff.isArray || !eff.writeSection) continue;
    const fortran::VarDecl* decl = proc.findDecl(var);
    if (!decl || decl->dims.empty()) continue;
    bool covers = true;
    for (std::size_t d = 0;
         d < decl->dims.size() && d < eff.writeSection->dims.size(); ++d) {
      const auto& sd = eff.writeSection->dims[d];
      if (!sd || !sd->lo || !sd->hi) {
        covers = false;
        break;
      }
      // Declared range: [lower or 1, upper].
      ExprPtr declLo = decl->dims[d].lower ? decl->dims[d].lower->clone()
                                           : fortran::makeIntConst(1);
      if (!decl->dims[d].upper) {
        covers = false;
        break;
      }
      if (!sd->lo->structurallyEquals(*declLo) ||
          !sd->hi->structurallyEquals(*decl->dims[d].upper)) {
        covers = false;
        break;
      }
    }
    if (covers && decl->dims.size() <= eff.writeSection->dims.size()) {
      eff.kills = true;  // caveat: assumes the covering loops execute
    }
  }

  summaries_.at(proc.name) = std::move(sum);
}

namespace {

/// A main program without a call has its first call past every statement.
constexpr int kNoCall = 1 << 30;

}  // namespace

void SummaryBuilder::computeGlobalFacts() {
  // COMMON variables assigned exactly once in the whole program — in the
  // main program's initialization prefix (before the first call) — become
  // global constants/relations. The paper's arc3d case: "in the
  // initialization routine, the assignment JM = JMAX - 1 occurs, and this
  // relation holds for the rest of the program."
  const std::size_t n = program_.units.size();
  census_.assign(n, CensusRecord{});
  commonDeclared_.clear();
  mainUnit_ = n;
  for (std::size_t i = 0; i < n; ++i) {
    census_[i].declared = commonNamesIn(*program_.units[i]);
    for (const std::string& name : census_[i].declared) {
      ++commonDeclared_[name];
    }
    if (program_.units[i]->kind == fortran::ProcKind::Program) mainUnit_ = i;
  }
  totalWrites_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    countWrites(i, census_[i]);
    for (const auto& [name, count] : census_[i].writes) {
      totalWrites_[name] += count;
    }
  }
  globalConstants_.clear();
  globalRelations_.clear();
  if (mainUnit_ < n) {
    for (const auto& [name, w] : census_[mainUnit_].single) {
      (void)w;
      (void)deriveFact(name);
    }
  }
  summarized_ = true;  // the census reads final summaries, so it runs last
}

void SummaryBuilder::countWrites(std::size_t index, CensusRecord& rec) const {
  const Procedure& unit = *program_.units[index];
  const bool isMain = index == mainUnit_;
  rec.writes.clear();
  rec.single.clear();
  rec.firstCall = kNoCall;
  // Main program only: each name's last write, by pre-order position.
  std::map<std::string, std::pair<int, const Stmt*>> last;
  int pos = 0;
  std::vector<Ref> refs;
  auto lookup = [this](const std::string& name) { return summaryOf(name); };
  unit.forEachStmt([&](const Stmt& s) {
    const std::vector<std::string> callees = ir::calledFunctions(s);
    if (isMain && rec.firstCall == kNoCall && !callees.empty()) {
      rec.firstCall = pos;
    }
    auto count = [&](const std::string& name) {
      ++rec.writes[name];
      if (isMain) last[name] = {pos, &s};
    };
    refs.clear();
    ir::appendRefs(s, refs);
    for (const Ref& r : refs) {
      if (!r.isWrite() || !commonDeclared_.count(r.name)) continue;
      if (r.kind == RefKind::CallActual &&
          !refMayWrite(s, callees, r, /*duringSummarize=*/false)) {
        continue;
      }
      count(r.name);
    }
    forEachFunctionActualWrite(s, callees, lookup,
                               [&](const std::string& name) {
                                 if (commonDeclared_.count(name)) count(name);
                               });
    ++pos;
  });
  for (const auto& [name, at] : last) {
    if (rec.writes.at(name) != 1) continue;
    SingleWrite& w = rec.single[name];
    w.pos = at.first;
    const Stmt& s = *at.second;
    if (w.pos < rec.firstCall && s.kind == StmtKind::Assign &&
        s.lhs->kind == ExprKind::VarRef) {
      LinearExpr form = dataflow::linearize(*s.rhs);
      if (form.affine) w.rhs = std::move(form);
    }
  }
}

bool SummaryBuilder::passesCensusName(const Stmt& s) const {
  auto passes = [&](const std::vector<ExprPtr>& args) {
    for (const auto& a : args) {
      if ((a->kind == ExprKind::VarRef || a->kind == ExprKind::ArrayRef) &&
          commonDeclared_.count(a->name)) {
        return true;
      }
    }
    return false;
  };
  if (s.kind == StmtKind::Call && passes(s.args)) return true;
  bool passed = false;
  s.forEachExpr([&](const Expr& e) {
    if (e.kind == ExprKind::FuncCall && !passed && !ir::isIntrinsic(e.name)) {
      passed = passes(e.args);
    }
  });
  return passed;
}

bool SummaryBuilder::recountCensus(const std::set<std::string>& procs) {
  std::set<std::string> moved;
  for (const std::string& name : procs) {
    auto it = unitsNamed_.find(name);
    if (it == unitsNamed_.end()) continue;
    for (std::size_t i : it->second) {
      CensusRecord fresh;
      fresh.declared = commonNamesIn(*program_.units[i]);
      if (fresh.declared != census_[i].declared) {
        // Every unit's writes count against the census names, which may
        // have moved: take the whole census again.
        const auto oldConstants = std::move(globalConstants_);
        const auto oldRelations = std::move(globalRelations_);
        computeGlobalFacts();
        return oldConstants != globalConstants_ ||
               oldRelations != globalRelations_;
      }
      countWrites(i, fresh);
      replaceRecord(i, std::move(fresh), &moved);
    }
  }
  if (moved.empty()) return false;
  bool changed = false;
  for (const std::string& name : moved) {
    if (deriveFact(name)) changed = true;
  }
  // A relation also reads its operands' writes.
  if (mainUnit_ == census_.size()) return changed;
  for (const auto& [name, w] : census_[mainUnit_].single) {
    if (!w.rhs || moved.count(name)) continue;
    for (const auto& [var, coef] : w.rhs->coef) {
      (void)coef;
      if (!moved.count(var)) continue;
      if (deriveFact(name)) changed = true;
      break;
    }
  }
  return changed;
}

void SummaryBuilder::replaceRecord(std::size_t index, CensusRecord fresh,
                                   std::set<std::string>* moved) {
  CensusRecord& old = census_[index];
  // Merge the two name-ordered write maps; only a moved count touches the
  // totals.
  auto addWrites = [&](const std::string& name, int delta) {
    moved->insert(name);
    int& total = totalWrites_[name];
    total += delta;
    if (total == 0) totalWrites_.erase(name);
  };
  auto io = old.writes.begin();
  auto in = fresh.writes.begin();
  while (io != old.writes.end() || in != fresh.writes.end()) {
    if (in == fresh.writes.end() ||
        (io != old.writes.end() && io->first < in->first)) {
      addWrites(io->first, -io->second);
      ++io;
    } else if (io == old.writes.end() || in->first < io->first) {
      addWrites(in->first, in->second);
      ++in;
    } else {
      if (io->second != in->second) {
        addWrites(in->first, in->second - io->second);
      }
      ++io;
      ++in;
    }
  }
  if (index == mainUnit_) {
    // A moved first call re-derives every single write of the main
    // program; otherwise only the writes that moved.
    const bool all = old.firstCall != fresh.firstCall;
    for (const auto& [name, w] : old.single) {
      auto it = fresh.single.find(name);
      if (all || it == fresh.single.end() || !(it->second == w)) {
        moved->insert(name);
      }
    }
    for (const auto& [name, w] : fresh.single) {
      (void)w;
      if (!old.single.count(name)) moved->insert(name);
    }
  }
  old = std::move(fresh);
}

bool SummaryBuilder::deriveFact(const std::string& name) {
  // The fact: exactly one write program-wide, in the main program's
  // prefix, of the form NAME = <affine>. A constant right-hand side makes
  // a constant; otherwise a relation, when every operand is a COMMON name
  // that is either never written or written once in the main program
  // before this assignment.
  const SingleWrite* w = nullptr;
  if (mainUnit_ < census_.size()) {
    const CensusRecord& m = census_[mainUnit_];
    auto total = totalWrites_.find(name);
    auto single = m.single.find(name);
    if (total != totalWrites_.end() && total->second == 1 &&
        single != m.single.end() && single->second.rhs) {
      w = &single->second;
    }
  }
  std::optional<long long> constant;
  const LinearExpr* relation = nullptr;
  if (w && w->rhs->isConstant()) {
    constant = w->rhs->constant;
  } else if (w) {
    bool operandsStable = true;
    for (const auto& [var, coef] : w->rhs->coef) {
      (void)coef;
      if (!commonDeclared_.count(var)) {
        operandsStable = false;
        break;
      }
      auto total = totalWrites_.find(var);
      if (total == totalWrites_.end()) continue;  // never written
      const auto& single = census_[mainUnit_].single;
      auto ow = single.find(var);
      if (total->second != 1 || ow == single.end() ||
          ow->second.pos >= w->pos) {
        operandsStable = false;
        break;
      }
    }
    if (operandsStable) relation = &*w->rhs;
  }

  bool changed = false;
  auto ic = globalConstants_.find(name);
  if (constant && (ic == globalConstants_.end() || ic->second != *constant)) {
    globalConstants_[name] = *constant;
    changed = true;
  } else if (!constant && ic != globalConstants_.end()) {
    globalConstants_.erase(ic);
    changed = true;
  }
  auto rel = globalRelations_.find(name);
  if (relation &&
      (rel == globalRelations_.end() || !(rel->second == *relation))) {
    globalRelations_[name] = *relation;
    changed = true;
  } else if (!relation && rel != globalRelations_.end()) {
    globalRelations_.erase(rel);
    changed = true;
  }
  return changed;
}

void SummaryBuilder::computeFormalConstants() {
  // Formal constants: every call site passes the same literal. Pure AST +
  // call graph — no summaries — so this is valid before summarization.
  formalConstants_.clear();
  for (const auto& [name, indices] : unitsNamed_) {
    (void)indices;
    auto consts = formalConstantsOf(name);
    if (!consts.empty()) formalConstants_[name] = std::move(consts);
  }
}

std::map<std::string, long long> SummaryBuilder::formalConstantsOf(
    const std::string& callee) const {
  std::map<std::string, long long> out;
  auto units = unitsNamed_.find(callee);
  if (units == unitsNamed_.end()) return out;
  const auto calls = callGraph_.callsTo(callee);
  if (calls.empty()) return out;
  for (std::size_t index : units->second) {
    const Procedure& u = *program_.units[index];
    for (std::size_t i = 0; i < u.params.size(); ++i) {
      bool allSame = true;
      bool haveValue = false;
      long long value = 0;
      for (const CallSite* cs : calls) {
        if (cs->stmt->kind != StmtKind::Call ||
            i >= cs->stmt->args.size()) {
          allSame = false;
          break;
        }
        const Expr& a = *cs->stmt->args[i];
        if (a.kind != ExprKind::IntConst) {
          allSame = false;
          break;
        }
        if (!haveValue) {
          value = a.intValue;
          haveValue = true;
        } else if (value != a.intValue) {
          allSame = false;
          break;
        }
      }
      if (allSame && haveValue) out[u.params[i]] = value;
    }
  }
  return out;
}

std::set<std::string> SummaryBuilder::refreshFormalConstants(
    const std::set<std::string>& callers) {
  std::set<std::string> callees;
  for (const std::string& caller : callers) {
    for (const CallSite* cs : callGraph_.callsFrom(caller)) {
      callees.insert(cs->callee);
    }
  }
  std::set<std::string> changed;
  for (const std::string& callee : callees) {
    auto fresh = formalConstantsOf(callee);
    auto it = formalConstants_.find(callee);
    if (it == formalConstants_.end() ? fresh.empty() : it->second == fresh) {
      continue;
    }
    changed.insert(callee);
    if (fresh.empty()) {
      formalConstants_.erase(it);
    } else {
      formalConstants_[callee] = std::move(fresh);
    }
  }
  return changed;
}

bool SummaryBuilder::usesGlobalFacts(const Procedure& proc) const {
  for (const auto& d : proc.decls) {
    if (!d.commonBlock.empty()) return true;
  }
  return false;
}

std::map<std::string, long long> SummaryBuilder::inheritedConstantsFor(
    const Procedure& proc) const {
  std::map<std::string, long long> out;
  for (const auto& d : proc.decls) {
    if (d.commonBlock.empty()) continue;
    auto it = globalConstants_.find(d.name);
    if (it != globalConstants_.end()) out[d.name] = it->second;
  }
  auto itF = formalConstants_.find(proc.name);
  if (itF != formalConstants_.end()) {
    for (const auto& [name, v] : itF->second) out[name] = v;
  }
  return out;
}

std::vector<dataflow::Relation> SummaryBuilder::inheritedRelationsFor(
    const Procedure& proc) const {
  std::vector<dataflow::Relation> out;
  // Without a COMMON declaration nothing below can match; returning early
  // also keeps this readable concurrently with the census task (a
  // no-COMMON procedure's analysis need not wait for computeGlobalFacts).
  if (!usesGlobalFacts(proc)) return out;
  for (const auto& [name, value] : globalRelations_) {
    // The relation's variable must be visible here, and the procedure must
    // not be the one performing the assignment... single-assignment already
    // guarantees validity after the write; we additionally require the
    // variable to be in COMMON in this procedure.
    const fortran::VarDecl* d = proc.findDecl(name);
    if (d && !d->commonBlock.empty()) out.push_back({name, value});
  }
  return out;
}

std::map<std::string, long long> SummaryBuilder::inheritedConstantsFor(
    const std::string& procName) const {
  const Procedure* proc = program_.findUnit(procName);
  return proc ? inheritedConstantsFor(*proc)
              : std::map<std::string, long long>{};
}

std::vector<dataflow::Relation> SummaryBuilder::inheritedRelationsFor(
    const std::string& procName) const {
  const Procedure* proc = program_.findUnit(procName);
  return proc ? inheritedRelationsFor(*proc)
              : std::vector<dataflow::Relation>{};
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

InterproceduralOracle::InterproceduralOracle(const SummaryBuilder& summaries,
                                             const Procedure& caller)
    : summaries_(summaries), caller_(caller) {}

bool InterproceduralOracle::knowsCallee(const std::string& name) const {
  return summaries_.summaryOf(name) != nullptr;
}

std::vector<dep::CallEffect> InterproceduralOracle::effectsOfCall(
    const Stmt& stmt, const std::string& callee) const {
  std::vector<dep::CallEffect> out;
  const ProcSummary* cs = summaries_.summaryOf(callee);
  if (!cs) return out;
  const std::set<std::string> common = commonNamesIn(caller_);
  forEachCall(stmt, callee, [&](const std::vector<ExprPtr>& actuals, bool) {
    // A second call that passes the same actuals repeats an earlier call's
    // effects; each is reported once.
    const std::size_t earlier = out.size();
    auto add = [&](dep::CallEffect e) {
      const auto end = out.begin() + static_cast<std::ptrdiff_t>(earlier);
      const bool repeated =
          std::any_of(out.begin(), end, [&](const dep::CallEffect& o) {
            return o.var == e.var && o.isArray == e.isArray &&
                   o.mayRead == e.mayRead && o.mayWrite == e.mayWrite &&
                   o.exposedRead == e.exposedRead && o.kills == e.kills &&
                   sectionKey(o.section) == sectionKey(e.section);
          });
      if (!repeated) out.push_back(std::move(e));
    };
    const CallBinding call(*cs, actuals);
    for (const auto& [var, eff] : cs->effects) {
      // A name the call does not bind reaches the caller only when the
      // caller declares it in COMMON.
      const auto at = call.land(var);
      if (!at || (at->byName() && !common.count(at->name))) continue;
      if (eff.mayRead) {
        dep::CallEffect e;
        e.var = at->name;
        e.isArray = eff.isArray;
        e.mayRead = true;
        e.exposedRead = eff.exposedRead;
        e.section = call.translate(eff.readSection, *at, common);
        add(std::move(e));
      }
      if (eff.mayWrite) {
        dep::CallEffect e;
        e.var = at->name;
        e.isArray = eff.isArray;
        e.mayWrite = true;
        e.kills = eff.kills;
        e.section = call.translate(eff.writeSection, *at, common);
        add(std::move(e));
      }
    }
  });
  return out;
}

}  // namespace ps::interproc
