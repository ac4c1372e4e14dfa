#ifndef PS_INTERPROC_SUMMARIES_H
#define PS_INTERPROC_SUMMARIES_H

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dataflow/symbolic.h"
#include "dependence/section.h"
#include "fortran/ast.h"
#include "interproc/callgraph.h"
#include "ir/refs.h"

namespace ps::interproc {

/// Summary of one procedure's effect on one externally visible variable
/// (a formal parameter or COMMON member), in the procedure's own scope.
struct VarEffect {
  bool isArray = false;
  bool mayRead = false;   // REF: read on some path
  bool mayWrite = false;  // MOD: written on some path
  bool kills = false;     // KILL: definitely (re)written on every path
  /// Read before any kill on some path from entry (upward-exposed use).
  bool exposedRead = false;

  /// Union of accessed subscript ranges when expressible as a bounded
  /// regular section over stable symbols; disengaged = "unknown/whole".
  std::optional<dep::Section> readSection;
  std::optional<dep::Section> writeSection;
};

/// Structural equality (sections compared by their canonical rendering) —
/// the incremental updater's "did this summary actually change" check.
[[nodiscard]] bool operator==(const VarEffect& a, const VarEffect& b);

/// Interprocedural summary of one procedure: flow-insensitive MOD/REF
/// [Banning 79], flow-sensitive KILL [Callahan 88], and bounded regular
/// sections [Havlak–Kennedy 91] — the suite the paper credits as "one of
/// the distinguishing features of PED's dependence information".
struct ProcSummary {
  std::string name;
  std::vector<std::string> formals;
  std::map<std::string, VarEffect> effects;

  [[nodiscard]] const VarEffect* effectOn(const std::string& var) const {
    auto it = effects.find(var);
    return it == effects.end() ? nullptr : &it->second;
  }
};

[[nodiscard]] bool operator==(const ProcSummary& a, const ProcSummary& b);

/// Builds summaries bottom-up over the call graph. Procedures on recursive
/// cycles and calls to unresolved (library) routines get worst-case
/// summaries.
class SummaryBuilder {
 public:
  explicit SummaryBuilder(fortran::Program& program);

  /// Deferred construction for the parallel analysis driver. Builds the
  /// call graph, pre-inserts one summary slot per summarizable procedure —
  /// so concurrent summarizeOne()/finalizeRecursiveOne() calls assign into
  /// existing map nodes and never mutate the map structure — and computes
  /// the (immutable, AST-only) formal constants, but summarizes nothing.
  /// The driver must call summarizeOne() for every bottomUpOrder() name
  /// sequenced callee-before-caller (the call-graph DAG) and
  /// finalizeRecursiveOne() for every recursive() name (no ordering
  /// constraint), then computeGlobalFacts() after all of those. The result
  /// is identical to the eager constructor.
  struct Deferred {};
  SummaryBuilder(fortran::Program& program, Deferred);

  /// Summarize one procedure. Safe to call concurrently for different
  /// procedures provided every callee's summarizeOne happened-before.
  void summarizeOne(const std::string& name);
  /// Sequential epilogue: worst-case summaries for recursive procedures +
  /// whole-program constant/relation propagation.
  void finalize();

  /// Per-procedure slice of finalize(): install the worst-case summary of
  /// ONE recursive procedure. Depends only on that procedure's AST, so the
  /// parallel driver may run these concurrently with summarizeOne() calls —
  /// summarization never reads recursive slots (they are filtered to
  /// worst-case regardless), and the slot was pre-inserted by the
  /// constructor so no map node is created.
  void finalizeRecursiveOne(const std::string& name);
  /// The whole-program constant/relation census (the other half of
  /// finalize()). Must run after every summarizeOne()/finalizeRecursiveOne()
  /// — it resolves call actuals through the final summaries.
  void computeGlobalFacts();
  /// True when `proc` declares any COMMON variable, i.e. its inherited
  /// facts can depend on computeGlobalFacts(). Procedures without COMMON
  /// need not wait for the census (their inherited constants come from the
  /// call-site-literal scan, which is immutable once constructed).
  [[nodiscard]] bool usesGlobalFacts(const fortran::Procedure& proc) const;

  /// Result of an incremental summary update after a source edit.
  struct Update {
    /// The call graph's shape changed (procedures or call sites added or
    /// removed): every summary was rebuilt and every analysis is stale.
    bool structureChanged = false;
    /// Procedures whose ProcSummary differs from the pre-edit one.
    std::set<std::string> changedSummaries;
    /// Procedures that were re-run through summarization.
    std::set<std::string> resummarized;
    /// Procedures whose dependence analysis is invalidated by the edit:
    /// the edited procedures plus every procedure with a call site whose
    /// callee summary changed. (Inherited-fact changes are diffed by the
    /// caller, for the procedures the two fields below name.)
    std::set<std::string> staleAnalyses;
    /// Procedures whose formal constants (call-site literals) changed.
    std::set<std::string> formalConstantsChanged;
    /// The COMMON census (global constants and relations) changed: every
    /// procedure declaring COMMON may inherit different facts.
    bool globalFactsChanged = false;
  };

  /// Re-establish all summaries after `editedProcs` had statements edited,
  /// re-summarizing only the edited procedures and the callers transitively
  /// reached by actual summary changes. The call graph is refreshed at the
  /// edited procedures (CallSite::stmt must track the live AST) and rebuilt
  /// only when their callee sequences moved. Post-state is bit-identical to
  /// a from-scratch eager build. Summaries are updated in place, so
  /// InterproceduralOracles holding a reference to this builder stay valid.
  Update applyEdit(const std::set<std::string>& editedProcs);

  /// Keep the call graph live after a transformation rewrote `procName`'s
  /// body (it may have cloned or freed CALL statements). Summaries are left
  /// as they are; when the call shape moved, the next applyEdit rebuilds
  /// every summary as though the transformation had been an edit.
  void refreshCallSites(const std::string& procName);

  [[nodiscard]] const ProcSummary* summaryOf(const std::string& name) const;
  [[nodiscard]] const CallGraph& callGraph() const { return callGraph_; }

  /// Warm-start shortcut: assign a deserialized summary into `name`'s
  /// pre-inserted slot instead of running summarizeOne(). Only valid on a
  /// Deferred builder, under the same callee-before-caller sequencing as
  /// summarizeOne (the persistent store's content key chains callee
  /// summary hashes, so a verified hit guarantees the bytes equal what
  /// summarizeOne would produce). False when `name` has no slot (not a
  /// summarizable procedure) — the caller must fall back to summarizeOne.
  bool installSummary(const std::string& name, ProcSummary s);

  /// Constants inherited by a procedure from its call sites: a formal
  /// receives a constant when every call site passes the same literal.
  /// COMMON variables receive one when the whole program assigns them a
  /// single literal before any use. (Interprocedural constant propagation.)
  [[nodiscard]] std::map<std::string, long long> inheritedConstantsFor(
      const fortran::Procedure& proc) const;

  /// Symbolic relations valid on entry to a procedure: V = <linear form>
  /// where V is a COMMON variable assigned exactly once in the whole
  /// program and the operands are similarly stable (interprocedural
  /// symbolic propagation — the arc3d JM = JMAX - 1 case).
  [[nodiscard]] std::vector<dataflow::Relation> inheritedRelationsFor(
      const fortran::Procedure& proc) const;

  /// The same two lookups by procedure name (a findUnit scan each). Only
  /// the pipeline benchmark's layer probe (psbench/cold_open.cpp) still
  /// calls these; everything else passes the unit it already holds.
  [[nodiscard]] std::map<std::string, long long> inheritedConstantsFor(
      const std::string& procName) const;
  [[nodiscard]] std::vector<dataflow::Relation> inheritedRelationsFor(
      const std::string& procName) const;

 private:
  void summarize(fortran::Procedure& proc);
  /// Bring callGraph_ up to date after `procs` changed: re-point their
  /// sites, or rebuild the graph when a callee sequence moved. False when
  /// the rebuilt graph's shape differs from the previous one.
  bool refreshCallGraph(const std::set<std::string>& procs);
  /// Formal constants from call-site literals (AST + call graph only, no
  /// summaries involved) — computed at construction so the parallel driver
  /// can read inherited constants concurrently with the census.
  void computeFormalConstants();
  /// Pre-insert one summary slot per summarizable procedure so the map
  /// structure never changes while summaries are assigned concurrently.
  void preinsertSlots();
  /// The callee-summary view DURING summarization: recursive procedures
  /// read as unknown (worst case) even when their slot is already filled,
  /// exactly as in the sequential eager build where finalize() ran last.
  /// Keeps re-summarization bit-identical to a fresh build, and keeps
  /// concurrent finalizeRecursiveOne() writes out of summarize()'s reads.
  [[nodiscard]] const ProcSummary* phaseSummaryOf(
      const std::string& name) const;
  [[nodiscard]] ProcSummary worstCaseSummary(
      const std::string& name, const fortran::Procedure& proc) const;
  /// True when a CallActual reference may actually be written, per the
  /// callee summaries (conservative for unknown callees). During
  /// summarization recursive callees read as unknown (see phaseSummaryOf);
  /// the census sees their worst-case summaries.
  [[nodiscard]] bool refMayWrite(const fortran::Stmt& s, const ir::Ref& r,
                                 bool duringSummarize) const;

  fortran::Program& program_;
  CallGraph callGraph_;
  /// A transformation moved the call shape since the last summary update.
  bool shapeMoved_ = false;
  std::set<std::string> recursiveNames_;  // callGraph_.recursive(), as a set
  std::map<std::string, ProcSummary> summaries_;
  std::map<std::string, long long> globalConstants_;       // COMMON var -> value
  std::vector<dataflow::Relation> globalRelations_;        // COMMON relations
  std::map<std::string, std::map<std::string, long long>> formalConstants_;
};

/// Adapts SummaryBuilder into the dependence builder's oracle interface,
/// translating callee-scope sections into the caller's scope at each call
/// site (actuals substituted for formals).
class InterproceduralOracle : public dep::SideEffectOracle {
 public:
  InterproceduralOracle(const SummaryBuilder& summaries,
                        const fortran::Procedure& caller);

  [[nodiscard]] bool knowsCallee(const std::string& name) const override;
  [[nodiscard]] std::vector<dep::CallEffect> effectsOfCall(
      const fortran::Stmt& stmt, const std::string& callee) const override;

 private:
  const SummaryBuilder& summaries_;
  const fortran::Procedure& caller_;
};

}  // namespace ps::interproc

#endif  // PS_INTERPROC_SUMMARIES_H
