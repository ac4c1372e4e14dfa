#ifndef PS_INTERPROC_SUMMARIES_H
#define PS_INTERPROC_SUMMARIES_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataflow/symbolic.h"
#include "dependence/section.h"
#include "fortran/ast.h"
#include "interproc/callgraph.h"
#include "ir/refs.h"
#include "support/taskpool.h"

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
/// summaries. The bottom-up phase is written once, in schedule(): the eager
/// constructor and a structural applyEdit run its nodes in insertion
/// order, the session's analysis scheduler and warm open on a pool.
class SummaryBuilder {
 public:
  /// Summarizes the whole program: the schedule() phase, run in insertion
  /// order.
  explicit SummaryBuilder(fortran::Program& program);

  /// Deferred construction for the analysis scheduler. Builds the call
  /// graph, pre-inserts one summary slot per summarizable procedure (so
  /// concurrent phase nodes assign into existing map nodes and never
  /// mutate the map structure) and computes the formal constants (AST and
  /// call graph only), but summarizes nothing until a schedule() graph
  /// runs.
  struct Deferred {};
  SummaryBuilder(fortran::Program& program, Deferred);

  /// Where the phase may take a bottom-up procedure's summary from instead
  /// of summarizing it: a verified stored summary, or nullopt to summarize
  /// live. Called with the procedure's name and the index of its first
  /// unit in the program, from the procedure's node, once its
  /// non-recursive callees' summaries are final; concurrent calls name
  /// different procedures.
  using SummarySource = std::function<std::optional<ProcSummary>(
      const std::string& name, std::size_t unit)>;

  /// Add the summary phase to `graph`, unless the summaries are already
  /// final (then nothing is added): one node per
  /// callGraph().bottomUpOrder() procedure, with callee->caller edges
  /// between non-recursive pairs (summarization reads a recursive callee
  /// as worst case whenever it runs), one worst-case node per recursive
  /// procedure, and the COMMON census after all of them. Insertion order
  /// is topological, so runInOrder() is the sequential build. Returns, per
  /// procedure name, the nodes its dependence analysis must wait on: its
  /// direct callees' summary nodes (its side-effect oracle reads them)
  /// plus the census when it declares COMMON (its inherited facts read
  /// it); empty when nothing was added.
  std::map<std::string, std::vector<std::size_t>> schedule(
      support::TaskGraph& graph, SummarySource source = {});

  /// True when `proc` declares any COMMON variable, i.e. its inherited
  /// facts can depend on the COMMON census. Procedures without COMMON need
  /// not wait for the census: their inherited constants are formal
  /// constants (call-site literals), which the constructor computes before
  /// any phase node runs and only applyEdit recomputes.
  [[nodiscard]] bool usesGlobalFacts(const fortran::Procedure& proc) const;

  /// Result of an incremental summary update after a change to some
  /// units' statements.
  struct Update {
    /// The call graph's shape changed (procedures or call sites added or
    /// removed): every summary was rebuilt and every analysis is stale.
    bool structureChanged = false;
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

  /// Re-establish all summaries after the statements of `editedProcs`
  /// changed — by a source edit, a transformation or a rollback, which
  /// the session updates alike — re-summarizing only the edited procedures
  /// and the callers transitively reached by actual summary changes. The
  /// call graph is refreshed at the edited procedures (CallSite::stmt must
  /// track the live AST) and rebuilt only when their callee sequences
  /// moved; a moved call shape or unit count rebuilds every summary. Only
  /// what can have moved is recounted: the formal constants of the callees
  /// of the edited procedures, and the census records of those procedures
  /// and of every caller of a summary whose writes changed. Post-state is
  /// bit-identical to a from-scratch eager build. Summaries are updated in
  /// place, so InterproceduralOracles holding a reference to this builder
  /// stay valid.
  Update applyEdit(const std::set<std::string>& editedProcs);

  [[nodiscard]] const ProcSummary* summaryOf(const std::string& name) const;
  [[nodiscard]] const CallGraph& callGraph() const { return callGraph_; }

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
  /// A census name's only write in the main program.
  struct SingleWrite {
    int pos = 0;  // pre-order position in the main program
    /// The right-hand side's linear form, when the write is
    /// `NAME = <affine>` before the main program's first call.
    std::optional<dataflow::LinearExpr> rhs;
    [[nodiscard]] bool operator==(const SingleWrite& o) const {
      return pos == o.pos && rhs == o.rhs;
    }
  };
  /// One unit's share of the COMMON census. It holds no pointer into the
  /// AST, so it stays valid until the unit is recounted.
  struct CensusRecord {
    /// The names this unit declares in COMMON.
    std::set<std::string> declared;
    /// Writes per census name (a name some unit declares in COMMON).
    std::map<std::string, int> writes;
    /// Main program only: the pre-order position of its first statement
    /// that calls, and each name it writes exactly once.
    int firstCall = 0;
    std::map<std::string, SingleWrite> single;
  };

  void summarize(fortran::Procedure& proc);
  /// The schedule() phase on the calling thread, in insertion order.
  void summarizeInOrder();
  /// The whole-program constant/relation census: one record per unit and
  /// the facts derived from them. Resolves call actuals through the final
  /// summaries, so it runs after every other phase node.
  void computeGlobalFacts();
  /// Count unit `index`'s writes of census names into `rec`.
  void countWrites(std::size_t index, CensusRecord& rec) const;
  /// True when a call in `s` (the CALL or a function reference) has a
  /// census name as a variable actual: the only place a census record
  /// reads its callees' summaries.
  [[nodiscard]] bool passesCensusName(const fortran::Stmt& s) const;
  /// Recount the units named in `procs` and re-derive the facts their
  /// records can move. True when a fact changed.
  bool recountCensus(const std::set<std::string>& procs);
  /// Install `fresh` as unit `index`'s record, adjusting the write totals,
  /// and add every census name whose inputs moved to `moved`.
  void replaceRecord(std::size_t index, CensusRecord fresh,
                     std::set<std::string>* moved);
  /// Re-derive `name`'s constant or relation from the records. True when
  /// it changed.
  bool deriveFact(const std::string& name);
  /// Bring callGraph_ up to date after `procs` changed: re-point their
  /// sites, or rebuild the graph when a callee sequence moved. False when
  /// the rebuilt graph's shape differs from the previous one.
  bool refreshCallGraph(const std::set<std::string>& procs);
  /// Formal constants from call-site literals (AST + call graph only, no
  /// summaries involved) — computed at construction so analysis nodes can
  /// read inherited constants concurrently with the census.
  void computeFormalConstants();
  /// The formal constants of the units named `callee`.
  [[nodiscard]] std::map<std::string, long long> formalConstantsOf(
      const std::string& callee) const;
  /// Recompute the formal constants of every callee of `callers`; returns
  /// the callees whose constants changed.
  std::set<std::string> refreshFormalConstants(
      const std::set<std::string>& callers);
  /// Index the units by name and pre-insert one summary slot per
  /// summarizable procedure, so the map structure never changes while
  /// summaries are assigned concurrently.
  void indexUnits();
  /// The callee-summary view DURING summarization: recursive procedures
  /// read as unknown (worst case) even when their slot is already filled,
  /// exactly as in the sequential eager build, which fills them last.
  /// Keeps re-summarization bit-identical to a fresh build, and keeps the
  /// concurrent worst-case nodes' writes out of summarize()'s reads.
  [[nodiscard]] const ProcSummary* phaseSummaryOf(
      const std::string& name) const;
  [[nodiscard]] ProcSummary worstCaseSummary(
      const std::string& name, const fortran::Procedure& proc) const;
  /// True when a CallActual reference may actually be written, per the
  /// summaries of `callees`, the user routines `s` calls (conservative for
  /// unknown callees). During summarization recursive callees read as
  /// unknown (see phaseSummaryOf); the census sees their worst-case
  /// summaries.
  [[nodiscard]] bool refMayWrite(const fortran::Stmt& s,
                                 const std::vector<std::string>& callees,
                                 const ir::Ref& r,
                                 bool duringSummarize) const;

  fortran::Program& program_;
  CallGraph callGraph_;
  /// Indices into program_.units by unit name (a name may repeat).
  std::unordered_map<std::string, std::vector<std::size_t>> unitsNamed_;
  /// Every summary and the census are final: schedule() adds nothing.
  bool summarized_ = false;
  std::map<std::string, ProcSummary> summaries_;
  /// The census: one record per unit (program_.units order), the writes
  /// per census name summed over every record, and per name the number
  /// of COMMON declarations of it (the census names are its keys).
  std::vector<CensusRecord> census_;
  std::unordered_map<std::string, int> totalWrites_;
  std::unordered_map<std::string, int> commonDeclared_;
  /// The main program's index in program_.units (the last PROGRAM unit),
  /// or units.size() when there is none.
  std::size_t mainUnit_ = 0;
  std::map<std::string, long long> globalConstants_;  // COMMON var -> value
  std::map<std::string, dataflow::LinearExpr> globalRelations_;  // var -> form
  std::unordered_map<std::string, std::map<std::string, long long>>
      formalConstants_;
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
