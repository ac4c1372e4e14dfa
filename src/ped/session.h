#ifndef PS_PED_SESSION_H
#define PS_PED_SESSION_H

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dependence/graph.h"
#include "emit/emit.h"
#include "interp/machine.h"
#include "interproc/array_kill.h"
#include "interproc/summaries.h"
#include "ped/assertions.h"
#include "ped/perfest.h"
#include "support/audit.h"
#include "support/diagnostics.h"
#include "support/taskpool.h"
#include "transform/transform.h"
#include "validate/validate.h"

namespace ps::ped {

/// Fault injection points for robustness tests. The fault fires once at the
/// next matching operation, then disarms itself.
enum class Fault {
  None,
  /// The transformation mutates the program, then reports failure — the
  /// partial mutation must be rolled back.
  MidApply,
  /// State is corrupted (duplicate statement id) after a successful
  /// transformation or statement edit — the post-operation audit must catch
  /// it and roll back.
  CorruptState,
};

/// Structured record of a failed or rolled-back operation: PED's power
/// steering promises the user a diagnosed failure, never a broken program.
struct FailureReport {
  std::string operation;  // "Loop Interchange", "editStatement", ...
  std::string detail;     // transformation error text or audit violations
  bool rolledBack = false;

  [[nodiscard]] std::string str() const {
    return operation + ": " + detail +
           (rolledBack ? " [rolled back]" : "");
  }
};

/// Every place the bounded analyses gave up this session: the degraded
/// dependence edges still in the graphs plus the budget-exhaustion counters.
struct DegradationReport {
  struct Edge {
    std::string procedure;
    std::uint32_t depId = 0;
    std::string type;
    std::string variable;
    int level = 0;
  };
  std::vector<Edge> edges;
  /// Rejected (user-deleted) edges the last validation pass could not
  /// check — trace overflow, unsupported edge shape, or a failed trace
  /// run. These deletions are still trusted, but explicitly untrusted-by-
  /// evidence rather than silently passed.
  std::vector<Edge> unvalidated;
  long long fmDegraded = 0;
  long long degradedAnswers = 0;
  long long linearizeDegraded = 0;
  long long symbolicTruncated = 0;

  [[nodiscard]] bool empty() const {
    return edges.empty() && unvalidated.empty() && fmDegraded == 0 &&
           degradedAnswers == 0 && linearizeDegraded == 0 &&
           symbolicTruncated == 0;
  }
  [[nodiscard]] std::string str() const;
};

/// What one run of the analysis scheduler did: thread count, wall time, and
/// pool counters (tasks include the per-nest fan-out inside each
/// per-procedure build). `incremental` is set when the run consumed a
/// pending dirty set instead of rebuilding the whole program; `procedures`
/// counts the procedures the run analyzed.
struct ParallelReport {
  int threads = 1;
  bool incremental = false;
  double seconds = 0.0;
  std::size_t procedures = 0;
  std::uint64_t tasksExecuted = 0;
  std::uint64_t steals = 0;
  /// Steal-latency telemetry for this run: per-worker idle time and steal
  /// attempts/fails (rows 0..threads-1) plus one row for external waiters,
  /// diffed against the pool's counters at the start of the run.
  std::vector<support::TaskPool::IdleStats> idle;
};

/// Feature-usage counters, mirroring the rows of the paper's Table 2 so the
/// scripted work-model sessions can report what they exercised.
struct UsageCounters {
  int dependenceDeletions = 0;       // "dependence deletion"
  int variableClassifications = 0;   // "variable classification"
  int analysisQueries = 0;           // "access to analysis"
  int programNavigations = 0;        // "navigation: program"
  int dependenceNavigations = 0;     // "navigation: dependence"
  int viewFilterUses = 0;            // "view filtering"
  int interfaceErrorChecks = 0;      // "detect interface error"
  int transformationsApplied = 0;
  int assertionsAdded = 0;
};

/// What the persistent program database contributed to a session: per-kind
/// hit/miss tallies, the damage report, and the live work that remained.
struct PdbStats {
  bool storeRejected = false;  // unreadable file or header mismatch
  /// Structured I/O failures from savePdb/openWarm: which stage failed
  /// ("create", "write", "fsync", "rename", "read", ...) and the errno
  /// text, instead of the bare bool the callers also get. A missing store
  /// file on open is a normal cold start and is NOT recorded here.
  std::vector<FailureReport> ioFailures;
  std::size_t summaryHits = 0;
  std::size_t summaryMisses = 0;
  std::size_t graphHits = 0;
  std::size_t graphMisses = 0;
  /// Records dropped by any verification layer: framing/checksum damage,
  /// verify-hash (collision) mismatch, or structural rebind failure.
  std::size_t quarantined = 0;
  std::size_t memoPrewarmed = 0;  // dependence-test results seeded warm
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  /// Dependence tests actually executed while settling warm-open misses
  /// (zero when every procedure hit).
  long long testsRunLive = 0;

  [[nodiscard]] std::string str() const;
};

/// The ParaScope Editor session: an electronic book over one Fortran
/// program with three panes, progressive disclosure by loop selection,
/// user-editable dependence marks and variable classifications, assertions,
/// power-steered transformations and navigation guidance.
class Session {
 public:
  /// Parse a program. Nothing is analyzed yet: the interprocedural
  /// summaries and each procedure's dependence graph are computed on first
  /// use, or all at once by analyzeParallel(). Assertion directives
  /// (CPED$/!PED$) found in the source are applied immediately.
  static std::unique_ptr<Session> load(std::string_view source,
                                       DiagnosticEngine& diags);

  /// Open `source` against a persistent program database written by
  /// savePdb(): every procedure whose content key (normalized source text
  /// + inherited interprocedural facts + analysis budget) hits a verified
  /// store record adopts the stored summary and dependence graph. The
  /// work runs on a pool of `nThreads` workers (0 = hardware_concurrency):
  /// pool tasks verify every procedure's graph slice and restore it, and
  /// only the mismatches are then analyzed — by the scheduler every other
  /// analysis goes through — on the same pool. A missing, truncated,
  /// corrupted or version-skewed store never fails the open: it degrades,
  /// record by record, to cold recomputation, with the damage tallied in
  /// pdbStats().
  /// Results are bit-identical to load() + analyzeParallel(), and
  /// pdbStats() is the same, at any thread count.
  static std::unique_ptr<Session> openWarm(std::string_view source,
                                           const std::string& pdbPath,
                                           DiagnosticEngine& diags,
                                           int nThreads = 0);

  /// Resources an analysis server shares across the sessions it hosts; see
  /// server::AnalysisServer. Every field is optional — attach() with a
  /// default-constructed SharedWarmState is a cold load() + analyze.
  struct SharedWarmState {
    /// Store image already read from disk (the server reads the file once
    /// and every session verifies records out of the same bytes). Null =
    /// no store; the session runs cold.
    const std::string* storeImage = nullptr;
    /// Dependence-test memo shared with other sessions. Null = private
    /// memo. Sharing needs no per-session state: every memo key renders
    /// all of its test's inputs, this session's assertions included.
    std::shared_ptr<dep::DepMemo> memo;
    /// Pool the warm-open settle is scheduled on; null = a private pool of
    /// `nThreads` workers.
    support::TaskPool* pool = nullptr;
  };

  /// Open `source` against shared server state: verified records restore
  /// from the shared store image, dependence tests flow through the shared
  /// memo, and the summary builder's phase (with the store as its summary
  /// source), the per-procedure restore of verified graph slices and the
  /// settle of store misses all run on the shared pool (a private pool of
  /// `nThreads` workers when it is null). Summary and graph outcomes are
  /// counted in per-unit slots and summed in unit order.
  /// Results are bit-identical to a solo cold load() + analyzeParallel()
  /// at any thread count — sharing changes where answers come from, never
  /// what they are.
  static std::unique_ptr<Session> attach(std::string_view source,
                                         const SharedWarmState& shared,
                                         DiagnosticEngine& diags,
                                         int nThreads = 0);

  /// Write the persistent program database. Five record types: one
  /// summary per non-recursive procedure, one graph slice per procedure
  /// with a settled materialized workspace, the memo snapshot (with
  /// incremental updates on), the dependence-mark table (when any mark
  /// exists) and the last emission's per-loop evidence (when emitOpenMP
  /// ran). The per-procedure records are rendered by tasks on a private
  /// pool and written in unit order, so the file is byte-identical at any
  /// pool width. Atomic (temp file + rename); false on I/O failure.
  bool savePdb(const std::string& path);

  [[nodiscard]] const PdbStats& pdbStats() const { return pdbStats_; }

  [[nodiscard]] fortran::Program& program() { return *program_; }
  [[nodiscard]] const DiagnosticEngine& diagnostics() const { return diags_; }

  // ---------------------------------------------------------------------
  // Book navigation (progressive disclosure)
  // ---------------------------------------------------------------------

  [[nodiscard]] std::vector<std::string> procedureNames() const;
  bool selectProcedure(const std::string& name);
  [[nodiscard]] const std::string& currentProcedure() const {
    return current_;
  }

  struct LoopRow {
    fortran::StmtId id = fortran::kInvalidStmt;
    std::string headline;
    int level = 1;
    bool parallelizable = false;
    bool parallel = false;  // currently marked PARALLEL DO
    int pendingDeps = 0;
  };
  /// The loops of the current procedure, pre-order (the source pane's '*'
  /// markers).
  [[nodiscard]] std::vector<LoopRow> loops();

  bool selectLoop(fortran::StmtId loop);
  [[nodiscard]] fortran::StmtId currentLoop() const { return currentLoop_; }

  // ---------------------------------------------------------------------
  // Panes
  // ---------------------------------------------------------------------

  struct SourceRow {
    int ordinal = 0;
    fortran::StmtId stmt = fortran::kInvalidStmt;
    std::string text;
    bool loopStart = false;
    int depth = 0;
    bool inCurrentLoop = false;
  };
  [[nodiscard]] std::vector<SourceRow> sourcePane();

  struct DependenceRow {
    std::uint32_t id = 0;
    std::string type;
    std::string source;
    std::string sink;
    std::string vector;
    int level = 0;
    std::string block;   // COMMON block of the variable, if any
    std::string mark;
    std::string reason;
  };
  [[nodiscard]] std::vector<DependenceRow> dependencePane();

  struct VariableRow {
    std::string name;
    int dim = 0;
    std::string block;
    std::string defs;  // line numbers of defs outside the loop
    std::string uses;  // line numbers of uses outside the loop
    std::string kind;  // shared / private / private(last)
    std::string reason;
  };
  [[nodiscard]] std::vector<VariableRow> variablePane();

  // ---------------------------------------------------------------------
  // View filtering
  // ---------------------------------------------------------------------

  struct DependenceFilter {
    std::optional<dep::DepType> type;
    std::string variable;               // empty = any
    std::optional<dep::DepMark> mark;
    std::optional<bool> carriedOnly;
  };
  void setDependenceFilter(DependenceFilter f);
  void clearDependenceFilter();

  struct SourceFilter {
    std::string contains;        // substring of the pretty-printed text
    bool loopHeadersOnly = false;
    int withLabel = 0;           // non-zero: only statements with this label
  };
  void setSourceFilter(SourceFilter f);
  void clearSourceFilter();

  struct VariableFilter {
    std::string kind;      // "shared"/"private"/"" = any
    bool arraysOnly = false;
  };
  void setVariableFilter(VariableFilter f);
  void clearVariableFilter();

  // ---------------------------------------------------------------------
  // Dependence marking (and the Mark Dependences power-steering dialog)
  // ---------------------------------------------------------------------

  /// `origin` records WHO made the mark ("user", a tool name, or
  /// "validator" for auto-restores) — provenance that mismatch reports
  /// name when a deletion turns out unsound.
  bool markDependence(std::uint32_t id, dep::DepMark mark,
                      const std::string& reason,
                      const std::string& origin = "user");
  /// Classify every dependence matching the filter in one step; returns the
  /// number marked.
  int markAllMatching(const DependenceFilter& f, dep::DepMark mark,
                      const std::string& reason,
                      const std::string& origin = "user");

  // ---------------------------------------------------------------------
  // Variable classification (and Classify Variables dialog)
  // ---------------------------------------------------------------------

  bool classifyVariable(const std::string& name, bool asPrivate,
                        const std::string& reason);

  // ---------------------------------------------------------------------
  // Assertions
  // ---------------------------------------------------------------------

  bool addAssertion(const std::string& payload);
  [[nodiscard]] const std::vector<Assertion>& assertions() const {
    return assertions_;
  }

  // ---------------------------------------------------------------------
  // Access to analysis (§3.2) and guidance (§5.3)
  // ---------------------------------------------------------------------

  /// Human-readable impediment report for a loop: which dependences block
  /// parallelization and why, plus what additional analysis would help
  /// (array kills, reductions, index arrays — the Table 3 "needed" rows).
  [[nodiscard]] std::string explainLoop(fortran::StmtId loop);

  /// The interprocedural summary of a procedure (MOD/REF/KILL/sections).
  [[nodiscard]] std::string showSummary(const std::string& procName);

  struct GuidanceEntry {
    std::string transformation;
    transform::Target target;
    transform::Advice advice;
  };
  /// Evaluate the whole catalog against a loop; with `safeOnly` the menu
  /// shows "only those which are safe and profitable for the currently
  /// selected loop" — the §5.3 request. The A5 ablation compares menu
  /// sizes.
  [[nodiscard]] std::vector<GuidanceEntry> guidance(fortran::StmtId loop,
                                                    bool safeOnly);

  bool applyTransformation(const std::string& name,
                           const transform::Target& target,
                           std::string* error);

  // ---------------------------------------------------------------------
  // Editing (the source pane "allows arbitrary editing of the program
  // using mixed text and structure editing techniques"; edits trigger
  // incremental re-parse + reanalysis of the enclosing procedure)
  // ---------------------------------------------------------------------

  /// Replace one simple statement with new Fortran text (parsed in the
  /// current procedure's declaration context). Returns false with a
  /// diagnostic recorded when the text does not parse.
  bool editStatement(fortran::StmtId id, const std::string& newText);
  /// Insert a new statement (parsed from text) after the given statement.
  bool insertStatementAfter(fortran::StmtId id, const std::string& text);
  /// Delete a statement outright (the unchecked editor operation; the
  /// checked one is the "Statement Deletion" transformation).
  bool deleteStatement(fortran::StmtId id);

  // ---------------------------------------------------------------------
  // Performance estimation & dynamic profile
  // ---------------------------------------------------------------------

  /// Static estimates for every loop in the program, hottest first.
  [[nodiscard]] std::vector<LoopEstimate> hotLoops();
  /// Execute the program with the interpreter, yielding the profile the
  /// workshop users got from gprof.
  [[nodiscard]] interp::RunResult profile(const interp::RunOptions& opts = {});

  // ---------------------------------------------------------------------
  // Dynamic dependence validation (trace-backed deletion checking)
  // ---------------------------------------------------------------------

  struct ValidationOptions {
    validate::ValidationBudget budget;
    /// Base interpreter options for the traced serial run and the relative
    /// executions: input values and the step limit of each run.
    interp::RunOptions run{.maxSteps = 20'000'000};
    /// Also relative-execute loops whose deletions make them parallel.
    bool relativeChecks = true;
    /// Pool the relative-execution runs fan out on; null = a private pool
    /// of hardware_concurrency workers. The report is the same at any
    /// pool width.
    support::TaskPool* pool = nullptr;
  };

  /// Replay the program serially under the trace recorder and check every
  /// Rejected (user-deleted) and Pending dependence edge against the
  /// observed memory accesses. A deletion refuted by a trace witness is
  /// UNSOUND: the edge is auto-restored to Pending, the restore is recorded
  /// as a FailureReport naming the deletion's provenance (origin, deck,
  /// statements), and the witness is attached as evidence. Deletions with a
  /// complete trace and no witness are tagged confirmed-safe (evidence
  /// persists through savePdb/openWarm). Edges the pass cannot check —
  /// budget overflow, unsupported shape, failed run — degrade to an
  /// explicit `unvalidated` tag surfaced via degradationReport(), never a
  /// silent pass. Never throws; a crashing program yields ran=false with
  /// the faulting statement id.
  validate::ValidationReport validateDeletions(const ValidationOptions& opts);
  validate::ValidationReport validateDeletions() {
    return validateDeletions(ValidationOptions());
  }

  /// Deck name used for mark provenance and reports (set by loaders).
  void setDeckName(std::string name) { deckName_ = std::move(name); }

  // ---------------------------------------------------------------------
  // OpenMP emission (validated parallel output)
  // ---------------------------------------------------------------------

  /// Emit an OpenMP-annotated deck from the current PARALLEL markings.
  /// Every marked loop either emits a "!$OMP PARALLEL DO" directive with
  /// clauses derived from the dependence graph, privatization analysis and
  /// user classifications, or is refused with a FailureReport naming the
  /// blocking dependence edges — never silently dropped. Emitted loops are
  /// relative-executed under shuffled schedules with the directive's
  /// data-sharing clauses applied (a divergence demotes the loop to
  /// refused), and the emitted deck is round-tripped: re-lexed to the
  /// exact directives written, and re-analyzed at the requested thread
  /// counts to a dependence graph byte-identical to the directive-stripped
  /// source. Settles deferred edits first.
  emit::EmissionReport emitOpenMP(const emit::EmitOptions& opts);
  emit::EmissionReport emitOpenMP() {
    return emitOpenMP(emit::EmitOptions());
  }

  /// Result of the most recent emitOpenMP() pass (restored from the PDB on
  /// warm open when the program, marks and overrides still match).
  [[nodiscard]] const emit::EmissionReport& lastEmission() const {
    return lastEmission_;
  }

  /// Deterministic serialization of every procedure's dependence graph
  /// (edge fields, marks, degradation flags) — the byte-comparison
  /// substrate for emission round-trip checks. Settles deferred edits.
  [[nodiscard]] std::string dependenceSnapshot();

  // ---------------------------------------------------------------------
  // Interface checking (the Composition Editor)
  // ---------------------------------------------------------------------

  [[nodiscard]] std::vector<std::string> checkInterfaces();

  // ---------------------------------------------------------------------
  // Internals exposed for benches/tests
  // ---------------------------------------------------------------------

  [[nodiscard]] transform::Workspace& workspace();
  [[nodiscard]] const UsageCounters& usage() const { return counters_; }
  [[nodiscard]] const interproc::SummaryBuilder& summaries() const {
    return *summaries_;
  }
  /// Rebuild summaries + all workspaces from scratch (the non-incremental A2
  /// baseline), sequentially on the calling thread; incremental updates
  /// only touch the edited procedure. The rebuild starts on a fresh
  /// private dependence-test memo, so it reuses no earlier answer: the
  /// memo-free reference the edit storms compare against. A server-
  /// attached session keeps that private memo afterwards. Same scheduler
  /// as analyzeParallel(), with no pool: the nodes run in insertion order,
  /// so the TestStats phase timers nest.
  void fullReanalysis();

  /// Whole-program analysis as a task DAG on a thread pool. Every analysis
  /// in a session — lazy first access, settles, rebuilds, this call — runs
  /// through one scheduler: given procedures in unit order, it adds the
  /// summary builder's phase when the summaries are not computed yet
  /// (SummaryBuilder::schedule: summary tasks sequenced callee-before-caller
  /// by the call graph, recursive procedures as independent worst-case
  /// tasks, then the COMMON census), and one task per procedure (CFG,
  /// dominators, dataflow, dependence testing, with per-nest dependence
  /// batteries fanned out as subtasks) gated only on its own callees'
  /// summaries — plus the census when the procedure declares COMMON — so
  /// analysis of one call-graph region starts while unrelated regions
  /// still summarize.
  ///
  /// Interaction with setIncrementalUpdates: when incremental updates are
  /// on and deferred edits left a dirty set pending, only the dirty
  /// materialized procedures are scheduled, and the warm dependence-test
  /// memo answers every test whose inputs the edits left unchanged (the
  /// summaries were already updated in place at edit time).
  /// Otherwise every procedure is rebuilt against fresh summaries, exactly
  /// like fullReanalysis().
  ///
  /// Per-task TestStats merge into the session counters in fixed unit
  /// order. Semantics match fullReanalysis() (full path) or settleEdits()
  /// (incremental path); nThreads == 1 (a poolless FIFO) is bit-identical
  /// to both — graphs, edge ids and stats. nThreads == 0 uses
  /// hardware_concurrency().
  ParallelReport analyzeParallel(int nThreads = 0);
  /// Same, scheduling onto a caller-owned pool (the eight-deck batch driver
  /// runs several sessions' analyses concurrently on one pool).
  ParallelReport analyzeOn(support::TaskPool& pool);

  // ---------------------------------------------------------------------
  // Deferred re-analysis (dirty-set accumulation across edits)
  // ---------------------------------------------------------------------

  /// With deferred analysis on, source edits still re-parse, update the
  /// interprocedural summaries in place and refresh the edited procedure's
  /// statement model (so panes and audits stay live), but the dependence
  /// re-analysis is postponed: invalidated procedures accumulate in a dirty
  /// set until settleEdits() or an analyzeParallel()/analyzeOn() run —
  /// which, with incremental updates on, schedules exactly the dirty set.
  /// Turning deferral off settles any pending edits immediately.
  void setDeferredAnalysis(bool on);
  /// Settle all pending deferred edits on the calling thread: the scheduler
  /// re-analyzes each dirty materialized workspace, in unit order, with a
  /// fresh context (current inherited facts). The same run as the
  /// incremental analyzeParallel(), without a pool.
  void settleEdits();
  /// Procedures whose dependence analysis is invalidated by edits not yet
  /// settled (deferred mode only; empty otherwise).
  [[nodiscard]] const std::set<std::string>& dirtyProcedures() const {
    return pendingDirty_;
  }

  /// Toggle the incremental machinery: the session-shared dependence-test
  /// memo, which answers every test whose inputs an edit left unchanged.
  /// Off = the A2 rebuild-all baseline (every edit re-runs every test). The
  /// parallel path respects this flag too: with it off, analyzeParallel/
  /// analyzeOn always take the full-rebuild route (no memo) even when
  /// deferred edits left a dirty set pending.
  void setIncrementalUpdates(bool on);

  /// Cumulative dependence-analysis counters across every (re)build this
  /// session performed: per-tier test counts, memo hits/misses, pairs
  /// tested, and per-phase wall time.
  [[nodiscard]] const dep::TestStats& analysisStats() const {
    return stats_;
  }
  void resetAnalysisStats() { stats_ = {}; }

  // ---------------------------------------------------------------------
  // Robustness: transactions, invariant auditing, bounded analysis
  // ---------------------------------------------------------------------

  /// Run the invariant auditor immediately over the program and every
  /// materialized workspace (model + graph): structural invariants (id
  /// uniqueness, loop-tree/AST agreement, dependence edges referencing live
  /// statements). `deep` adds the pretty-print -> re-parse round trip. Every
  /// transformation and edit already runs the cheap audit and rolls back on
  /// a violation; a deep audit runs only on demand.
  [[nodiscard]] audit::Report auditNow(bool deep);

  /// Failed or rolled-back operations, oldest first.
  [[nodiscard]] const std::vector<FailureReport>& failures() const {
    return failures_;
  }
  void clearFailures() { failures_.clear(); }

  /// Arm a one-shot injected fault (tests only).
  void injectFaultOnce(Fault f) { fault_ = f; }

  /// Set the analysis work limits and rebuild every materialized workspace
  /// under them (memoized results cannot leak across budgets — the budget is
  /// part of the memo key — but the graphs must be re-derived). Pending
  /// deferred edits are settled by the same rebuild.
  void setAnalysisBudget(const dep::AnalysisBudget& b);
  [[nodiscard]] const dep::AnalysisBudget& analysisBudget() const {
    return budget_;
  }

  /// Everywhere the bounded analyses gave up: degraded edges per procedure
  /// plus session-wide exhaustion counters.
  [[nodiscard]] DegradationReport degradationReport() const;

 private:
  Session() = default;
  /// The open step load() and attach() share: parse `source`, forward its
  /// errors to `diags`, refuse a program with no units, and make the first
  /// unit current.
  static std::unique_ptr<Session> parse(std::string_view source,
                                        DiagnosticEngine& diags);
  /// Apply the assertion directives (CPED$/!PED$) found in the source.
  void replaySourceAssertions();
  /// The workspace of `name`, built or settled first when it is missing or
  /// dirty.
  transform::Workspace& wsFor(const std::string& name);
  /// wsFor without the settle-on-access: edits only need a live statement
  /// model (kept fresh across deferred edits), not a settled graph.
  transform::Workspace& wsForEdit(const std::string& name);

  /// The one analysis scheduler. Analyzes `procs` (unit order, one unit per
  /// name): each task builds the procedure's workspace, or re-analyzes the
  /// existing one under a fresh makeContext. The DAG starts with the
  /// builder's summary phase (SummaryBuilder::schedule, which adds nothing
  /// once the summaries are final), and each procedure's task waits on the
  /// phase nodes the builder names for it. Stats, workspaces and marks
  /// merge in list order on the calling thread, and every analyzed
  /// procedure leaves the dirty set. With no pool the tasks run inline in
  /// insertion order (which is topological) with ctx.pool null — the
  /// sequential reference. An empty list only brings the summaries up to
  /// date.
  ParallelReport analyze(const std::vector<fortran::Procedure*>& procs,
                         support::TaskPool* pool);
  /// The first unit of each name, in unit order, for which `pick` holds.
  [[nodiscard]] std::vector<fortran::Procedure*> unitsWhere(
      const std::function<bool(const std::string&)>& pick) const;
  /// The dirty procedures that have a workspace, in unit order; empties the
  /// dirty set (a dirty name without a workspace holds no stale state — it
  /// builds fresh on first access).
  std::vector<fortran::Procedure*> takeDirty();
  /// Drop every analysis result and start a fresh private memo, then
  /// analyze the whole program against fresh summaries.
  ParallelReport analyzeAll(support::TaskPool* pool);
  /// Re-analyze every materialized workspace under a fresh context, after
  /// an input all of them read changed. Leaves the dirty set empty.
  void rebuildMaterialized();
  /// This procedure's side-effect oracle, created on first request. Only
  /// binds references, so the summaries need not be computed yet; called
  /// on the session thread before any fan-out, so tasks only read.
  const interproc::InterproceduralOracle* oracleFor(
      const fortran::Procedure& proc);

  /// The persistent program database's keys and record codecs
  /// (ped/session_store.h) read the session's state.
  friend class StorePass;

  /// A fresh analysis context for `proc`: the session's facts, overrides,
  /// budget, memo and the builder's inherited facts. Pure, so pool tasks
  /// may call it; the oracle and stats sink are supplied by the caller.
  dep::AnalysisContext makeContext(const fortran::Procedure& proc,
                                   const dep::SideEffectOracle* oracle,
                                   dep::TestStats* sink,
                                   support::TaskPool* pool) const;

  /// What one program change can alter, taken before it: an edit mutates
  /// only its unit, and a transformation only its workspace's unit, to
  /// which it may append units (Loop Extraction and Loop Embedding add
  /// one; neither touches the callee). So a snapshot is an id-preserving
  /// copy of that unit, the id counter and the unit count.
  struct Snapshot {
    fortran::Procedure* unit = nullptr;
    fortran::ProcedurePtr copy;
    fortran::StmtId nextStmtId = 1;
    std::size_t units = 0;
  };
  [[nodiscard]] Snapshot takeSnapshot(fortran::Procedure& unit) const;
  /// Roll back to a snapshot: put the unit's copy back *in place* (its
  /// Procedure object keeps its address; Workspaces hold references to
  /// it), drop the units appended since with their workspaces and oracles,
  /// and restore the id counter. Then the change back updates derived
  /// state like any change of the unit (updateDerived), without an audit.
  void restoreSnapshot(Snapshot&& snap);
  void recordFailure(std::string operation, std::string detail,
                     bool rolledBack);
  /// Fire an armed Fault::CorruptState on `proc` (a duplicate statement id
  /// the post-operation audit must catch).
  void corruptIfArmed(fortran::Procedure& proc);
  /// The one update of derived state after `unit`'s statements changed by
  /// an edit, a transformation or a rollback: update the interprocedural
  /// summaries in place, fold the resulting invalidation set (stale
  /// analyses + materialized workspaces whose inherited facts moved) into
  /// pendingDirty_, then either settle now or, in deferred mode, refresh
  /// the unit's statement model and leave the set pending. `analyzed`: the
  /// transformation gate already re-analyzed the unit's workspace, which
  /// then joins the dirty set only when its inherited facts moved.
  void updateDerived(fortran::Procedure& unit, bool analyzed);
  /// Shared tail of the three edits and every transformation, after
  /// `snap`'s unit changed: updateDerived, an armed CorruptState, then the
  /// cheap audit, which on a violation rolls back to `snap`, records a
  /// FailureReport and returns false (with `error`).
  bool finishChange(const std::string& operation, Snapshot& snap,
                    bool analyzed, std::string* error);

  std::unique_ptr<fortran::Program> program_;
  DiagnosticEngine diags_;
  std::unique_ptr<interproc::SummaryBuilder> summaries_;
  std::map<std::string, std::unique_ptr<interproc::InterproceduralOracle>>
      oracles_;
  std::map<std::string, std::unique_ptr<transform::Workspace>> workspaces_;
  /// User classification overrides per procedure.
  std::map<std::string,
           std::map<fortran::StmtId, std::map<std::string, bool>>>
      overrides_;
  std::map<std::string, std::map<std::string, std::string>>
      classificationReasons_;
  std::vector<Assertion> assertions_;
  /// What names one dependence edge across re-analyses: its type,
  /// variable, endpoints and level, and its two references by their index
  /// among their statement's expressions (ir::exprIndexIn, -1 for none),
  /// which tell apart edges that agree on everything else.
  struct MarkKey {
    dep::DepType type = dep::DepType::True;
    std::string variable;
    fortran::StmtId src = fortran::kInvalidStmt;
    fortran::StmtId dst = fortran::kInvalidStmt;
    int level = 0;
    int srcRef = -1;
    int dstRef = -1;
    [[nodiscard]] auto operator<=>(const MarkKey&) const = default;
  };
  /// Dependence marks survive reanalysis keyed by MarkKey.
  struct MarkRecord {
    dep::DepMark mark = dep::DepMark::Pending;
    std::string reason;
    /// Provenance: who set the mark ("user", tool name, "validator"),
    /// in which deck, and any validation evidence attached since.
    std::string origin = "user";
    std::string deck;
    std::string evidence;
  };
  std::map<MarkKey, MarkRecord> marks_;

  /// Dependence-test memo shared by every workspace (and trial sandbox) of
  /// this session, across procedures and rebuilds — and, when the session
  /// is server-attached, with every other session on the server. Never
  /// invalidated: a changed fact base changes the keys it affects. A full
  /// analysis replaces it with a fresh private one (analyzeAll).
  std::shared_ptr<dep::DepMemo> memo_ = std::make_shared<dep::DepMemo>();
  dep::TestStats stats_;
  bool incrementalUpdates_ = true;

  /// Deferred-edit state: when deferredAnalysis_ is on, edits accumulate
  /// the procedures whose dependence graphs are stale here instead of
  /// settling them inline. Materialized workspaces named in this set have a
  /// live model but a stale graph (audits skip the graph); unmaterialized
  /// names simply rebuild fresh on first access.
  bool deferredAnalysis_ = false;
  std::set<std::string> pendingDirty_;

  Fault fault_ = Fault::None;
  std::vector<FailureReport> failures_;
  dep::AnalysisBudget budget_;

  std::string deckName_;
  emit::EmissionReport lastEmission_;
  /// Rejected edges the last validation pass left unchecked (feeds
  /// DegradationReport::unvalidated).
  std::vector<DegradationReport::Edge> unvalidatedDeletions_;

  std::string current_;
  fortran::StmtId currentLoop_ = fortran::kInvalidStmt;
  std::optional<DependenceFilter> depFilter_;
  std::optional<SourceFilter> srcFilter_;
  std::optional<VariableFilter> varFilter_;
  UsageCounters counters_;
  PdbStats pdbStats_;

  [[nodiscard]] static MarkKey markKey(const dep::Dependence& d,
                                       const ir::ProcedureModel& model);
  void reapplyMarks(transform::Workspace& ws) const;
};

}  // namespace ps::ped

#endif  // PS_PED_SESSION_H
