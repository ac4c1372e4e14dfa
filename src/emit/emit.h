#ifndef PS_EMIT_EMIT_H
#define PS_EMIT_EMIT_H

// OpenMP emission: the output side of the ParaScope loop — the paper's
// sessions end with loops *marked* PARALLEL, and this subsystem turns those
// marks into an OpenMP-annotated Fortran deck a real compiler could take.
//
// Emission is gated, never best-effort:
//  - a PARALLEL-marked loop with surviving loop-carried dependences (other
//    than a recognized sum reduction confined to its accumulator) REFUSES
//    to emit, with a structured report naming the blocking edges;
//  - clause derivation (PRIVATE / FIRSTPRIVATE / LASTPRIVATE / REDUCTION /
//    SHARED, under DEFAULT(NONE)) comes from the same privatization
//    analysis and user classifications the variable pane shows;
//  - each emitted loop is relative-executed (PR 7 machinery): shuffled
//    parallel schedules with the directive's data-sharing clauses applied
//    must match the serial run, or the loop is demoted to refused;
//  - the emitted deck must round-trip: re-lex to the exact directives that
//    were written, and re-analyze — at 1/2/4/8 threads — to a dependence
//    graph byte-identical to the directive-stripped source.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/privatize.h"
#include "fortran/ast.h"
#include "interp/machine.h"
#include "ir/model.h"
#include "validate/validate.h"

namespace ps::dep {
class DependenceGraph;
}

namespace ps::support {
class TaskPool;
}

namespace ps::emit {

enum class ClauseKind {
  Private,
  FirstPrivate,
  LastPrivate,
  Reduction,  // sum reductions only: REDUCTION(+:acc)
  Shared,
};

const char* clauseKindName(ClauseKind k);

struct Clause {
  ClauseKind kind = ClauseKind::Shared;
  std::string variable;
};

/// One dependence edge that blocks emission of a loop.
struct BlockingEdge {
  std::uint32_t depId = 0;
  std::string type;      // dep::depTypeName
  std::string variable;  // empty for control deps
  int level = 0;
  fortran::StmtId srcStmt = fortran::kInvalidStmt;
  fortran::StmtId dstStmt = fortran::kInvalidStmt;
  std::string mark;  // dep::depMarkName

  [[nodiscard]] std::string str() const;
};

/// Emission outcome for one PARALLEL-marked loop: either a directive with
/// derived clauses, or a refusal naming the blocking edges. Never silent.
struct LoopEmission {
  std::string procedure;
  fortran::StmtId loop = fortran::kInvalidStmt;
  std::string headline;

  bool emitted = false;
  /// Directive payload without the "!$OMP " sentinel, e.g.
  /// "PARALLEL DO DEFAULT(NONE) PRIVATE(I) SHARED(A,N)".
  std::string payload;
  std::vector<Clause> clauses;

  /// Why the loop was refused (empty when emitted).
  std::string refusal;
  std::vector<BlockingEdge> blocking;

  /// Relative-execution validation (when it ran for this loop).
  bool relativeChecked = false;
  bool relativeDiverged = false;
  long long serialExecutions = 0;
  std::string evidence;

  /// The clause set mapped onto interpreter semantics for validation.
  interp::LoopClauses interpClauses;
};

struct EmitOptions {
  /// Base interpreter options for the serial baseline and the shuffled
  /// schedules (input values, step cap etc.). parallelClauses is ignored —
  /// emission installs its own derived clause sets.
  interp::RunOptions run{.maxSteps = 20'000'000};
  bool relativeValidation = true;
  bool roundTrip = true;
  std::vector<int> roundTripThreads = {1, 2, 4, 8};
  /// Pool the relative-validation runs fan out on; null = a private pool
  /// of hardware_concurrency workers. The report is the same at any pool
  /// width.
  support::TaskPool* pool = nullptr;
};

/// Result of one emission pass (emitDeck, Session::emitOpenMP).
struct EmissionReport {
  bool ran = false;
  std::string error;
  std::string deck;

  int loopsConsidered = 0;
  int loopsEmitted = 0;
  int loopsRefused = 0;
  std::vector<LoopEmission> loops;

  /// The emitted deck: pretty-printed program (no PARALLEL DO markers, the
  /// directives carry the parallelism) with "!$OMP" lines ahead of each
  /// emitted loop, wrapped at 72 columns.
  std::string deckText;

  bool roundTripChecked = false;
  bool roundTripOk = false;
  std::string roundTripDetail;
  std::vector<int> roundTripThreads;

  /// Clause-kind name -> count across every emitted loop.
  std::map<std::string, int> clauseHistogram;

  double emitSeconds = 0.0;
  double validateSeconds = 0.0;
  double roundTripSeconds = 0.0;

  [[nodiscard]] std::string str() const;
};

/// Everything clause derivation reads for one procedure. The overrides map
/// mirrors the session's user classifications: loop DO-stmt id -> variable
/// -> asPrivate.
struct ProcedureContext {
  const fortran::Procedure* proc = nullptr;
  const ir::ProcedureModel* model = nullptr;
  const dep::DependenceGraph* graph = nullptr;
  const std::map<fortran::StmtId, std::map<std::string, bool>>* overrides =
      nullptr;
};

/// Derive clauses or a refusal for every PARALLEL-marked loop of one
/// procedure, in program order. Pure analysis: nothing is modified.
[[nodiscard]] std::vector<LoopEmission> planProcedure(
    const ProcedureContext& ctx);

/// Render the directive payload ("PARALLEL DO DEFAULT(NONE) ...") from a
/// clause set. Variables are listed sorted within each clause.
[[nodiscard]] std::string renderPayload(const std::vector<Clause>& clauses);

/// The round trip's re-analysis of a deck: the dependence snapshot
/// (Session::dependenceSnapshot) of `text` analyzed at `threads` threads,
/// or nothing when the text does not load.
using Reanalyze = std::function<std::optional<std::string>(
    const std::string& text, int threads)>;

/// One emission pass over `program`, whose procedures `contexts` describe
/// in unit order. Plans every context; runs the serial baseline and
/// relative-validates every eligible loop under shuffled schedules with
/// its directive's data-sharing clauses applied (a divergence, or a failed
/// baseline, demotes the loop to refused); tallies; renders the deck; and,
/// with opts.roundTrip, checks that the deck re-lexes to the emitted
/// payloads, strips to the plain print, and re-analyzes through
/// `reanalyze` to the stripped source's snapshot at every
/// opts.roundTripThreads count. The program is only read, and the
/// report's `deck` name is the caller's to set.
[[nodiscard]] EmissionReport emitDeck(
    const fortran::Program& program,
    const std::vector<ProcedureContext>& contexts, const EmitOptions& opts,
    const Reanalyze& reanalyze);

}  // namespace ps::emit

#endif  // PS_EMIT_EMIT_H
