#ifndef PS_VALIDATE_VALIDATE_H
#define PS_VALIDATE_VALIDATE_H

// Dynamic dependence validation: trace-backed checking of pending and
// user-deleted dependences.
//
// The paper's central experience report is that PED *trusted* user
// dependence deletions — workshop users routinely deleted dependences
// that were actually carried, silently breaking the loops they then
// parallelized. This module closes that trust gap in two complementary
// ways (following Mora Cordero's dynamic parallelism-identification tools
// and Hood & Jost's relative debugging):
//
//  1. Trace replay. A serial interpreter run records every named memory
//     access with its statement and iteration context (interp/trace.h).
//     TraceIndex searches, for each questioned dependence edge, a
//     *witness pair*: two accesses of the same storage element, of the
//     right kinds for the edge's type, in serial order, and — for a
//     carried edge — in different iterations of the carrier loop (same
//     iteration of every common loop for a loop-independent edge). A
//     witness proves the dependence is real on this input: a user
//     deletion of that edge is unsound and must be restored.
//
//  2. Relative execution. A loop whose deletions claim it parallel is run
//     serially and under several shuffled "parallel" schedules; diffing
//     the observable output (plus the interpreter's cross-iteration race
//     detector) localizes any divergence to the loop and variable that
//     caused it — catching unsound deletions the trace matcher cannot
//     attribute (e.g. interprocedural summary edges).
//
// Soundness direction: a witness refutes a deletion unconditionally. The
// *absence* of a witness confirms a deletion only when the trace is
// complete (no budget overflow) — otherwise the verdict degrades to an
// explicit Unvalidated, never a silent pass.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dependence/dep.h"
#include "fortran/ast.h"
#include "interp/machine.h"
#include "interp/trace.h"

namespace ps::support {
class TaskPool;
}

namespace ps::validate {

/// Shuffled schedules each relative check runs per loop, in validation and
/// in emission alike.
inline constexpr int kRelativeSchedules = 3;

/// Work limits for one validation pass. Exhaustion degrades verdicts to
/// Unvalidated (surfaced via Session::degradationReport), never grows
/// memory unboundedly and never blocks the session.
struct ValidationBudget {
  long long maxEvents = 1'000'000;   // trace event cap
  long long maxElements = 1 << 18;   // distinct storage elements tracked
  int maxRelativeChecks = 8;         // loops relative-executed per pass
};

enum class Verdict {
  RefutedDeletion,  // user-deleted edge with a trace witness: unsound
  ConfirmedSafe,    // user-deleted edge, complete trace, no witness
  WitnessFound,     // pending edge confirmed real on this input
  NoWitness,        // pending edge unobserved on this input
  Unvalidated,      // trace overflowed or edge shape unsupported
};

/// Everything the matcher needs to know about one questioned edge,
/// decoupled from the live graph so validation can run against any
/// procedure's edges uniformly.
struct EdgeQuery {
  std::string procedure;
  std::uint32_t depId = 0;
  dep::DepType type = dep::DepType::True;
  fortran::StmtId srcStmt = fortran::kInvalidStmt;
  fortran::StmtId dstStmt = fortran::kInvalidStmt;
  std::string variable;
  int level = 0;  // 0 = loop-independent
  fortran::StmtId carrierLoop = fortran::kInvalidStmt;
  /// DO statements of every loop enclosing both endpoints, outermost
  /// first (empty for straight-line edges).
  std::vector<fortran::StmtId> commonLoops;
  dep::DepMark mark = dep::DepMark::Pending;
  /// False for edges the trace matcher cannot attribute to two concrete
  /// data accesses: control dependences and interprocedural summary
  /// edges. These always answer Unvalidated from the matcher (the
  /// relative checker may still refute their deletion).
  bool supported = true;
};

/// One validated edge with its verdict and human-readable evidence.
struct Finding {
  EdgeQuery edge;
  Verdict verdict = Verdict::Unvalidated;
  /// For witness verdicts: the element variable and iteration pair that
  /// proves the dependence. For Unvalidated: why.
  std::string evidence;
};

/// Statement-grouped, seq-ordered view of a recorded trace. Witness
/// search is a single linear sweep over the two endpoint statements'
/// events with per-element running state — O(events at endpoints), never
/// quadratic in the trace.
class TraceIndex {
 public:
  explicit TraceIndex(const interp::Trace& trace);

  /// True when the trace exhibits a witness pair for `q`; `evidence`
  /// receives a one-line description of the first witness found.
  [[nodiscard]] bool findWitness(const EdgeQuery& q,
                                 std::string* evidence) const;

  [[nodiscard]] const interp::Trace& trace() const { return *trace_; }

 private:
  const interp::Trace* trace_;
  /// Statement id -> indices into trace->events, ascending (= seq order).
  std::unordered_map<fortran::StmtId, std::vector<std::uint32_t>> byStmt_;
};

/// Outcome of relative execution of one claimed-parallel loop.
struct RelativeResult {
  fortran::StmtId loop = fortran::kInvalidStmt;
  bool ran = false;
  bool diverged = false;
  /// Times the serial baseline entered the loop (0 = the loop was never
  /// reached on this input, so agreement is vacuous — callers that treat
  /// "passed" as evidence should check this).
  long long serialExecutions = 0;
  /// First divergence localized: output position and values, race
  /// variables, or the runtime error the parallel schedule triggered.
  std::string detail;
  /// Variables the race detector implicated on this loop (drives which
  /// deleted edges get restored).
  std::vector<std::string> raceVariables;
};

/// One loop of a relative-execution batch and the options its schedules
/// start from (input, step cap, directive clauses).
struct RelativeJob {
  fortran::StmtId loop = fortran::kInvalidStmt;
  interp::RunOptions base;
};

/// Relative execution of every job of a batch. Each job's loop runs under
/// `schedules` shuffled parallel schedules (every other loop sequential, so
/// divergence localizes to THIS loop, whether or not it is PARALLEL-marked)
/// and each run is diffed against the serial baseline, up to the first
/// diverging schedule. Schedule k uses shuffle seed
/// base.shuffleSeed + 0x9e3779b9 * (k + 1). When schedule 0 agrees and its
/// run proves that any other schedule replays it
/// (interp::RunResult::orderIndependent), the later schedules are not run:
/// they would agree too. The program is only read.
///
/// The runs execute concurrently on `pool` (null = a private pool of
/// hardware_concurrency workers) in two phases: schedule 0 of every job,
/// then schedules 1.. of each job whose schedule 0 agreed without proving
/// them redundant. Results come back in job order and each equals what a
/// batch of that job alone returns: every run is independent with its own
/// seed, and results are assembled per job in schedule order up to the
/// first divergence, so the batch answers the same at any pool width.
[[nodiscard]] std::vector<RelativeResult> relativeCheckAll(
    const fortran::Program& program, const std::vector<RelativeJob>& jobs,
    const interp::RunResult& serial, int schedules, support::TaskPool* pool);

/// Aggregate result of one Session::validateDeletions pass.
struct ValidationReport {
  /// False when the serial trace run itself failed; `error`/`errorStmt`
  /// then carry the interpreter diagnostic and every questioned edge is
  /// Unvalidated.
  bool ran = false;
  std::string error;
  fortran::StmtId errorStmt = fortran::kInvalidStmt;

  long long events = 0;
  bool traceComplete = true;
  long long uninitReads = 0;

  int checked = 0;
  int refuted = 0;        // unsound deletions found (trace or relative)
  int restored = 0;       // edges auto-restored into the graph
  int confirmedSafe = 0;  // deletions with trace evidence of safety
  int witnessedPending = 0;
  int noWitness = 0;
  int unvalidated = 0;

  int relativeChecks = 0;
  int relativeDivergences = 0;

  std::vector<Finding> findings;
  std::vector<RelativeResult> relative;

  double traceSeconds = 0.0;
  double validateSeconds = 0.0;

  [[nodiscard]] std::string str() const;
};

}  // namespace ps::validate

#endif  // PS_VALIDATE_VALIDATE_H
