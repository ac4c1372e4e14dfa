#ifndef PS_INTERP_MACHINE_H
#define PS_INTERP_MACHINE_H

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fortran/ast.h"
#include "interp/trace.h"
#include "interp/value.h"

namespace ps::interp {

/// A data race observed while executing a PARALLEL DO loop: two different
/// iterations touched the same storage cell and at least one access was a
/// write that conflicts (flow/anti: one iteration's exposed read against
/// another's write; output: two writes).
struct Race {
  fortran::StmtId loop = fortran::kInvalidStmt;
  std::string variable;
  long long iterationA = 0;
  long long iterationB = 0;
  bool outputOnly = false;  // write-write only (no exposed read involved)
};

/// Result of executing a program.
struct RunResult {
  bool ok = false;
  std::string error;
  ps::SourceLoc errorLoc;
  /// Statement executing when the error fired (kInvalidStmt when the
  /// failure preceded any statement). Lets runtime diagnostics — step
  /// limits, out-of-bounds subscripts, division by zero — name the source
  /// line in trace and validation reports.
  fortran::StmtId errorStmt = fortran::kInvalidStmt;
  /// The STOP statement that ended the run, when one did.
  fortran::StmtId stopStmt = fortran::kInvalidStmt;
  /// Values printed by WRITE/PRINT statements, in order.
  std::vector<double> output;
  /// Total statements executed.
  long long steps = 0;
  /// Execution count per statement id — the "program execution profile"
  /// workshop users relied on to find hot loops.
  std::map<fortran::StmtId, long long> stmtCounts;
  /// Times each DO loop was entered, however many iterations each entry
  /// ran (stmtCounts counts the DO statement once per entry plus once per
  /// iteration advance).
  std::map<fortran::StmtId, long long> loopActivations;
  /// Races detected in PARALLEL DO loops (empty when none or when race
  /// checking is off).
  std::vector<Race> races;

  [[nodiscard]] bool outputEquals(const RunResult& other,
                                  double tol = 1e-9) const;
};

/// OpenMP-style data-sharing clauses for one PARALLEL DO, supplied by an
/// emission client so shuffled-schedule execution models what the emitted
/// directive promises. `privatized` variables (PRIVATE / FIRSTPRIVATE /
/// LASTPRIVATE / REDUCTION) get per-thread copies under the directive, so
/// cross-iteration conflicts on them are resolved by the clause and are
/// not reported as races; the shared-cell values still flow in program
/// order within each (atomically executed) iteration, so a variable that
/// genuinely carries a value between iterations still diverges the output
/// diff. `lastPrivate` variables additionally receive the value from the
/// sequentially-last iteration after the loop, whatever order the shuffle
/// executed iterations in — exactly OpenMP LASTPRIVATE copy-out.
struct LoopClauses {
  std::set<std::string> privatized;
  std::set<std::string> lastPrivate;
};

/// Options controlling one execution.
struct RunOptions {
  /// Values served to READ statements, in order (recycled when exhausted).
  std::vector<double> input;
  /// Abort after this many executed statements (runaway guard).
  long long maxSteps = 100'000'000;
  /// Execute PARALLEL DO loops with a shuffled iteration order and the
  /// cross-iteration conflict detector armed.
  bool checkParallel = true;
  /// When set, this DO loop alone runs as a PARALLEL DO under
  /// checkParallel, whatever the program's markings say; every other loop
  /// runs sequentially (relative execution of one loop). The program is
  /// never modified, so concurrent runs may share it.
  fortran::StmtId shuffledLoop = fortran::kInvalidStmt;
  /// Deterministic seed for the iteration shuffle.
  unsigned shuffleSeed = 12345;
  /// When set, every named read/write is recorded here with its statement
  /// and iteration context (dynamic dependence validation). The caller
  /// owns the trace and its limits; recording degrades per TraceLimits.
  Trace* trace = nullptr;
  /// Data-sharing clauses per PARALLEL DO statement id. Loops without an
  /// entry keep the default conservative semantics (only the induction
  /// variable is implicitly private).
  std::map<fortran::StmtId, LoopClauses> parallelClauses;
};

/// An interpreter for the supported Fortran dialect: the execution
/// substrate that stands in for the paper's Cray/Sun runs. It validates
/// transformation safety (original vs transformed must agree) and provides
/// the execution profiles PED's work model starts from. Each run first
/// lowers every unit to flat ops whose variable references are frame slots,
/// so execution never looks a variable up by name.
class Machine {
 public:
  explicit Machine(const fortran::Program& program);

  /// Execute the main program unit. Only reads the program: runs on one
  /// program may proceed concurrently from different threads.
  [[nodiscard]] RunResult run(const RunOptions& opts = {});

 private:
  struct Impl;
  const fortran::Program& program_;
};

}  // namespace ps::interp

#endif  // PS_INTERP_MACHINE_H
