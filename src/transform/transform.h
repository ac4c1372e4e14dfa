#ifndef PS_TRANSFORM_TRANSFORM_H
#define PS_TRANSFORM_TRANSFORM_H

#include <memory>
#include <string>
#include <vector>

#include "dependence/graph.h"
#include "fortran/ast.h"
#include "ir/model.h"

namespace ps::transform {

/// The power-steering verdict triple (§5.1): "the system advises whether
/// the transformation is applicable (is syntactically correct), safe
/// (preserves the semantics of the program) and profitable (contributes to
/// parallelization)."
struct Advice {
  bool applicable = false;
  bool safe = false;
  bool profitable = false;
  std::string explanation;

  static Advice no(std::string why) {
    return {false, false, false, std::move(why)};
  }
  static Advice unsafe(std::string why) {
    return {true, false, false, std::move(why)};
  }
  static Advice ok(bool profitable, std::string why = {}) {
    return {true, true, profitable, std::move(why)};
  }
};

/// Figure 2's taxonomy.
enum class Category {
  Reordering,
  DependenceBreaking,
  MemoryOptimizing,
  Miscellaneous,
};

const char* categoryName(Category c);

/// What a transformation operates on. Loop transforms name the DO
/// statement; fusion names two; statement transforms name a statement;
/// variable transforms carry a name; parameterized transforms carry a
/// factor / split point.
struct Target {
  fortran::StmtId loop = fortran::kInvalidStmt;
  fortran::StmtId secondLoop = fortran::kInvalidStmt;
  fortran::StmtId stmt = fortran::kInvalidStmt;
  std::string variable;
  long long factor = 2;
  long long splitPoint = 0;
  std::string callee;  // interprocedural transforms
};

/// The per-procedure analysis workspace a transformation runs against.
/// After a successful apply, `reanalyze()` re-derives the model and the
/// dependence graph for this procedure only — PED's incremental update.
struct Workspace {
  Workspace(fortran::Program& program, fortran::Procedure& proc,
            dep::AnalysisContext actx = {});

  /// Adopt analysis results restored from the persistent program database:
  /// no analysis runs. The caller guarantees `model`/`graph` were derived
  /// from this exact procedure under this exact context (the store's
  /// content-hash key enforces it before restore is attempted).
  Workspace(fortran::Program& program, fortran::Procedure& proc,
            dep::AnalysisContext actx,
            std::unique_ptr<ir::ProcedureModel> model,
            std::unique_ptr<dep::DependenceGraph> graph);

  fortran::Program& program;
  fortran::Procedure& proc;
  dep::AnalysisContext actx;
  std::unique_ptr<ir::ProcedureModel> model;
  std::unique_ptr<dep::DependenceGraph> graph;

  void reanalyze();
  [[nodiscard]] ir::Loop* loopOf(fortran::StmtId id) const {
    return model->loopByDoStmt(id);
  }
};

/// Base class for every transformation in the catalog.
class Transformation {
 public:
  virtual ~Transformation() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Category category() const = 0;
  /// Evaluate the power-steering triple without modifying anything.
  [[nodiscard]] virtual Advice advise(Workspace& ws,
                                      const Target& t) const = 0;
  /// Power steering's one gate: refuse with advise's explanation unless
  /// the advice is safe, else run the mechanics, number the statements
  /// they minted (the workspace's unit, then any unit they appended) and
  /// reanalyze the workspace once. Returns false (with `error`) on a
  /// refusal or when the mechanics fail.
  bool apply(Workspace& ws, const Target& t, std::string* error) const;

 protected:
  /// The mechanics alone. Runs only after advise answered safe for this
  /// workspace and target; returns false (with `error`) when it cannot
  /// proceed.
  virtual bool rewrite(Workspace& ws, const Target& t,
                       std::string* error) const = 0;
};

/// The transformation catalog (Figure 2). Lookup is by the display name
/// used throughout the paper ("Loop Distribution", "Scalar Expansion", ...).
class Registry {
 public:
  static const Registry& instance();

  [[nodiscard]] const Transformation* byName(const std::string& name) const;
  [[nodiscard]] std::vector<const Transformation*> all() const;
  [[nodiscard]] std::vector<const Transformation*> inCategory(
      Category c) const;

  /// Render Figure 2's taxonomy listing.
  [[nodiscard]] std::string taxonomy() const;

 private:
  Registry();
  std::vector<std::unique_ptr<Transformation>> transforms_;
};

// -------------------------------------------------------------------------
// Shared helpers for transformation implementations.
// -------------------------------------------------------------------------

/// Replace every occurrence of variable `name` in the statement subtree by a
/// clone of `replacement`.
void substituteVar(fortran::Stmt& stmt, const std::string& name,
                   const fortran::Expr& replacement);

/// Find the statement list containing `id` plus its index; null when absent.
std::vector<fortran::StmtPtr>* containerOf(Workspace& ws, fortran::StmtId id,
                                           std::size_t* index);

/// True when the DO statement's step is absent or the constant 1.
[[nodiscard]] bool unitStep(const fortran::Stmt& loopStmt);

/// Drop a trailing labeled CONTINUE terminator and convert to ENDDO form
/// (needed before restructuring labeled loops).
void normalizeLoopForm(fortran::Stmt& loopStmt);

/// Fortran evaluates an array's bounds at procedure entry, so an array
/// sized from a loop's bounds matches the loop only when those bounds read
/// no variable that a statement of the procedure writes (assignment, DO
/// control, READ or CALL actual), nor a COMMON member that a call may write
/// (an unknown callee, or no oracle at all, counts as a writer). Returns why
/// `loopStmt`'s bounds fail that ("the loop bounds read J, which the
/// procedure writes"), or empty when they are fixed at entry.
[[nodiscard]] std::string boundsChangeAfterEntry(
    Workspace& ws, const fortran::Stmt& loopStmt);

/// A fresh variable name derived from `base` that is unused in the
/// procedure.
std::string freshName(const fortran::Procedure& proc,
                      const std::string& base);

/// A recognized sum reduction in a loop body: exactly one update of the
/// form S = S + term / S = term + S / S = S - term, with the scalar
/// accumulator S appearing nowhere else in the loop. Exposed for clients
/// (the OpenMP emitter) that classify the accumulator as REDUCTION(+:S)
/// instead of restructuring the loop.
struct SumReduction {
  fortran::StmtId update = fortran::kInvalidStmt;
  std::string accumulator;
  bool subtract = false;
};

/// True when `loop` contains a recognizable sum reduction; fills `out`.
/// Read-only: the loop is not modified.
[[nodiscard]] bool findSumReduction(const ir::Loop& loop, SumReduction* out);

/// A scratch clone of the workspace's procedure for trial application:
/// fusion safety, for instance, is decided by fusing in the sandbox and
/// inspecting the resulting dependence graph. The clone keeps every
/// statement's id.
class Trial {
 public:
  explicit Trial(const Workspace& ws);
  [[nodiscard]] Workspace& workspace() { return *ws_; }

 private:
  fortran::Program program_;
  std::unique_ptr<Workspace> ws_;
};

}  // namespace ps::transform

#endif  // PS_TRANSFORM_TRANSFORM_H
