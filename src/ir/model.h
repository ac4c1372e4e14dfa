#ifndef PS_IR_MODEL_H
#define PS_IR_MODEL_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fortran/ast.h"

namespace ps::ir {

/// One loop in a procedure's loop tree.
struct Loop {
  fortran::Stmt* stmt = nullptr;  // the DO statement
  Loop* parent = nullptr;
  std::vector<Loop*> children;
  int level = 1;  // nesting depth, 1 = outermost

  /// Every statement lexically inside the loop body, including statements of
  /// nested loops, in program order. Excludes the DO statement itself.
  std::vector<fortran::Stmt*> bodyStmts;

  [[nodiscard]] const std::string& inductionVar() const {
    return stmt->doVar;
  }
  /// True if `id` is the DO statement or any statement in the body.
  [[nodiscard]] bool contains(fortran::StmtId id) const;
  /// The chain of loops from the outermost ancestor down to this loop.
  [[nodiscard]] std::vector<const Loop*> nestPath() const;
};

/// A navigable model of one procedure: loop tree, statement index, parent
/// links and label map. The model holds raw pointers into the procedure's
/// AST; rebuild it after any structural edit (PED re-analyzes the enclosing
/// procedure after each edit, so models are short-lived by design).
///
/// The statements are one table in pre-order: allStmts()[i] and rows()[i]
/// describe the same statement. An id or a label is found by a binary
/// search in a sorted (key, position) index, then read from its row. Ids
/// and labels are the ones the statements carried when the model was
/// built. When two statements share an id or a label, a lookup answers for
/// the last of them in pre-order (parentStmt: the last that has a parent),
/// except loopByDoStmt, which answers for the first DO.
class ProcedureModel {
 public:
  /// One statement's place in the procedure.
  struct Row {
    fortran::Stmt* parent = nullptr;  // the DO or IF whose body holds it
    Loop* enclosing = nullptr;        // the innermost loop around it
    Loop* heads = nullptr;            // the loop a DO heads, else null
    /// The sibling list that holds it (the procedure body, a DO body or an
    /// IF arm) and its index there.
    std::vector<fortran::StmtPtr>* container = nullptr;
    std::size_t index = 0;
  };

  explicit ProcedureModel(fortran::Procedure& proc);

  [[nodiscard]] fortran::Procedure& procedure() const { return proc_; }

  /// All loops, in program (pre-)order.
  [[nodiscard]] const std::vector<std::unique_ptr<Loop>>& loops() const {
    return loops_;
  }
  [[nodiscard]] std::vector<Loop*> topLevelLoops() const;

  /// The loop whose DO statement has this id, or null.
  [[nodiscard]] Loop* loopByDoStmt(fortran::StmtId id) const;
  /// The innermost loop containing this statement (the statement may be a DO
  /// statement, in which case the *enclosing* loop is returned), or null.
  [[nodiscard]] Loop* enclosingLoop(fortran::StmtId id) const;

  [[nodiscard]] fortran::Stmt* stmt(fortran::StmtId id) const;
  [[nodiscard]] fortran::Stmt* parentStmt(fortran::StmtId id) const;
  [[nodiscard]] fortran::Stmt* labelTarget(int label) const;

  /// The list of sibling statements that contains `id` (the procedure body,
  /// a DO body, or an IF arm), plus the index within it. Returns nullptr if
  /// the id is unknown.
  std::vector<fortran::StmtPtr>* containerOf(fortran::StmtId id,
                                             std::size_t* indexOut) const;

  /// All statements in the procedure, pre-order.
  [[nodiscard]] const std::vector<fortran::Stmt*>& allStmts() const {
    return allStmts_;
  }
  /// One row per statement, in the order of allStmts().
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

  /// Count of executable statements (used for Table 1's "lines" flavor of
  /// accounting in tests).
  [[nodiscard]] std::size_t stmtCount() const { return allStmts_.size(); }

 private:
  /// Sorted (key, pre-order position) pairs; equal keys in pre-order.
  template <class Key>
  using KeyIndex = std::vector<std::pair<Key, std::uint32_t>>;

  void index(std::vector<fortran::StmtPtr>& stmts, fortran::Stmt* parent,
             Loop* loop);

  fortran::Procedure& proc_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<fortran::Stmt*> allStmts_;
  std::vector<Row> rows_;
  KeyIndex<fortran::StmtId> ids_;
  KeyIndex<int> labelIndex_;
};

}  // namespace ps::ir

#endif  // PS_IR_MODEL_H
