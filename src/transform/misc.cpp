#include "transform/catalog.h"

namespace ps::transform {

using fortran::Stmt;
using fortran::StmtKind;
using ir::Loop;

namespace {

// ===========================================================================
// Sequential <-> Parallel
// ===========================================================================

class SequentialToParallel : public Transformation {
 public:
  std::string name() const override { return "Sequential to Parallel"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (loop->stmt->isParallel) return Advice::no("loop already parallel");
    auto inhibitors = ws.graph->parallelismInhibitors(*loop);
    if (!inhibitors.empty()) {
      std::string why = "loop-carried dependences remain:";
      for (const auto* d : inhibitors) {
        why += " " + std::string(dep::depTypeName(d->type)) + "(" +
               d->variable + ")";
        if (why.size() > 120) {
          why += " ...";
          break;
        }
      }
      return Advice::unsafe(why);
    }
    return Advice::ok(true, "no active loop-carried dependences");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    ws.loopOf(t.loop)->stmt->isParallel = true;
    return true;
  }
};

class ParallelToSequential : public Transformation {
 public:
  std::string name() const override { return "Parallel to Sequential"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    if (!loop->stmt->isParallel) return Advice::no("loop is sequential");
    return Advice::ok(false, "always safe");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* /*error*/) const override {
    ws.loopOf(t.loop)->stmt->isParallel = false;
    return true;
  }
};

// ===========================================================================
// Loop Bounds Adjusting
// ===========================================================================

class LoopBoundsAdjusting : public Transformation {
 public:
  std::string name() const override { return "Loop Bounds Adjusting"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    Loop* loop = ws.loopOf(t.loop);
    if (!loop) return Advice::no("target is not a loop");
    // Editing bounds changes the iteration space; the system cannot prove
    // it safe — the user asserts it (power steering leaves the user in
    // control).
    return Advice::unsafe(
        "changes the iteration space; requires user confirmation");
  }

  // Never reached: advise never answers safe. Session::editStatement
  // rewrites a DO header without the check.
  bool rewrite(Workspace& /*ws*/, const Target& /*t*/,
               std::string* /*error*/) const override {
    return false;
  }
};

// ===========================================================================
// Statement Addition / Deletion
// ===========================================================================

class StatementDeletion : public Transformation {
 public:
  std::string name() const override { return "Statement Deletion"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    const Stmt* s = ws.model->stmt(t.stmt);
    if (!s) return Advice::no("statement not found");
    // Deletion is safe when nothing depends on the statement's results.
    for (const auto& d : ws.graph->all()) {
      if (!d.active() || d.type == dep::DepType::Input) continue;
      if (d.srcStmt == t.stmt && d.type == dep::DepType::True) {
        return Advice::unsafe("statement's value is used elsewhere");
      }
    }
    return Advice::ok(false, "no flow dependences leave the statement");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* error) const override {
    std::size_t index = 0;
    auto* container = containerOf(ws, t.stmt, &index);
    if (!container) {
      if (error) *error = "statement container not found";
      return false;
    }
    container->erase(container->begin() + static_cast<long>(index));
    return true;
  }
};

class StatementAddition : public Transformation {
 public:
  std::string name() const override { return "Statement Addition"; }
  Category category() const override { return Category::Miscellaneous; }

  Advice advise(Workspace& ws, const Target& t) const override {
    if (!ws.model->stmt(t.stmt)) return Advice::no("anchor not found");
    return Advice::ok(false, "inserts a CONTINUE after the anchor "
                             "(editing hook)");
  }

  bool rewrite(Workspace& ws, const Target& t,
               std::string* error) const override {
    std::size_t index = 0;
    auto* container = containerOf(ws, t.stmt, &index);
    if (!container) {
      if (error) *error = "anchor not found";
      return false;
    }
    auto fresh = fortran::makeStmt(StmtKind::Continue);
    container->insert(container->begin() + static_cast<long>(index + 1),
                      std::move(fresh));
    return true;
  }
};

}  // namespace

void addMiscTransforms(std::vector<std::unique_ptr<Transformation>>& out) {
  out.push_back(std::make_unique<SequentialToParallel>());
  out.push_back(std::make_unique<ParallelToSequential>());
  out.push_back(std::make_unique<LoopBoundsAdjusting>());
  out.push_back(std::make_unique<StatementDeletion>());
  out.push_back(std::make_unique<StatementAddition>());
}

}  // namespace ps::transform
