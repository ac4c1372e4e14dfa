#include "ped/perfest.h"

#include <algorithm>

#include "cfg/flow_graph.h"
#include "fortran/pretty.h"
#include "ir/refs.h"

namespace ps::ped {

using fortran::Expr;
using fortran::ExprKind;
using fortran::Stmt;
using fortran::StmtKind;

PerformanceEstimator::PerformanceEstimator(
    ir::ProcedureModel& model, const EstimatorOptions& opts,
    const std::map<std::string, double>* procedureCosts)
    : model_(model), opts_(opts), procCosts_(procedureCosts) {
  const cfg::FlowGraph fg = cfg::FlowGraph::build(model_);
  const dataflow::VarIndex vars = dataflow::VarIndex::build(fg, model_);
  const dataflow::ConstantAnalysis constants =
      dataflow::ConstantAnalysis::build(vars);

  for (const auto& s : model_.procedure().body) {
    total_ += stmtCost(*s, constants);
  }

  for (const auto& loopPtr : model_.loops()) {
    LoopEstimate e;
    e.loop = loopPtr->stmt->id;
    e.procedure = model_.procedure().name;
    e.headline = fortran::stmtHeadline(*loopPtr->stmt);
    e.cost = loopCost_[loopPtr->stmt->id];
    e.trips = tripCount(*loopPtr->stmt, constants);
    e.level = loopPtr->level;
    e.fraction = total_ > 0 ? e.cost / total_ : 0.0;
    loops_.push_back(std::move(e));
  }
  std::sort(loops_.begin(), loops_.end(),
            [](const LoopEstimate& a, const LoopEstimate& b) {
              return a.cost > b.cost;
            });
}

double PerformanceEstimator::exprCost(const Expr& e) const {
  double cost = 0.0;
  e.forEach([&](const Expr& sub) {
    switch (sub.kind) {
      case ExprKind::Binary:
        cost += (sub.binOp == fortran::BinOp::Div ||
                 sub.binOp == fortran::BinOp::Pow)
                    ? 4.0
                    : 1.0;
        break;
      case ExprKind::ArrayRef:
        cost += 1.0;  // address arithmetic + memory reference
        break;
      case ExprKind::FuncCall:
        if (ir::isIntrinsic(sub.name)) {
          cost += 8.0;
        } else if (procCosts_ && procCosts_->count(sub.name)) {
          cost += procCosts_->at(sub.name);
        } else {
          cost += opts_.unknownCallCost;
        }
        break;
      default:
        break;
    }
  });
  return cost;
}

double PerformanceEstimator::tripCount(
    const Stmt& doStmt, const dataflow::ConstantAnalysis& constants) const {
  auto lo = constants.evaluateAt(doStmt.id, *doStmt.doLo);
  auto hi = constants.evaluateAt(doStmt.id, *doStmt.doHi);
  double step = 1.0;
  if (doStmt.doStep) {
    auto st = constants.evaluateAt(doStmt.id, *doStmt.doStep);
    if (st && st->kind == dataflow::ConstVal::Kind::IntConst && st->i != 0) {
      step = static_cast<double>(st->i);
    } else {
      return opts_.defaultTripCount;
    }
  }
  if (lo && hi && lo->kind == dataflow::ConstVal::Kind::IntConst &&
      hi->kind == dataflow::ConstVal::Kind::IntConst) {
    double t = (static_cast<double>(hi->i) - static_cast<double>(lo->i) +
                step) /
               step;
    return t < 0 ? 0 : t;
  }
  return opts_.defaultTripCount;
}

double PerformanceEstimator::stmtCost(
    const Stmt& s, const dataflow::ConstantAnalysis& constants) {
  switch (s.kind) {
    case StmtKind::Do: {
      double body = 2.0;  // loop control overhead per iteration
      for (const auto& b : s.body) body += stmtCost(*b, constants);
      body += exprCost(*s.doLo) + exprCost(*s.doHi);
      double cost = tripCount(s, constants) * body;
      loopCost_[s.id] = cost;
      return cost;
    }
    case StmtKind::If: {
      double cost = 0.0;
      double arms = 0.0;
      for (const auto& arm : s.arms) {
        if (arm.condition) cost += exprCost(*arm.condition);
        double armCost = 0.0;
        for (const auto& b : arm.body) armCost += stmtCost(*b, constants);
        arms = std::max(arms, armCost);
      }
      return cost + arms;  // worst-case arm
    }
    case StmtKind::Assign:
      return 1.0 + exprCost(*s.lhs) + exprCost(*s.rhs);
    case StmtKind::Call: {
      double cost = 2.0;
      for (const auto& a : s.args) cost += exprCost(*a);
      if (procCosts_ && procCosts_->count(s.callee)) {
        cost += procCosts_->at(s.callee);
      } else {
        cost += opts_.unknownCallCost;
      }
      return cost;
    }
    case StmtKind::ArithmeticIf:
      return 1.0 + exprCost(*s.condExpr);
    case StmtKind::Read:
    case StmtKind::Write:
      return 4.0 * static_cast<double>(s.args.size() + 1);
    default:
      return 0.5;
  }
}

double PerformanceEstimator::parallelSpeedup(fortran::StmtId loop) const {
  auto it = loopCost_.find(loop);
  if (it == loopCost_.end() || total_ <= 0) return 1.0;
  double parallelPart = it->second / total_;
  double serialPart = 1.0 - parallelPart;
  return 1.0 / (serialPart + parallelPart / opts_.processors);
}

}  // namespace ps::ped
