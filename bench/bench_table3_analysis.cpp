// Table 3: Analysis Used or Needed During Workshop. For every program we
// measure, from the implementation itself:
//   dependence  U  — the system finds parallel loops automatically
//   scalar kills U — privatization analysis changed which loops are parallel
//   sections    U  — interprocedural section analysis changed the outcome
//   array kills N  — array kill analysis finds privatizable arrays that the
//                    plain dependence graph still serializes on
//   reductions  N  — unrecognized sum reductions inhibit parallel loops
//   index arrays N — pending dependences involve index-array subscripts
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "fortran/parser.h"
#include "dataflow/linear.h"
#include "interproc/array_kill.h"
#include "ir/refs.h"
#include "transform/transform.h"
#include "interproc/summaries.h"
#include "ped/assertions.h"

namespace {

struct Row {
  bool dependence = false;
  bool scalarKills = false;
  bool sections = false;
  bool arrayKills = false;
  bool reductions = false;
  bool indexArrays = false;
};

int countParallelLoops(ps::ped::Session& s) {
  int n = 0;
  for (const auto& name : s.procedureNames()) {
    s.selectProcedure(name);
    for (const auto& l : s.loops()) {
      if (l.parallelizable) ++n;
    }
  }
  return n;
}

/// Parallel-loop count over the program under a modified analysis context.
int countWith(const ps::workloads::Workload& w,
              void (*tweak)(ps::dep::AnalysisContext*)) {
  ps::DiagnosticEngine diags;
  auto prog = ps::fortran::parseSource(w.source, diags);
  ps::interproc::SummaryBuilder summaries(*prog);
  // Source-directive assertions apply in every configuration, so the
  // ablation isolates exactly one analysis.
  std::vector<ps::ped::Assertion> assertions;
  for (const auto& unit : prog->units) {
    unit->forEachStmt([&](const ps::fortran::Stmt& st) {
      if (st.kind == ps::fortran::StmtKind::Assertion) {
        auto a = ps::ped::parseAssertion(st.assertionText, diags);
        if (a) assertions.push_back(std::move(*a));
      }
    });
  }
  int n = 0;
  for (auto& unit : prog->units) {
    ps::ir::ProcedureModel model(*unit);
    ps::interproc::InterproceduralOracle oracle(summaries, *unit);
    ps::dep::AnalysisContext ctx;
    ctx.oracle = &oracle;
    ctx.inheritedConstants = summaries.inheritedConstantsFor(*unit);
    ctx.inheritedRelations = summaries.inheritedRelationsFor(*unit);
    ps::ped::applyAssertions(assertions, &ctx);
    tweak(&ctx);
    auto g = ps::dep::DependenceGraph::build(model, ctx);
    for (const auto& loopPtr : model.loops()) {
      if (g.parallelizable(*loopPtr)) ++n;
    }
  }
  return n;
}

Row analyze(const ps::workloads::Workload& w) {
  Row row;
  auto s = ps::bench::loadWorkload(w.name);

  int full = countParallelLoops(*s);
  row.dependence = full > 0;

  int noPriv = countWith(w, [](ps::dep::AnalysisContext* c) {
    c->usePrivatization = false;
  });
  row.scalarKills = noPriv < full;

  int noOracle = countWith(w, [](ps::dep::AnalysisContext* c) {
    c->oracle = nullptr;
  });
  row.sections = noOracle < full;

  // Needed analyses: measured WITHOUT user assertions (the paper's 'N'
  // marks what users had to supply by hand), on otherwise fully-analyzed
  // graphs.
  ps::DiagnosticEngine diags;
  auto prog = ps::fortran::parseSource(w.source, diags);
  ps::interproc::SummaryBuilder summaries(*prog);
  for (auto& unit : prog->units) {
    ps::ir::ProcedureModel model(*unit);
    ps::interproc::InterproceduralOracle oracle(summaries, *unit);
    ps::dep::AnalysisContext ctx;
    ctx.oracle = &oracle;
    ctx.inheritedConstants = summaries.inheritedConstantsFor(*unit);
    ctx.inheritedRelations = summaries.inheritedRelationsFor(*unit);
    ps::transform::Workspace ws(*prog, *unit, ctx);

    auto kills = ps::interproc::findArrayKills(*ws.model, *ws.graph,
                                               &ws.actx);
    if (!kills.empty()) row.arrayKills = true;

    const auto* red =
        ps::transform::Registry::instance().byName("Reduction Recognition");
    for (const auto& loopPtr : ws.model->loops()) {
      if (ws.graph->parallelizable(*loopPtr)) continue;
      ps::transform::Target t;
      t.loop = loopPtr->stmt->id;
      auto a = red->advise(ws, t);
      if (a.applicable && a.safe) row.reductions = true;
      // Index arrays: pending deps whose endpoints or whose loop bounds
      // contain array-valued subscripts.
      bool anyPending = false;
      for (const auto* d : ws.graph->parallelismInhibitors(*loopPtr)) {
        if (d->mark != ps::dep::DepMark::Pending) continue;
        anyPending = true;
        for (const auto* ref : {d->srcRef, d->dstRef}) {
          if (!ref) continue;
          for (const auto& sub : ref->args) {
            ps::dataflow::LinearExpr f = ps::dataflow::linearize(*sub);
            if (f.hasIndexArray) row.indexArrays = true;
            // An index array may hide behind a scalar copy (dpmin's
            // I3 = IT(N)): look through in-loop definitions of the
            // subscript's variables.
            sub->forEach([&](const ps::fortran::Expr& e) {
              if (e.kind != ps::fortran::ExprKind::VarRef) return;
              for (const ps::fortran::Stmt* bs : loopPtr->bodyStmts) {
                if (bs->kind != ps::fortran::StmtKind::Assign) continue;
                if (bs->lhs->kind != ps::fortran::ExprKind::VarRef ||
                    bs->lhs->name != e.name) {
                  continue;
                }
                ps::dataflow::LinearExpr rf =
                    ps::dataflow::linearize(*bs->rhs);
                if (rf.hasIndexArray) row.indexArrays = true;
              }
            });
          }
        }
      }
      if (anyPending) {
        ps::dataflow::LinearExpr lo =
            ps::dataflow::linearize(*loopPtr->stmt->doLo);
        ps::dataflow::LinearExpr hi =
            ps::dataflow::linearize(*loopPtr->stmt->doHi);
        if (lo.hasIndexArray || hi.hasIndexArray) row.indexArrays = true;
      }
    }
  }
  return row;
}

}  // namespace

int main() {
  std::printf("Table 3: Analysis Used or Needed (measured)\n");
  std::printf("U: existing analysis changed the outcome.  N: additional "
              "analysis/assertions would expose more parallelism.\n\n");
  std::printf("%-14s", "");
  for (const auto& w : ps::workloads::all()) {
    std::printf(" %-9s", w.name.c_str());
  }
  std::printf("\n%s\n", std::string(95, '-').c_str());

  std::vector<std::pair<std::string, std::vector<std::string>>> table;
  const char* rowNames[] = {"dependence", "scalar kills", "sections",
                            "array kills", "reductions", "index arrays"};
  std::vector<std::vector<std::string>> cells(
      6, std::vector<std::string>());
  for (const auto& w : ps::workloads::all()) {
    Row r = analyze(w);
    cells[0].push_back(r.dependence ? "U" : "");
    cells[1].push_back(r.scalarKills ? "U" : "");
    cells[2].push_back(r.sections ? "U" : "");
    cells[3].push_back(r.arrayKills ? "N" : "");
    cells[4].push_back(r.reductions ? "N" : "");
    cells[5].push_back(r.indexArrays ? "N" : "");
  }
  for (int i = 0; i < 6; ++i) {
    std::printf("%-14s", rowNames[i]);
    for (const auto& c : cells[i]) std::printf(" %-9s", c.c_str());
    std::printf("\n");
  }
  std::printf("\nPaper's shape: dependence U everywhere; scalar kills in "
              "nearly all; sections in most;\narray kills needed in ~7, "
              "reductions in ~5, index arrays in ~3 programs.\n");
  return 0;
}
