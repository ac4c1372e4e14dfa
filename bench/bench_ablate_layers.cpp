// Ablation A3: how each analysis layer earns its keep. Parallelizable-loop
// counts and pending-dependence totals as layers stack up:
//   L0  dependence tests only (no symbolics, no privatization, no interproc)
//   L1  + constants & symbolic relations
//   L2  + scalar privatization (kill analysis)
//   L3  + interprocedural MOD/REF/KILL/sections
//   L4  + user assertions (source directives)
// This regenerates, quantitatively, the story of the paper's Table 3.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "fortran/parser.h"
#include "ped/assertions.h"

namespace {

struct Counts {
  int parallel = 0;
  int pending = 0;
};

Counts measure(const ps::workloads::Workload& w, int layer) {
  ps::DiagnosticEngine diags;
  auto prog = ps::fortran::parseSource(w.source, diags);
  ps::interproc::SummaryBuilder summaries(*prog);

  // Assertions from source directives (layer 4 only).
  std::vector<ps::ped::Assertion> assertions;
  if (layer >= 4) {
    for (const auto& unit : prog->units) {
      unit->forEachStmt([&](const ps::fortran::Stmt& s) {
        if (s.kind == ps::fortran::StmtKind::Assertion) {
          auto a = ps::ped::parseAssertion(s.assertionText, diags);
          if (a) assertions.push_back(std::move(*a));
        }
      });
    }
  }

  Counts out;
  for (auto& unit : prog->units) {
    ps::ir::ProcedureModel model(*unit);
    ps::interproc::InterproceduralOracle oracle(summaries, *unit);
    ps::dep::AnalysisContext ctx;
    ctx.useSymbolicInfo = layer >= 1;
    ctx.usePrivatization = layer >= 2;
    ctx.oracle = layer >= 3 ? &oracle : nullptr;
    if (layer >= 3) {
      ctx.inheritedConstants = summaries.inheritedConstantsFor(*unit);
      ctx.inheritedRelations = summaries.inheritedRelationsFor(*unit);
    }
    if (layer >= 4) ps::ped::applyAssertions(assertions, &ctx);
    auto g = ps::dep::DependenceGraph::build(model, ctx);
    for (const auto& loopPtr : model.loops()) {
      if (g.parallelizable(*loopPtr)) ++out.parallel;
    }
    out.pending += g.summary().pendingDeps;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("Ablation A3: analysis layers vs parallel loops found / "
              "pending dependences remaining\n\n");
  const char* layers[] = {
      "L0 dependence tests only", "L1 + symbolics/constants",
      "L2 + scalar privatization", "L3 + interprocedural",
      "L4 + user assertions"};
  std::printf("%-28s", "");
  for (const auto& w : ps::workloads::all()) {
    std::printf(" %-10s", w.name.c_str());
  }
  std::printf("\n%s\n", std::string(116, '-').c_str());
  for (int layer = 0; layer <= 4; ++layer) {
    std::printf("%-28s", layers[layer]);
    for (const auto& w : ps::workloads::all()) {
      Counts c = measure(w, layer);
      char cell[24];
      std::snprintf(cell, sizeof cell, "%d par/%d pd", c.parallel,
                    c.pending);
      std::printf(" %-10s", cell);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: parallel-loop counts rise (and pending "
              "counts fall) monotonically as layers\nstack; assertions "
              "close the final gaps in pueblo3d and dpmin.\n");
  return 0;
}
