#include "workloads/workloads.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fortran/pretty.h"
#include "interp/machine.h"
#include "ped/session.h"
#include "support/diagnostics.h"
#include "transform/transform.h"

namespace ps::workloads {
namespace {

class WorkloadSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSuite, ParsesWithoutErrors) {
  const Workload* w = byName(GetParam());
  ASSERT_NE(w, nullptr);
  ps::DiagnosticEngine diags;
  auto session = ped::Session::load(w->source, diags);
  ASSERT_NE(session, nullptr);
  EXPECT_FALSE(diags.hasErrors()) << diags.dump();
}

TEST_P(WorkloadSuite, ExecutesAndProducesOutput) {
  const Workload* w = byName(GetParam());
  ps::DiagnosticEngine diags;
  auto session = ped::Session::load(w->source, diags);
  ASSERT_NE(session, nullptr);
  auto run = session->profile();
  ASSERT_TRUE(run.ok) << w->name << ": " << run.error << " at "
                      << run.errorLoc.str();
  EXPECT_FALSE(run.output.empty());
  for (double v : run.output) {
    EXPECT_TRUE(std::isfinite(v)) << w->name;
  }
}

TEST_P(WorkloadSuite, HasMultipleProceduresAndLoops) {
  const Workload* w = byName(GetParam());
  ps::DiagnosticEngine diags;
  auto session = ped::Session::load(w->source, diags);
  ASSERT_NE(session, nullptr);
  EXPECT_GE(session->procedureNames().size(), 4u) << w->name;
  auto hot = session->hotLoops();
  EXPECT_GE(hot.size(), 4u) << w->name;
}

TEST_P(WorkloadSuite, AnalysisFindsSomeParallelLoop) {
  // "For all of the programs, the system is able to automatically detect
  // many parallel loops" — the Table 3 'dependence' row.
  const Workload* w = byName(GetParam());
  ps::DiagnosticEngine diags;
  auto session = ped::Session::load(w->source, diags);
  ASSERT_NE(session, nullptr);
  int parallel = 0;
  for (const auto& name : session->procedureNames()) {
    session->selectProcedure(name);
    for (const auto& l : session->loops()) {
      if (l.parallelizable) ++parallel;
    }
  }
  EXPECT_GT(parallel, 0) << w->name;
}

TEST_P(WorkloadSuite, InterfacesAreClean) {
  const Workload* w = byName(GetParam());
  ps::DiagnosticEngine diags;
  auto session = ped::Session::load(w->source, diags);
  ASSERT_NE(session, nullptr);
  auto problems = session->checkInterfaces();
  EXPECT_TRUE(problems.empty())
      << w->name << ": " << (problems.empty() ? "" : problems[0]);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadSuite,
    ::testing::Values("spec77", "neoss", "nxsns", "dpmin", "slab2d",
                      "slalom", "pueblo3d", "arc3d"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Workloads, RegistryComplete) {
  EXPECT_EQ(all().size(), 8u);
  EXPECT_EQ(byName("nonesuch"), nullptr);
}

// Spot checks of the signature obstacles.

TEST(Workloads, Spec77GloopParallelViaSections) {
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("spec77")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("GLOOP"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(loops[0].parallelizable)
      << s->explainLoop(loops[0].id);
}

TEST(Workloads, PuebloSweepParallelViaAssertion) {
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("pueblo3d")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("SWEEPX"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(loops[0].parallelizable) << s->explainLoop(loops[0].id);
}

TEST(Workloads, DpminBondedParallelViaAssertions) {
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("dpmin")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("BONDED"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(loops[0].parallelizable) << s->explainLoop(loops[0].id);
}

TEST(Workloads, NxsnsXsectParallelViaInterproceduralKill) {
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("nxsns")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("XSECT"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  EXPECT_TRUE(loops[0].parallelizable) << s->explainLoop(loops[0].id);
}

TEST(Workloads, Slab2dRowSweepNeedsArrayKills) {
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("slab2d")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("STEP"));
  auto loops = s->loops();
  ASSERT_FALSE(loops.empty());
  // The J sweep is serialized by the work arrays...
  EXPECT_FALSE(loops[0].parallelizable);
  // ...and array kill analysis names them as privatizable.
  std::string e = s->explainLoop(loops[0].id);
  EXPECT_NE(e.find("array kill"), std::string::npos) << e;
}

TEST(Workloads, Spec77ScalarExpansionRefusesDoControlVariables) {
  // INITF nests DO 31 I inside DO 30 L. Expanding I at the L loop would
  // rewrite its uses to I$X(L) while DO 31 still assigns I, so I$X would
  // never be written and every FLN(I, L) subscript would read garbage.
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("spec77")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("INITF"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 2u);
  const auto* tr = transform::Registry::instance().byName("Scalar Expansion");
  ASSERT_NE(tr, nullptr);

  transform::Target outer;
  outer.loop = loops[0].id;  // DO 30 L
  outer.variable = "I";
  EXPECT_FALSE(tr->advise(s->workspace(), outer).applicable);
  transform::Target inner;
  inner.loop = loops[1].id;  // DO 31 I, its own control variable
  inner.variable = "I";
  EXPECT_FALSE(tr->advise(s->workspace(), inner).applicable);
  for (const auto& g : s->guidance(outer.loop, /*safeOnly=*/false)) {
    EXPECT_FALSE(g.transformation == "Scalar Expansion" &&
                 g.target.variable == "I");
  }

  const std::string before = fortran::printProgram(s->program());
  std::string error;
  EXPECT_FALSE(s->applyTransformation("Scalar Expansion", outer, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(fortran::printProgram(s->program()), before);
  EXPECT_FALSE(s->failures().empty());
}

TEST(Workloads, NeossNstateHasUnstructuredFlow) {
  ps::DiagnosticEngine diags;
  auto s = ped::Session::load(byName("neoss")->source, diags);
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->selectProcedure("NSTATE"));
  auto loops = s->loops();
  ASSERT_EQ(loops.size(), 1u);
  // Guidance offers Arithmetic IF Removal for the body.
  auto entries = s->guidance(loops[0].id, false);
  bool offersAifRemoval = false;
  for (const auto& g : entries) {
    if (g.transformation == "Arithmetic IF Removal") offersAifRemoval = true;
  }
  EXPECT_TRUE(offersAifRemoval);
}

}  // namespace
}  // namespace ps::workloads
