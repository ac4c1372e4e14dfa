#ifndef PSBENCH_GEN_H
#define PSBENCH_GEN_H

// Seeded Fortran deck generator for the pipeline benchmark. A deck is a
// main program over a set of modules; each module composes the paper's
// obstacle patterns (linearized neighbours, index-array scatter,
// privatizable temporaries, sum reductions, calls in small-trip loops,
// arithmetic-IF control flow) with COMMON blocks and a call chain
// MAIN -> DRVm -> COLm -> leaf kernels. Subscript offsets, coefficients
// and loop bounds are drawn from the seed, over a range that grows with
// the module count, so structurally identical dependence tests (which
// the memo answers by structure, not by name) repeat at a steady rate
// instead of approaching one as the deck grows.

#include <string>
#include <vector>

namespace psbench {

/// One loop whose dependence behaviour the generator planted: `ordinal`
/// is the loop's pre-order position among its procedure's loops (the
/// order Session::loops() lists them in).
struct PlantedLoop {
  std::string proc;
  int ordinal = 0;
  bool carried = false;  // a real loop-carried dependence exists
  std::string pattern;
};

struct GeneratedDeck {
  std::string source;
  int lines = 0;
  int modules = 0;
  int procedures = 0;
  std::vector<PlantedLoop> truth;
};

/// Deterministic in (seed, lines): the same arguments give byte-identical
/// source and truth. `lines` is a target; whole modules are added until
/// the deck reaches it.
[[nodiscard]] GeneratedDeck generateDeck(unsigned seed, int lines);

}  // namespace psbench

#endif  // PSBENCH_GEN_H
