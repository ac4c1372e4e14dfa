#ifndef PS_DATAFLOW_LIVENESS_H
#define PS_DATAFLOW_LIVENESS_H

#include <string>
#include <vector>

#include "dataflow/varindex.h"
#include "support/bitset.h"

namespace ps::dataflow {

/// Backward live-variable analysis over the statement CFG. Privatization
/// uses liveness to decide whether a privatized scalar/array needs its last
/// value copied out of the loop.
class Liveness {
 public:
  static Liveness build(const VarIndex& index);

  /// True if variable `var` of the index is live on entry to `node`.
  [[nodiscard]] bool liveIn(int node, int var) const {
    return in_[static_cast<std::size_t>(node)].test(
        static_cast<std::size_t>(var));
  }

  /// True if `name` may be read after the loop completes (live at the
  /// loop's exit edges or at procedure exit if the variable escapes — a
  /// parameter or COMMON member is conservatively live at exit).
  [[nodiscard]] bool liveAfterLoop(const ir::Loop& loop,
                                   const std::string& name) const;

 private:
  const VarIndex* index_ = nullptr;
  std::vector<DenseBitSet> in_;  // per node, over the index's variables
};

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_LIVENESS_H
