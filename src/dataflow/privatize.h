#ifndef PS_DATAFLOW_PRIVATIZE_H
#define PS_DATAFLOW_PRIVATIZE_H

#include <map>
#include <string>
#include <vector>

#include "dataflow/liveness.h"
#include "dataflow/varindex.h"

namespace ps::dataflow {

/// How a variable relates to one loop, from the privatization (scalar kill)
/// analysis the paper credits with making "almost all of the programs"
/// parallelizable: "recognizing scalars that are killed ... on every
/// iteration of a loop and may be made private, thus eliminating
/// dependences."
enum class PrivatizationStatus {
  /// Not accessed in the loop.
  Unused,
  /// Read before any write on some iteration path: must stay shared.
  Shared,
  /// Killed (written before any read) on every path through an iteration
  /// and dead after the loop: freely privatizable.
  Private,
  /// Killed on every path but live after the loop: privatizable with a
  /// last-value copy-out.
  PrivateNeedsLastValue,
};

const char* privatizationStatusName(PrivatizationStatus s);

struct VariableClassification {
  std::string name;
  PrivatizationStatus status = PrivatizationStatus::Unused;
  bool writtenInLoop = false;
  bool readInLoop = false;
  /// True when the first access on some path reads the value from before
  /// the loop / a previous iteration (the upward-exposed read).
  bool upwardExposedRead = false;
};

/// Scalar privatization analysis for every loop in a procedure. Arrays are
/// always classified Shared here — array kill analysis lives in
/// interproc/array_kill.h (the paper lists it under *needed* analyses).
class PrivatizationAnalysis {
 public:
  static PrivatizationAnalysis build(const VarIndex& index,
                                     const Liveness& liveness);

  [[nodiscard]] const std::vector<VariableClassification>& classesFor(
      const ir::Loop& loop) const;

  [[nodiscard]] PrivatizationStatus statusOf(const ir::Loop& loop,
                                             const std::string& name) const;

 private:
  std::map<const ir::Loop*, std::vector<VariableClassification>> classes_;
  std::vector<VariableClassification> empty_;
};

}  // namespace ps::dataflow

#endif  // PS_DATAFLOW_PRIVATIZE_H
