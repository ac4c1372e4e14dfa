#ifndef PS_INTERPROC_CALLGRAPH_H
#define PS_INTERPROC_CALLGRAPH_H

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "fortran/ast.h"

namespace ps::interproc {

/// One call site: the calling statement and the callee name. Covers CALL
/// statements and user-function invocations in expressions.
struct CallSite {
  std::string caller;
  std::string callee;
  const fortran::Stmt* stmt = nullptr;
};

/// The program call graph (the ParaScope Composition Editor's "big picture"
/// the users asked to see graphically).
class CallGraph {
 public:
  static CallGraph build(const fortran::Program& program);

  /// Every call site, units in program order and each unit's sites in
  /// statement pre-order.
  [[nodiscard]] const std::vector<CallSite>& callSites() const {
    return sites_;
  }
  /// The sites of one caller / of one callee, in callSites() order.
  [[nodiscard]] std::vector<const CallSite*> callsFrom(
      const std::string& caller) const;
  [[nodiscard]] std::vector<const CallSite*> callsTo(
      const std::string& callee) const;
  /// The distinct direct callees of `caller`, sorted.
  [[nodiscard]] std::set<std::string> calleesOf(
      const std::string& caller) const;

  /// Re-point `unit`'s sites at its current statements after an edit
  /// replaced some of them. Succeeds only when the unit's callee sequence is
  /// unchanged, so the graph then equals build() over the current program.
  /// Otherwise returns false and leaves the graph untouched.
  bool refreshCaller(const fortran::Procedure& unit);

  /// Procedure names in reverse topological (callee-first) order, suitable
  /// for bottom-up summary propagation. Procedures on cycles (recursion)
  /// are reported in `recursive()` and excluded from the order.
  [[nodiscard]] const std::vector<std::string>& bottomUpOrder() const {
    return bottomUp_;
  }
  [[nodiscard]] const std::vector<std::string>& recursive() const {
    return recursive_;
  }
  /// True when `name` is in recursive().
  [[nodiscard]] bool isRecursive(const std::string& name) const {
    return recursiveSet_.count(name) != 0;
  }

  /// Callees referenced but not defined in the program (library routines).
  [[nodiscard]] const std::vector<std::string>& unresolved() const {
    return unresolved_;
  }

  /// Render the textual call-graph listing PED's interface exposes.
  [[nodiscard]] std::string textual() const;

 private:
  std::vector<CallSite> sites_;
  /// Indices into sites_, ascending, keyed by caller and by callee.
  std::unordered_map<std::string, std::vector<std::size_t>> byCaller_;
  std::unordered_map<std::string, std::vector<std::size_t>> byCallee_;
  std::vector<std::string> bottomUp_;
  std::vector<std::string> recursive_;
  std::set<std::string> recursiveSet_;
  std::vector<std::string> unresolved_;
};

}  // namespace ps::interproc

#endif  // PS_INTERPROC_CALLGRAPH_H
