#ifndef PS_DEPENDENCE_TESTSUITE_H
#define PS_DEPENDENCE_TESTSUITE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataflow/linear.h"
#include "dependence/dep.h"
#include "dependence/fm.h"
#include "dependence/section.h"
#include "dependence/subscript.h"
#include "fortran/ast.h"

namespace ps::dep {

/// One loop of the common nest enclosing a reference pair, outermost first.
struct LoopContext {
  std::string iv;
  dataflow::LinearExpr lo;  // linearized lower bound (loop-entry values)
  dataflow::LinearExpr hi;  // linearized upper bound
  long long step = 1;       // 0 = unknown (non-constant step)
  fortran::StmtId doStmt = fortran::kInvalidStmt;
};

/// A linear fact known to hold: expr >= 0 (or > 0 when strict). Sources:
/// loop bounds of enclosing non-common loops, symbolic relations, and user
/// RELATION / RANGE assertions.
struct Fact {
  dataflow::LinearExpr expr;
  bool strict = false;
};

/// Assertions about index arrays (the paper's §3.3 / §4.3 obstacles).
struct IndexArrayFacts {
  /// PERMUTATION(A): A maps distinct arguments to distinct values.
  std::set<std::string> permutation;
  /// STRIDED(A, k): A is monotone increasing with A(i+1) >= A(i) + k.
  std::map<std::string, long long> strided;
  /// SEPARATED(A, B, k): min over B's values minus max over A's >= k.
  std::map<std::pair<std::string, std::string>, long long> separated;

  [[nodiscard]] bool empty() const {
    return permutation.empty() && strided.empty() && separated.empty();
  }
};

/// A pair of array references (same array) to test for dependence, with the
/// substitution maps of their statements.
struct RefPair {
  const fortran::Expr* src = nullptr;
  const fortran::Expr* dst = nullptr;
  const std::map<std::string, dataflow::LinearExpr>* srcSub = nullptr;
  const std::map<std::string, dataflow::LinearExpr>* dstSub = nullptr;
};

enum class DepAnswer {
  NoDependence,       // proved independent
  DependenceExact,    // dependence exists and the test was exact (-> proven)
  DependenceAssumed,  // could not disprove (-> pending)
};

struct LevelResult {
  DepAnswer answer = DepAnswer::DependenceAssumed;
  /// Iteration distance at the carrier level when exactly known.
  std::optional<long long> distance;
  /// True when an analysis budget ran out while answering this query and the
  /// answer was coarsened to DependenceAssumed instead of being decided.
  bool degraded = false;
};

/// Explicit work limits for one dependence-analysis build. Every bound, when
/// hit, coarsens the answer conservatively (assume dependence / opaque term
/// / fewer symbolic relations) and is reported through TestStats — the
/// analysis never silently times out and never returns a wrong disproof.
struct AnalysisBudget {
  /// Fourier–Motzkin constraint-blowup and elimination caps.
  std::size_t fmMaxConstraints = 4000;
  int fmMaxEliminations = 64;
  /// Subscript linearizer node cap (0 = unlimited).
  std::size_t maxSubscriptNodes = 512;
  /// Cap on symbolic relations propagated per procedure (0 = unlimited).
  std::size_t maxSymbolicRelations = 4096;

  [[nodiscard]] bool operator==(const AnalysisBudget& o) const {
    return fmMaxConstraints == o.fmMaxConstraints &&
           fmMaxEliminations == o.fmMaxEliminations &&
           maxSubscriptNodes == o.maxSubscriptNodes &&
           maxSymbolicRelations == o.maxSymbolicRelations;
  }
};

/// Counters for the hierarchical suite (ablation benches A1/A2/A3) plus the
/// memoization observability counters.
struct TestStats {
  long long zivDisproofs = 0;
  long long zivExact = 0;
  long long strongSiv = 0;
  long long strongSivDisproofs = 0;
  long long indexArrayDisproofs = 0;
  long long fmRuns = 0;
  long long fmDisproofs = 0;
  long long assumed = 0;

  /// Fourier–Motzkin runs that hit their constraint/elimination budget.
  long long fmDegraded = 0;
  /// Queries whose final answer was coarsened by some exhausted budget.
  long long degradedAnswers = 0;
  /// Subscripts collapsed to a single opaque term by the node budget.
  long long linearizeDegraded = 0;
  /// Symbolic relations dropped by the per-procedure relation cap.
  long long symbolicTruncated = 0;

  /// Dependence-test queries issued (test/testSection/testSections calls).
  long long testsRequested = 0;
  /// Queries answered from the memo table without running any tier.
  long long memoHits = 0;
  /// Queries that ran the suite and populated the memo table.
  long long memoMisses = 0;

  /// Reference pairs whose test battery this build issued (the memo may
  /// answer every test of a pair).
  long long pairsTested = 0;
  /// Fixed-size batches the pairs were partitioned into. Each batch is an
  /// independently schedulable unit (private tester/opaque copies), so this
  /// is the array-pair phase's available parallelism for one build.
  long long pairBatches = 0;
  /// Always 0: every build tests every pair. The pipeline benchmark
  /// (psbench/edit_settle.cpp) still reports it.
  long long pairsSpliced = 0;

  /// Wall time per phase, in seconds (dataflow setup, array-pair testing,
  /// scalar/control/call-site sections, whole build).
  double dataflowSeconds = 0;
  double pairSeconds = 0;
  double otherSeconds = 0;
  double totalSeconds = 0;

  /// Tests that actually executed (requested minus memo hits).
  [[nodiscard]] long long testsRun() const {
    return testsRequested - memoHits;
  }

  void accumulate(const TestStats& o);
};

/// A memo key with its 64-bit content hash (support::xxh64) computed ONCE
/// at construction; the cached hash picks the key's shard.
struct MemoKey {
  std::string text;
  std::uint64_t hash = 0;

  MemoKey() = default;
  explicit MemoKey(std::string t);
};

/// Cross-build memo table for dependence-test results. The key is a
/// canonical form of (nest shape, facts, budget, level, direction
/// constraint, subscript-difference forms), so structurally identical pairs
/// like A(I,J) vs A(I,J-1) across statements — and across rebuilds — are
/// answered without re-running the tier suite. Opaque terms are
/// content-addressed ("@" + printed expression), so the key is a complete
/// rendering of the test's inputs: a key match implies the cached result is
/// what recomputation would produce. That is the memo's one freshness rule,
/// and the reason nothing is ever invalidated: an edit, an assertion, a
/// budget change or a rollback changes the key of every test whose answer
/// it can move, and it is what makes sharing one memo across SESSIONS
/// sound.
///
/// Concurrency: the key's cached hash picks one of kShards independently
/// locked unordered_map stripes, so lookups of different keys rarely meet
/// on one lock. Lookups copy the result out under the shard lock.
class DepMemo {
 public:
  DepMemo() = default;
  DepMemo(const DepMemo&) = delete;
  DepMemo& operator=(const DepMemo&) = delete;

  /// Returns a copy of the cached result for `key`; nullopt on miss.
  /// Returned by value: a pointer into the table would not survive a
  /// concurrent rehash.
  [[nodiscard]] std::optional<LevelResult> lookup(const MemoKey& key) const;
  void insert(const MemoKey& key, const LevelResult& result);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] static constexpr std::size_t shardCount() { return kShards; }

  /// Every entry, sorted by key (deterministic bytes for the persistent
  /// program database's memo record).
  [[nodiscard]] std::vector<std::pair<std::string, LevelResult>>
  exportEntries() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, LevelResult> table;
  };

  [[nodiscard]] Shard& shardFor(const MemoKey& key) const {
    return shards_[key.hash % kShards];
  }

  mutable std::array<Shard, kShards> shards_;
};

/// Append a canonical rendering of a linear form to a memo key.
void appendLinearKey(std::string& out, const dataflow::LinearExpr& e);

/// The hierarchical dependence tester: "a hierarchical suite of tests is
/// used, starting with inexpensive tests, to prove or disprove that a
/// dependence exists" [19]. `cheapFirst=false` skips the ZIV/SIV tiers and
/// goes straight to Fourier–Motzkin (ablation A1).
class DependenceTester {
 public:
  DependenceTester(std::vector<LoopContext> commonLoops,
                   std::vector<Fact> facts, IndexArrayFacts indexFacts,
                   OpaqueTable& opaques,
                   std::set<std::string> variantVars = {},
                   bool cheapFirst = true, DepMemo* memo = nullptr,
                   AnalysisBudget budget = {});

  /// Test for a dependence src -> dst carried at `level` (1-based index into
  /// the common nest; 0 = loop-independent, i.e. same iteration of every
  /// common loop). `innerDir` optionally constrains the direction at the
  /// next-deeper level (level+1), for direction-vector refinement.
  [[nodiscard]] LevelResult test(const RefPair& pair, int level,
                                 Direction innerDir = Direction::Star);

  /// Test a dependence between an array reference and a call-site section
  /// access (interprocedural side-effect endpoint). NoDependence means the
  /// reference provably lies outside the section under the iteration
  /// constraints.
  [[nodiscard]] LevelResult testSection(
      const fortran::Expr& ref,
      const std::map<std::string, dataflow::LinearExpr>& refSub,
      const Section& section,
      const std::map<std::string, dataflow::LinearExpr>& callSub, int level,
      bool callIsSrc);

  /// Overlap test between two call-site sections (call-call dependence).
  [[nodiscard]] LevelResult testSections(
      const Section& a,
      const std::map<std::string, dataflow::LinearExpr>& aSub,
      const Section& b,
      const std::map<std::string, dataflow::LinearExpr>& bSub, int level);

  [[nodiscard]] const TestStats& stats() const { return stats_; }

 private:
  /// Linearize one side of a dimension with iteration tagging for `level`.
  dataflow::LinearExpr tagged(
      const fortran::Expr& e,
      const std::map<std::string, dataflow::LinearExpr>& sub, int level,
      bool isSrc);
  /// Rename iteration-variant symbols in a linear form.
  dataflow::LinearExpr tagForm(const dataflow::LinearExpr& f, int level,
                               bool isSrc) const;
  [[nodiscard]] bool variantAtOrBelow(const std::string& var,
                                      int level) const;

  bool indexArrayDisproof(const dataflow::LinearExpr& diff, int level) const;

  /// The tier suite proper, after the subscript differences are formed.
  LevelResult runSuite(const std::vector<dataflow::LinearExpr>& diffs,
                       int level, Direction innerDir);

  /// Append iteration-variable bounds, carrier direction and facts, then run
  /// Fourier–Motzkin; returns true when the system is infeasible. When the
  /// solver hit its budget, `*degraded` is set (never cleared).
  bool finishFm(std::vector<Constraint> cs, int level,
                bool* degraded = nullptr);

  /// Canonical memo key: nest/facts prefix + query tag + linear forms. The
  /// key's 64-bit hash is computed here, once, and rides along into shard
  /// selection.
  [[nodiscard]] MemoKey makeKey(
      char tag, int level, int variant,
      const std::vector<dataflow::LinearExpr>& forms) const;

  std::vector<LoopContext> loops_;
  std::vector<Fact> facts_;
  IndexArrayFacts indexFacts_;
  OpaqueTable& opaques_;
  std::set<std::string> variantVars_;
  bool cheapFirst_;
  DepMemo* memo_ = nullptr;
  AnalysisBudget budget_;
  std::string keyPrefix_;  // canonical nest shape + facts, set when memoized
  TestStats stats_;
};

}  // namespace ps::dep

#endif  // PS_DEPENDENCE_TESTSUITE_H
