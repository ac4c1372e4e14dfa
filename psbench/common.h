#ifndef PSBENCH_COMMON_H
#define PSBENCH_COMMON_H

// Shared pieces of the pipeline benchmark: run options, the result being
// assembled (output checks, metrics, run context), the metric tables that
// BENCHMARK.json mirrors, and small statistics helpers.

#include <map>
#include <string>
#include <vector>

#include "ped/session.h"
#include "trace.h"

namespace psbench {

// The benchmark reads as a client of the analysis libraries.
using namespace ps;

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Hardware threads; client threads plus pool workers stay at or below.
  int nproc = 4;
  /// Scratch directory inside the checkout for stores and trace files.
  std::string workDir;
};

/// Set-up is repeated at least kSetupRepeats times and for at least
/// kSetupMinSeconds in all, and its median reported, so setup_s is itself
/// a steady measurement.
constexpr int kSetupRepeats = 3;
constexpr double kSetupMinSeconds = 2.0;
[[nodiscard]] bool moreSetup(const std::vector<double>& seconds);

/// The timed loop's clock. Operations that start during the warm-up run
/// and are checked but not measured (worker threads, allocator arenas and
/// the host's clocks settle first); measurement then lasts the run's
/// `seconds`.
struct Window {
  static constexpr double kWarmupSeconds = 2.0;
  std::int64_t warmEnd = 0;
  std::int64_t deadline = 0;

  explicit Window(double seconds)
      : warmEnd(nowNs() + static_cast<std::int64_t>(kWarmupSeconds * 1e9)),
        deadline(warmEnd + static_cast<std::int64_t>(seconds * 1e9)) {}
  [[nodiscard]] bool open() const { return nowNs() < deadline; }
  [[nodiscard]] bool measuring() const { return nowNs() >= warmEnd; }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with tracing off, on every workload.
const std::vector<MetricSpec>& endToEndMetrics();
/// Printed by the traced run, on every workload (0 where a layer is not
/// exercised).
const std::vector<MetricSpec>& perLayerMetrics();

class Result {
 public:
  /// Count one attempted operation or output check; a false `ok` counts it
  /// failed and keeps `what` for the report.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value);
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);

  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const std::map<std::string, double>& metrics() const {
    return metrics_;
  }

  /// The final result line: {"correct", "attempted", "failed", "metrics"}
  /// restricted to `specs`. False (and `error` set) when a metric of
  /// `specs` is missing or not finite.
  bool resultJson(const std::vector<MetricSpec>& specs, std::string* json,
                  std::string* error) const;
  [[nodiscard]] std::string contextJson() const;

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> context_;  // values already JSON
};

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double peakRssMb();
[[nodiscard]] double ratio(double num, double den);

/// Per-procedure graph edges of a session, summed.
[[nodiscard]] long long edgeCount(ped::Session& s);

/// Pool telemetry between two snapshots of a TaskPool.
struct PoolSample {
  double tasks = 0.0;
  double steals = 0.0;
  double idleMs = 0.0;
  double stealAttempts = 0.0;
  double stealFails = 0.0;
};
[[nodiscard]] PoolSample poolSample(const ped::ParallelReport& r);

int runColdOpen(const Options& o, Result& r);
int runEditSettle(const Options& o, Result& r);
int runValidateEmit(const Options& o, Result& r);

}  // namespace psbench

#endif  // PSBENCH_COMMON_H
