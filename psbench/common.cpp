#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

namespace psbench {

const std::vector<MetricSpec>& endToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"op_ms_p50", "ms"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& perLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      // Pipeline stages (medians per operation, 0 off their workload).
      {"open_cold_s", "s"},
      {"save_s", "s"},
      {"open_warm_s", "s"},
      {"settle_ms_p50", "ms"},
      {"settle_ms_p90", "ms"},
      {"settles_per_s", "1/s"},
      {"validate_s", "s"},
      {"emit_s", "s"},
      // Layers.
      {"fortran.parse_s", "s"},
      {"fortran.lines_per_s", "1/s"},
      {"fortran.pretty_s", "s"},
      {"interproc.summary_s", "s"},
      {"dataflow.s", "s"},
      {"dependence.pair_s", "s"},
      {"dependence.build_s", "s"},
      {"dependence.tests_requested", "count"},
      {"dependence.tests_run", "count"},
      {"dependence.memo_hit_ratio", "ratio"},
      {"dependence.edges", "count"},
      {"dependence.pairs_spliced_ratio", "ratio"},
      {"dependence.degraded", "count"},
      {"support.pool_tasks", "count"},
      {"support.pool_steals", "count"},
      {"support.pool_idle_ms", "ms"},
      {"support.pool_steal_fail_ratio", "ratio"},
      {"ped.analyze_parallel_s", "s"},
      {"ped.edit_ms", "ms"},
      {"server.coalesced_ratio", "ratio"},
      {"server.dirty_procs_per_settle", "count"},
      {"server.live_tests", "count"},
      {"pdb.bytes_written", "bytes"},
      {"pdb.save_s", "s"},
      {"pdb.hit_ratio", "ratio"},
      {"pdb.quarantined", "count"},
      {"pdb.warm_live_tests", "count"},
      {"pdb.bytes_read", "bytes"},
      {"interp.serial_run_s", "s"},
      {"interp.steps_per_s", "1/s"},
      {"validate.trace_s", "s"},
      {"validate.match_s", "s"},
      {"validate.trace_events", "count"},
      {"validate.relative_checks", "count"},
      {"emit.plan_s", "s"},
      {"emit.relative_s", "s"},
      {"emit.roundtrip_s", "s"},
      {"transform.mark_s", "s"},
      // Planted ground truth of generated decks.
      {"truth.planted_loops", "count"},
      {"truth.missed_parallel", "count"},
      // The trace itself.
      {"trace.spans", "count"},
      {"trace.self_over_wall_max", "ratio"},
      {"trace.overhead_ms", "ms"},
      // Scaling probe, cold-open only: per-layer exponent from ~1k to
      // ~10k generated lines.
      {"scaling.parse_exp", "exponent"},
      {"scaling.summary_exp", "exponent"},
      {"scaling.build_exp", "exponent"},
      {"scaling.analyze_exp", "exponent"},
      {"scaling.save_exp", "exponent"},
      {"scaling.open_warm_exp", "exponent"},
      {"scaling.flagged", "count"},
      {"scaling.dominant_share", "ratio"},
  };
  return specs;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 64) failures_.push_back(what);
  }
}

void Result::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Result::context(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  context_[key] = quoted + '"';
}

void Result::context(const std::string& key, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  context_[key] = os.str();
}

bool Result::resultJson(const std::vector<MetricSpec>& specs,
                        std::string* json, std::string* error) const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : specs) {
    auto it = metrics_.find(m.name);
    if (it == metrics_.end() || !std::isfinite(it->second)) {
      *error = std::string("metric ") + m.name + " missing or not finite";
      return false;
    }
    if (!first) os << ", ";
    first = false;
    os << '"' << m.name << "\": {\"value\": " << it->second
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  *json = os.str();
  return true;
}

std::string Result::contextJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : context_) {
    if (!first) out += ", ";
    first = false;
    out += '"' + k + "\": " + v;
  }
  return out + "}";
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool moreSetup(const std::vector<double>& seconds) {
  double total = 0.0;
  for (double s : seconds) total += s;
  return seconds.size() < static_cast<std::size_t>(kSetupRepeats) ||
         (total < kSetupMinSeconds && seconds.size() < 100);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

long long edgeCount(ped::Session& s) {
  long long n = 0;
  for (const std::string& p : s.procedureNames()) {
    if (s.selectProcedure(p)) {
      n += static_cast<long long>(s.workspace().graph->all().size());
    }
  }
  return n;
}

PoolSample poolSample(const ped::ParallelReport& r) {
  PoolSample p;
  p.tasks = static_cast<double>(r.tasksExecuted);
  p.steals = static_cast<double>(r.steals);
  for (const auto& row : r.idle) {
    p.idleMs += static_cast<double>(row.idleNanos) / 1e6;
    p.stealAttempts += static_cast<double>(row.stealAttempts);
    p.stealFails += static_cast<double>(row.stealFails);
  }
  return p;
}

}  // namespace psbench
