// ps_bench: the pipeline benchmark program.
//
//   ps_bench --workload <cold-open|edit-settle|validate-emit> --seed N
//            --seconds S --trace <0|1> --work-dir DIR
//   ps_bench --gen SEED LINES     print one generated deck
//   ps_bench --list-metrics       print the metric tables
//
// The last line of standard output is the JSON result: every end-to-end
// metric with --trace 0, every per-layer metric with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "gen.h"
#include "support/lockfree.h"
#include "trace.h"

namespace {

using namespace psbench;

int usage() {
  std::fprintf(stderr,
               "usage: ps_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n"
               "       ps_bench --gen SEED LINES\n"
               "       ps_bench --list-metrics\n");
  return 2;
}

void printFailures(const Result& r) {
  for (const std::string& f : r.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
}

/// Per-layer self time, keyed by the span name's layer prefix.
void printSelfTimes(const SelfTimes& st) {
  std::map<std::string, double> byLayer;
  for (const auto& [name, self] : st.selfSeconds) {
    byLayer[name.substr(0, name.find('.'))] += self;
  }
  for (const auto& [layer, self] : byLayer) {
    std::printf("self_s %-12s %.6f\n", layer.c_str(), self);
  }
  for (const auto& [t, self] : st.threadSelf) {
    std::printf("thread %d self %.6f s wall %.6f s\n", t, self,
                st.threadWall.at(t));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const MetricSpec& m : endToEndMetrics()) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricSpec& m : perLayerMetrics()) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (a == "--gen" && i + 2 < argc) {
      const GeneratedDeck d = generateDeck(
          static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10)),
          std::atoi(argv[i + 2]));
      std::fputs(d.source.c_str(), stdout);
      return 0;
    }
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[a.substr(2)] = argv[++i];
  }
  for (const char* k : {"workload", "seed", "seconds", "trace", "work-dir"}) {
    if (!args.count(k)) return usage();
  }

  Options o;
  o.workload = args["workload"];
  o.seed = static_cast<unsigned>(std::strtoul(args["seed"].c_str(), nullptr, 10));
  o.seconds = std::atof(args["seconds"].c_str());
  o.trace = args["trace"] == "1";
  o.nproc = std::max(1u, std::thread::hardware_concurrency());
  o.workDir = args["work-dir"];
  std::error_code ec;
  std::filesystem::create_directories(o.workDir, ec);
  if (ec || o.seconds <= 0) return usage();

  Result r;
  r.context("workload", o.workload);
  r.context("seed", o.seed);
  r.context("seconds", o.seconds);
  r.context("trace", o.trace ? 1.0 : 0.0);
  r.context("nproc", o.nproc);
  r.context("build_type", PSBENCH_BUILD_TYPE);
  r.context("ps_lockfree", ps::support::lockfreeDefault() ? 1.0 : 0.0);

  Tracer::instance().setEnabled(o.trace);
  int rc = 2;
  if (o.workload == "cold-open") {
    rc = runColdOpen(o, r);
  } else if (o.workload == "edit-settle") {
    rc = runEditSettle(o, r);
  } else if (o.workload == "validate-emit") {
    rc = runValidateEmit(o, r);
  } else {
    return usage();
  }
  if (rc != 0) {
    printFailures(r);
    return rc;
  }

  r.metric("peak_rss_mb", peakRssMb());
  if (o.trace) {
    const SelfTimes st = Tracer::instance().selfTimes();
    printSelfTimes(st);
    r.metric("trace.spans", static_cast<double>(st.spans));
    r.metric("trace.self_over_wall_max", st.maxSelfOverWall());
    r.check(st.maxSelfOverWall() <= 1.0 + 1e-9,
            "per-thread self time within the thread's wall time");
    const std::string path = o.workDir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".json";
    if (Tracer::instance().writeChromeTrace(path)) {
      r.context("trace_file", path);
    }
    // Layers a workload does not exercise read 0.
    for (const MetricSpec& m : perLayerMetrics()) {
      if (!r.metrics().count(m.name)) r.metric(m.name, 0.0);
    }
  }

  printFailures(r);
  std::string json, error;
  if (!r.resultJson(o.trace ? perLayerMetrics() : endToEndMetrics(), &json,
                    &error)) {
    std::fprintf(stderr, "ps_bench: %s\n", error.c_str());
    return 1;
  }
  std::printf("context %s\n", r.contextJson().c_str());
  std::printf("%s\n", json.c_str());
  return 0;
}
