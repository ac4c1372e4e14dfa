#ifndef PSBENCH_TRACE_H
#define PSBENCH_TRACE_H

// In-memory span recorder for the traced benchmark run. Spans are placed
// by the benchmark around its own calls into each module's public
// functions (nothing inside the analysis libraries is instrumented). Each
// span records its name, start, end, parent span and thread; counters
// snapshot program statistics at the same boundaries. Everything stays in
// memory until writeChromeTrace() at exit.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace psbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;  // index into the same thread's spans, -1 = top level
  int thread = 0;
};

struct CounterRecord {
  std::string name;
  double value = 0.0;
  std::int64_t atNs = 0;
  int thread = 0;
};

/// Self time per span name and per-thread reconciliation of one trace.
struct SelfTimes {
  std::map<std::string, double> selfSeconds;  // by span name
  /// Per thread: sum of self times and the thread's traced wall time (first
  /// span start to last span end).
  std::map<int, double> threadSelf;
  std::map<int, double> threadWall;
  std::size_t spans = 0;

  /// Largest per-thread ratio of summed self time to wall time; at most 1
  /// when every child span nests inside its parent.
  [[nodiscard]] double maxSelfOverWall() const;
};

class Tracer {
 public:
  static Tracer& instance();

  void setEnabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  /// Mute span recording on the calling thread only (the traced run
  /// alternates muted and recorded operations to measure span cost).
  static void muteThisThread(bool muted);

  /// Open a span on the calling thread; returns a handle for end().
  int begin(const char* name);
  void end(int handle);
  void counter(const std::string& name, double value);

  [[nodiscard]] SelfTimes selfTimes() const;

  /// Chrome trace-event JSON ("X" events for spans, "C" for counters).
  bool writeChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
};

/// RAII span that always measures its own duration (end-to-end timing needs
/// it with tracing off) and records a span only when the tracer is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now; returns its duration in seconds.
  double stop();

 private:
  std::int64_t startNs_ = 0;
  double seconds_ = 0.0;
  int handle_ = -1;
  bool open_ = true;
};

[[nodiscard]] std::int64_t nowNs();

}  // namespace psbench

#endif  // PSBENCH_TRACE_H
