#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace psbench {

namespace {

struct ThreadLog {
  int thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> stack;
  std::vector<CounterRecord> counters;
};

std::mutex gLogsMu;
// Logs outlive their threads: a client thread's spans are read after it
// has been joined.
std::vector<std::unique_ptr<ThreadLog>> gLogs;

thread_local bool tMuted = false;

ThreadLog& localLog() {
  thread_local ThreadLog* log = nullptr;
  if (!log) {
    std::lock_guard<std::mutex> lock(gLogsMu);
    gLogs.push_back(std::make_unique<ThreadLog>());
    log = gLogs.back().get();
    log->thread = static_cast<int>(gLogs.size()) - 1;
  }
  return *log;
}

}  // namespace

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SelfTimes::maxSelfOverWall() const {
  double worst = 0.0;
  for (const auto& [t, self] : threadSelf) {
    auto it = threadWall.find(t);
    if (it == threadWall.end() || it->second <= 0.0) continue;
    worst = std::max(worst, self / it->second);
  }
  return worst;
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::muteThisThread(bool muted) { tMuted = muted; }

int Tracer::begin(const char* name) {
  if (!enabled() || tMuted) return -1;
  ThreadLog& log = localLog();
  SpanRecord r;
  r.name = name;
  r.startNs = nowNs();
  r.parent = log.stack.empty() ? -1 : log.stack.back();
  r.thread = log.thread;
  log.spans.push_back(r);
  const int handle = static_cast<int>(log.spans.size()) - 1;
  log.stack.push_back(handle);
  return handle;
}

void Tracer::end(int handle) {
  if (handle < 0) return;
  ThreadLog& log = localLog();
  log.spans[static_cast<std::size_t>(handle)].endNs = nowNs();
  // Spans close in LIFO order on a thread (RAII); tolerate a mismatch by
  // unwinding to the closed span.
  while (!log.stack.empty()) {
    const int top = log.stack.back();
    log.stack.pop_back();
    if (top == handle) break;
  }
}

void Tracer::counter(const std::string& name, double value) {
  if (!enabled() || tMuted) return;
  ThreadLog& log = localLog();
  log.counters.push_back({name, value, nowNs(), log.thread});
}

SelfTimes Tracer::selfTimes() const {
  std::lock_guard<std::mutex> lock(gLogsMu);
  SelfTimes st;
  for (const auto& log : gLogs) {
    if (log->spans.empty()) continue;
    std::vector<double> childSeconds(log->spans.size(), 0.0);
    std::int64_t first = log->spans.front().startNs;
    std::int64_t last = first;
    for (const SpanRecord& s : log->spans) {
      const double d = static_cast<double>(s.endNs - s.startNs) / 1e9;
      if (s.parent >= 0) childSeconds[static_cast<std::size_t>(s.parent)] += d;
      first = std::min(first, s.startNs);
      last = std::max(last, s.endNs);
    }
    double threadSelf = 0.0;
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      const double d = static_cast<double>(s.endNs - s.startNs) / 1e9;
      const double self = d - childSeconds[i];
      st.selfSeconds[s.name] += self;
      threadSelf += self;
    }
    st.threadSelf[log->thread] = threadSelf;
    st.threadWall[log->thread] = static_cast<double>(last - first) / 1e9;
    st.spans += log->spans.size();
  }
  return st;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(gLogsMu);
  std::int64_t origin = 0;
  for (const auto& log : gLogs) {
    for (const SpanRecord& s : log->spans) {
      if (origin == 0 || s.startNs < origin) origin = s.startNs;
    }
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& log : gLogs) {
    for (const SpanRecord& s : log->spans) {
      sep();
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.thread << ",\"ts\":"
          << static_cast<double>(s.startNs - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
          << ",\"args\":{\"parent\":" << s.parent << "}}";
    }
    for (const CounterRecord& c : log->counters) {
      sep();
      out << "{\"name\":\"" << c.name << "\",\"ph\":\"C\",\"pid\":1,\"tid\":"
          << c.thread << ",\"ts\":"
          << static_cast<double>(c.atNs - origin) / 1e3
          << ",\"args\":{\"value\":" << c.value << "}}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name)
    : startNs_(nowNs()), handle_(Tracer::instance().begin(name)) {}

Span::~Span() { stop(); }

double Span::stop() {
  if (open_) {
    open_ = false;
    Tracer::instance().end(handle_);
    seconds_ = static_cast<double>(nowNs() - startNs_) / 1e9;
  }
  return seconds_;
}

}  // namespace psbench
